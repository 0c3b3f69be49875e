#include "rl/reward_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuit/pingraph.hpp"
#include "circuit/validity.hpp"
#include "nn/sampler.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "tensor/optim.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"

namespace eva::rl {

using namespace eva::tensor;
using circuit::CircuitType;

double rank_reward(RankClass c) {
  switch (c) {
    case RankClass::HighRelevant: return 1.0;
    case RankClass::LowRelevant: return 0.5;
    case RankClass::IrrelevantValid: return -0.5;
    case RankClass::Invalid: return -1.0;
  }
  return -1.0;
}

LabelingResult label_dataset(const data::Dataset& ds, const nn::Tokenizer& tok,
                             const LabelingConfig& cfg) {
  Rng rng(cfg.seed);
  LabelingResult out;

  // FoM of every relevant topology (failed evaluations count as low).
  struct Pending {
    std::vector<int> ids;
    bool relevant = false;
    double fom = 0.0;
    bool fom_ok = false;
  };
  std::vector<Pending> pending;
  std::vector<double> foms;
  for (const auto& e : ds.entries()) {
    Pending p;
    const auto tour = circuit::encode_tour(e.netlist, rng);
    auto ids = tok.encode_tour(tour);
    ids.pop_back();  // drop EOS: RankedExample stores the raw tour
    p.ids = std::move(ids);
    p.relevant = e.type == cfg.target;
    if (p.relevant) {
      const auto perf = spice::evaluate_default(e.netlist, cfg.target);
      p.fom_ok = perf.ok;
      p.fom = perf.fom;
      if (perf.ok) foms.push_back(perf.fom);
    }
    pending.push_back(std::move(p));
  }
  out.fom_threshold = foms.empty() ? 0.0 : otsu_threshold(foms);

  int n_high = 0;
  for (auto& p : pending) {
    RankClass rank = RankClass::IrrelevantValid;
    if (p.relevant) {
      rank = (p.fom_ok && p.fom >= out.fom_threshold)
                 ? RankClass::HighRelevant
                 : RankClass::LowRelevant;
      n_high += rank == RankClass::HighRelevant;
    }
    out.examples.push_back(RankedExample{std::move(p.ids), rank});
  }
  // Degenerate Otsu split (tiny or flat FoM sample): promote the best
  // relevant topology so every rank class is populated.
  if (n_high == 0 && !foms.empty()) {
    double best = -1.0;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].relevant && pending[i].fom_ok && pending[i].fom > best) {
        best = pending[i].fom;
        best_i = i;
      }
    }
    out.examples[best_i].rank = RankClass::HighRelevant;
    out.fom_threshold = best;
  }

  // Synthesize invalid sequences by corrupting valid tours: truncation or
  // random token substitution breaks the Euler-tour structure.
  const auto n_invalid = static_cast<std::size_t>(
      cfg.invalid_fraction * static_cast<double>(out.examples.size()));
  const std::size_t n_valid = out.examples.size();
  for (std::size_t i = 0; i < n_invalid; ++i) {
    auto ids = out.examples[rng.index(n_valid)].ids;
    if (ids.size() < 6) continue;
    if (rng.chance(0.5)) {
      ids.resize(ids.size() / 2 + rng.index(ids.size() / 4 + 1));
    } else {
      const std::size_t pos = 1 + rng.index(ids.size() - 2);
      ids[pos] = 2 + static_cast<int>(
          rng.index(static_cast<std::size_t>(tok.vocab_size() - 2)));
    }
    // Keep only genuinely invalid corruptions.
    const auto dec = nn::ids_to_netlist_checked(tok, ids);
    if (!dec.ok() || !circuit::structurally_valid(*dec.netlist)) {
      out.examples.push_back(RankedExample{std::move(ids), RankClass::Invalid});
    }
  }

  out.labeled_count = static_cast<int>(out.examples.size());
  return out;
}

RewardModel::RewardModel(const nn::TransformerLM& pretrained,
                         const nn::Tokenizer& tok, Rng& rng)
    : tok_(&tok), trunk_(pretrained.config(), rng) {
  trunk_.load_from(pretrained);
  head_w_ = Tensor::randn({pretrained.config().d_model, 3}, rng, 0.02f, true);
  head_b_ = Tensor::zeros({3}, true);
}

Tensor RewardModel::class_logits(const std::vector<int>& ids) const {
  EVA_REQUIRE(!ids.empty(), "class_logits: empty sequence");
  const int T = std::min<int>(static_cast<int>(ids.size()),
                              trunk_.config().max_seq);
  const std::vector<int> tokens(ids.begin(), ids.begin() + T);
  Tensor hidden = trunk_.forward_hidden(tokens, 1, T, /*training=*/false);
  // Mean-pool over positions: (1,T,C) -> (T,C) -> (C,1) via matmul with a
  // uniform weight column, then project with the head.
  Tensor h2 = reshape(hidden, {T, trunk_.config().d_model});
  Tensor pool_w = Tensor::full({T, 1}, 1.0f / static_cast<float>(T));
  Tensor pooled = reshape(matmul(transpose_last(h2), pool_w),
                          {1, trunk_.config().d_model});
  return add(matmul(pooled, head_w_), head_b_);  // (1,3)
}

std::vector<float> RewardModel::classify(const std::vector<int>& ids) const {
  Tensor probs = softmax_lastdim(class_logits(ids));
  return {probs.data()[0], probs.data()[1], probs.data()[2]};
}

double RewardModel::score(const std::vector<int>& ids) const {
  const auto p = classify(ids);
  return p[0] * 1.0 + p[1] * 0.5 + p[2] * -0.5;
}

double RewardModel::reward(const std::vector<int>& ids) const {
  // Rule-based checker: decodable + structurally valid + simulatable.
  const auto dec = nn::ids_to_netlist_checked(*tok_, ids);
  if (!dec.ok() || !spice::simulatable(*dec.netlist)) {
    return rank_reward(RankClass::Invalid);
  }
  double s = score(ids);
  if (fault::enabled() && fault::should_fire("reward_nan")) {
    s = std::numeric_limits<double>::quiet_NaN();
  }
  if (!std::isfinite(s)) {
    // A non-finite score must grade as an invalid circuit: one NaN reward
    // otherwise poisons the whole epoch's advantage normalization.
    obs::counter("rl.reward_nonfinite").add();
    obs::log_every_n(obs::LogLevel::kWarn, "rl.reward_nonfinite", 64, {});
    return rank_reward(RankClass::Invalid);
  }
  return s;
}

double RewardModel::accuracy(
    const std::vector<RankedExample>& examples) const {
  int correct = 0;
  int total = 0;
  for (const auto& e : examples) {
    if (e.rank == RankClass::Invalid) continue;
    const auto p = classify(e.ids);
    const int pred = static_cast<int>(
        std::max_element(p.begin(), p.end()) - p.begin());
    correct += pred == static_cast<int>(e.rank);
    ++total;
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

std::vector<double> RewardModel::train(
    const std::vector<RankedExample>& examples, const RewardModelConfig& cfg) {
  // Partition by class.
  std::vector<std::vector<const RankedExample*>> by_class(3);
  for (const auto& e : examples) {
    if (e.rank == RankClass::Invalid) continue;
    by_class[static_cast<std::size_t>(e.rank)].push_back(&e);
  }
  EVA_REQUIRE(!by_class[0].empty() && !by_class[1].empty() &&
                  !by_class[2].empty(),
              "reward model training needs all three valid rank classes");

  Rng rng(cfg.seed);
  auto params = trunk_.parameters();
  params.push_back(head_w_);
  params.push_back(head_b_);
  AdamW opt(params, {.lr = cfg.lr});

  const float class_scores[3] = {1.0f, 0.5f, -0.5f};
  std::vector<double> losses;
  losses.reserve(static_cast<std::size_t>(cfg.steps));

  for (int step = 0; step < cfg.steps; ++step) {
    opt.zero_grad();
    // One group: an example from each class, best rank first.
    std::vector<Tensor> scores;   // scalar expected-reward per item
    Tensor ce_total;              // auxiliary CE
    for (int c = 0; c < 3; ++c) {
      const auto& pool = by_class[static_cast<std::size_t>(c)];
      const RankedExample* ex = pool[rng.index(pool.size())];
      Tensor logits = class_logits(ex->ids);  // (1,3)
      Tensor probs = softmax_lastdim(logits);
      Tensor weights = Tensor::from({3}, {class_scores[0], class_scores[1],
                                          class_scores[2]});
      scores.push_back(sum_all(mul(probs, weights)));
      Tensor ce = cross_entropy(logits, {c});
      ce_total = ce_total.defined() ? add(ce_total, ce) : ce;
    }
    // Plackett–Luce: -sum_i [ s_i - log sum_{j>=i} exp(s_j) ] over the
    // true ranking (scores[0] should beat scores[1] beat scores[2]).
    Tensor pl_loss;
    for (int i = 0; i < 3; ++i) {
      Tensor denom;
      for (int j = i; j < 3; ++j) {
        Tensor e = exp_t(scores[static_cast<std::size_t>(j)]);
        denom = denom.defined() ? add(denom, e) : e;
      }
      Tensor term = sub(log_t(denom), scores[static_cast<std::size_t>(i)]);
      pl_loss = pl_loss.defined() ? add(pl_loss, term) : term;
    }
    Tensor loss = add(pl_loss, mul_scalar(ce_total, cfg.ce_weight / 3.0f));
    loss.backward();
    clip_grad_norm(params, cfg.clip);
    opt.step();
    losses.push_back(loss.item());
  }
  return losses;
}

}  // namespace eva::rl
