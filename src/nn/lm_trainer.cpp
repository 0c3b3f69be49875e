#include "nn/lm_trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "circuit/pingraph.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eva::nn {

using namespace eva::tensor;

SequenceCorpus build_corpus(const data::Dataset& ds, const Tokenizer& tok,
                            int tours_per_topology, int max_seq, Rng& rng) {
  EVA_REQUIRE(tours_per_topology >= 1, "need at least one tour per topology");
  SequenceCorpus corpus;
  const auto split = ds.split();
  auto encode_one = [&](std::size_t idx) -> std::vector<int> {
    const auto tour = circuit::encode_tour(ds.entries()[idx].netlist, rng);
    return tok.encode_tour(tour);
  };
  for (std::size_t idx : split.train) {
    for (int t = 0; t < tours_per_topology; ++t) {
      auto ids = encode_one(idx);
      if (static_cast<int>(ids.size()) <= max_seq) {
        corpus.train.push_back(std::move(ids));
      }
    }
  }
  for (std::size_t idx : split.val) {
    auto ids = encode_one(idx);
    if (static_cast<int>(ids.size()) <= max_seq) {
      corpus.val.push_back(std::move(ids));
    }
  }
  EVA_REQUIRE(!corpus.train.empty(), "corpus has no training sequences");
  return corpus;
}

TokenBatch make_batch(const std::vector<const std::vector<int>*>& seqs,
                      int max_seq) {
  EVA_REQUIRE(!seqs.empty(), "empty batch");
  TokenBatch b;
  b.batch = static_cast<int>(seqs.size());
  std::size_t longest = 0;
  for (const auto* s : seqs) longest = std::max(longest, s->size());
  // Inputs drop the last token, targets drop the first: T = longest - 1.
  b.seq_len = static_cast<int>(
      std::min<std::size_t>(longest - 1, static_cast<std::size_t>(max_seq)));
  const auto T = static_cast<std::size_t>(b.seq_len);
  b.inputs.assign(static_cast<std::size_t>(b.batch) * T, Tokenizer::kPad);
  b.targets.assign(static_cast<std::size_t>(b.batch) * T, -1);
  for (std::size_t r = 0; r < seqs.size(); ++r) {
    const auto& s = *seqs[r];
    const std::size_t n = std::min(s.size() - 1, T);
    for (std::size_t t = 0; t < n; ++t) {
      b.inputs[r * T + t] = s[t];
      b.targets[r * T + t] = s[t + 1];
    }
  }
  return b;
}

double eval_lm_loss(const TransformerLM& model,
                    const std::vector<std::vector<int>>& seqs, int batch) {
  if (seqs.empty()) return 0.0;
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t start = 0; start < seqs.size();
       start += static_cast<std::size_t>(batch)) {
    std::vector<const std::vector<int>*> ptrs;
    for (std::size_t i = start;
         i < std::min(seqs.size(), start + static_cast<std::size_t>(batch));
         ++i) {
      ptrs.push_back(&seqs[i]);
    }
    const TokenBatch b = make_batch(ptrs, model.config().max_seq);
    Tensor logits = model.forward(b.inputs, b.batch, b.seq_len,
                                  /*training=*/false);
    Tensor loss = cross_entropy(logits, b.targets, -1);
    total += loss.item() * static_cast<double>(ptrs.size());
    count += ptrs.size();
  }
  return total / static_cast<double>(count);
}

namespace {

// The LR schedule is a pure function of the step index, so a resumed run
// recomputes exactly the schedule the original run would have applied.
float schedule_lr(const PretrainConfig& cfg, int step) {
  if (step < cfg.warmup) {
    return cfg.lr * static_cast<float>(step + 1) /
           static_cast<float>(cfg.warmup);
  }
  if (cfg.steps > cfg.warmup) {
    const float t = static_cast<float>(step - cfg.warmup) /
                    static_cast<float>(cfg.steps - cfg.warmup);
    const float floor_lr = cfg.lr * cfg.lr_min_frac;
    return floor_lr + 0.5f * (cfg.lr - floor_lr) *
                          (1.0f + std::cos(3.14159265f * t));
  }
  return cfg.lr;
}

std::uint64_t pretrain_fingerprint(const TransformerLM& model,
                                   const PretrainConfig& cfg) {
  const auto& mc = model.config();
  train::Fingerprint fp;
  fp.mix(mc.vocab).mix(mc.d_model).mix(mc.n_layers).mix(mc.n_heads)
      .mix(mc.d_ff).mix(mc.max_seq).mix(mc.dropout);
  fp.mix(cfg.steps).mix(cfg.batch).mix(cfg.lr).mix(cfg.lr_min_frac)
      .mix(cfg.warmup).mix(cfg.clip).mix(cfg.weight_decay)
      .mix(cfg.seed);
  return fp.value();
}

}  // namespace

PretrainResult pretrain(TransformerLM& model, const SequenceCorpus& corpus,
                        const PretrainConfig& cfg,
                        const std::function<void(int, double)>& on_step) {
  Rng rng(cfg.seed);
  auto params = model.parameters();
  AdamW opt(params, {.lr = cfg.lr, .weight_decay = cfg.weight_decay});

  static obs::Counter& steps_c = obs::counter("pretrain.steps");
  static obs::Counter& tokens_c = obs::counter("pretrain.tokens");
  static obs::Histogram& loss_h = obs::histogram("pretrain.loss");
  static obs::Histogram& gnorm_h = obs::histogram("pretrain.grad_norm");
  // tokens/s over a sliding window of log_every steps (the whole run when
  // log_every exceeds it), so warmup steps do not dilute the figure.
  auto window_t0 = std::chrono::steady_clock::now();
  std::int64_t window_tokens = 0;

  train::Run run("pretrain", {params, &opt, &rng}, cfg.steps, cfg.run,
                 cfg.sentinel, pretrain_fingerprint(model, cfg));
  PretrainResult result;
  result.start_step = run.step();

  result.losses.reserve(static_cast<std::size_t>(cfg.steps));
  for (int step = result.start_step; step < cfg.steps; ++step) {
    obs::Span step_span("pretrain.step");
    // LR schedule: linear warmup then cosine decay to lr_min_frac * lr,
    // scaled down while the divergence sentinel is backing off.
    const float lr = schedule_lr(cfg, step) * run.lr_scale();
    opt.set_lr(lr);

    std::vector<const std::vector<int>*> ptrs;
    ptrs.reserve(static_cast<std::size_t>(cfg.batch));
    for (int i = 0; i < cfg.batch; ++i) {
      ptrs.push_back(&corpus.train[rng.index(corpus.train.size())]);
    }
    const TokenBatch b = make_batch(ptrs, model.config().max_seq);

    opt.zero_grad();
    Rng drop_rng = rng.fork();
    Tensor logits =
        model.forward(b.inputs, b.batch, b.seq_len, true, &drop_rng);
    Tensor loss = cross_entropy(logits, b.targets, -1);
    loss.backward();
    const double grad_norm = run.clip(params, cfg.clip);

    const auto verdict = run.judge(loss.item(), grad_norm);
    if (verdict == train::Verdict::kRewind) {
      result.losses.resize(run.progress(0));
      step = run.step() - 1;  // ++ resumes at the restored step
      continue;
    }
    if (verdict == train::Verdict::kAbort) {
      result.interrupted = true;
      break;
    }
    if (verdict == train::Verdict::kStep) {
      opt.step();

      const std::int64_t step_tokens =
          static_cast<std::int64_t>(b.batch) * b.seq_len;
      steps_c.add();
      tokens_c.add(step_tokens);
      window_tokens += step_tokens;
      loss_h.record(loss.item());
      gnorm_h.record(grad_norm);

      result.losses.push_back(loss.item());
      if (step % cfg.log_every == 0 || step + 1 == cfg.steps) {
        const auto now = std::chrono::steady_clock::now();
        const double dt =
            std::chrono::duration<double>(now - window_t0).count();
        const double tok_s =
            dt > 0 ? static_cast<double>(window_tokens) / dt : 0;
        obs::gauge("pretrain.loss").set(loss.item());
        obs::gauge("pretrain.tokens_per_sec").set(tok_s);
        if (on_step) {
          on_step(step, loss.item());
        } else {
          obs::log_info("pretrain.step", {{"step", step},
                                          {"loss", loss.item()},
                                          {"grad_norm", grad_norm},
                                          {"tok_s", tok_s},
                                          {"lr", lr}});
        }
        window_t0 = now;
        window_tokens = 0;
      }
    }
    if (run.finish(step + 1, {result.losses.size()})) {
      result.interrupted = true;
      break;
    }
  }
  result.end_step = run.step();
  if (!result.interrupted) {
    result.final_val_loss = eval_lm_loss(model, corpus.val, cfg.batch);
    obs::log_info("pretrain.done",
                  {{"steps", cfg.steps}, {"val_loss", result.final_val_loss}});
  }
  obs::export_now();
  return result;
}

}  // namespace eva::nn
