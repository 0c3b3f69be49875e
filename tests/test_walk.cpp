// Walk-state equivalence suite (DESIGN.md §7 "Walk state"). The flat,
// token-indexed nn::WalkLegality must answer every query exactly as the
// map-and-set implementation it replaced (tests/walk_reference.hpp) and
// leave the same state behind. Both are driven with the same calls in the
// same order over:
//   * every corpus tour of a seeded dataset, several tours per topology,
//     teacher-forced token by token, with the tour's next token, the
//     current device's pins and random tokens probed as candidates;
//   * thousands of random walks that sample like the decoder (mask, then
//     redraw illegal picks) until the length budget runs out and the
//     forced closure takes over to the end.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/pingraph.hpp"
#include "data/dataset.hpp"
#include "nn/tokenizer.hpp"
#include "nn/walk.hpp"
#include "util/rng.hpp"
#include "walk_reference.hpp"

namespace {

using namespace eva;
using namespace eva::nn;

/// The flat state and the reference under identical calls. Each query
/// goes to both, in the same order, and a disagreement is counted and
/// the first one described.
class Lockstep {
 public:
  Lockstep(const Tokenizer& tok, std::string* first_diff,
           std::int64_t* queries, std::int64_t* diffs)
      : tok_(&tok),
        flat_(tok),
        ref_(tok),
        vss_(tok.start_token()),
        vdd_(tok.encode_io(circuit::IoPin::Vdd)),
        first_diff_(first_diff),
        queries_(queries),
        diffs_(diffs) {}

  void on_token(int id) {
    flat_.on_token(id);
    ref_.on_token(id);
    walk_ += " " + tok_->name(id);
  }

  int closure_cost() {
    const int a = flat_.closure_cost();
    check(a == ref_.closure_cost(), "closure_cost");
    return a;
  }
  void all_cycles_complete() {
    check(flat_.all_cycles_complete() == ref_.all_cycles_complete(),
          "all_cycles_complete");
  }
  void floating_pins() {
    check(flat_.floating_pins() == ref_.floating_pins(), "floating_pins");
  }
  /// Masked logits (0 where allowed, -1e30 where banned).
  std::vector<float> mask() {
    const auto v = static_cast<std::size_t>(tok_->vocab_size());
    std::vector<float> a(v, 0.0f), b(v, 0.0f);
    flat_.mask(a, vss_);
    ref_.mask(b, vss_);
    check(a == b, "mask");
    return a;
  }
  bool illegal_transition(int cand) {
    const bool a = flat_.illegal_transition(cand, vss_, vdd_);
    check(a == ref_.illegal_transition(cand, vss_, vdd_),
          "illegal_transition", cand);
    return a;
  }
  int forced_closing_token() {
    const int a = flat_.forced_closing_token(vss_, vdd_);
    check(a == ref_.forced_closing_token(vss_, vdd_), "forced_closing_token");
    return a;
  }

  /// The state queries that take no candidate.
  void state_queries() {
    closure_cost();
    all_cycles_complete();
    floating_pins();
  }

 private:
  void check(bool same, const char* query, int cand = -1) {
    ++*queries_;
    if (same) return;
    if (++*diffs_ > 1) return;
    std::ostringstream os;
    os << query;
    if (cand >= 0) os << "(" << tok_->name(cand) << ")";
    os << " differs after:" << walk_;
    *first_diff_ = os.str();
  }

  const Tokenizer* tok_;
  WalkLegality flat_;
  reference::WalkLegality ref_;
  int vss_, vdd_;
  std::string walk_;
  std::string* first_diff_;
  std::int64_t* queries_;
  std::int64_t* diffs_;
};

class WalkEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig cfg;
    cfg.per_type = 12;
    cfg.seed = 24;
    dataset_ = new data::Dataset(data::Dataset::build(cfg));
    tok_ = new Tokenizer(Tokenizer::from_dataset(*dataset_));
  }
  static void TearDownTestSuite() {
    delete tok_;
    delete dataset_;
  }

  Lockstep lockstep() {
    return Lockstep(*tok_, &first_diff_, &queries_, &diffs_);
  }

  static data::Dataset* dataset_;
  static Tokenizer* tok_;
  std::string first_diff_;
  std::int64_t queries_ = 0;
  std::int64_t diffs_ = 0;
};

data::Dataset* WalkEquivalence::dataset_ = nullptr;
Tokenizer* WalkEquivalence::tok_ = nullptr;

TEST_F(WalkEquivalence, CorpusToursTeacherForced) {
  constexpr int kToursPerTopology = 4;
  constexpr int kRandomCandidates = 24;
  const Tokenizer& tok = *tok_;
  Rng rng(2401);
  int tours = 0;
  for (const auto& entry : dataset_->entries()) {
    for (int r = 0; r < kToursPerTopology; ++r, ++tours) {
      const auto ids =
          tok.encode_tour(circuit::encode_tour(entry.netlist, rng));
      Lockstep s = lockstep();
      s.on_token(ids.front());
      for (std::size_t i = 1; i < ids.size(); ++i) {
        s.state_queries();
        (void)s.mask();
        (void)s.forced_closing_token();
        // Candidates: the tour's next token, every pin of the current
        // device, and a random draw from the whole vocabulary.
        std::vector<int> cands{ids[i]};
        const circuit::PinToken p = tok.decode(ids[i - 1]);
        for (int pin = 0; !p.is_io && pin < circuit::pin_count(p.kind); ++pin) {
          cands.push_back(tok.encode(circuit::dev_token(p.kind, p.index, pin)));
        }
        for (int k = 0; k < kRandomCandidates; ++k) {
          cands.push_back(rng.range(0, tok.vocab_size() - 1));
        }
        for (const int cand : cands) (void)s.illegal_transition(cand);
        if (ids[i] == Tokenizer::kEos) break;
        s.on_token(ids[i]);
      }
    }
  }
  EXPECT_EQ(diffs_, 0) << first_diff_;
  EXPECT_GE(tours, 500);
  RecordProperty("tours", tours);
  RecordProperty("queries", std::to_string(queries_));
}

TEST_F(WalkEquivalence, RandomWalksUntilForcedClosure) {
  constexpr int kForcedWalks = 4000;
  const Tokenizer& tok = *tok_;
  const int vocab = tok.vocab_size();
  Rng rng(2402);
  int walks = 0;
  int forced_walks = 0;
  while (forced_walks < kForcedWalks && walks < 2 * kForcedWalks) {
    ++walks;
    Lockstep s = lockstep();
    int prev = tok.start_token();
    s.on_token(prev);
    // The decoder's rule (SeqState::advance) with a short budget, so the
    // forced closure takes over after a few sampled tokens.
    const int budget = rng.range(12, 48);
    bool forced = false;
    for (int t = 1; t < budget + 96; ++t) {
      s.all_cycles_complete();
      s.floating_pins();
      int next = 0;
      if (s.closure_cost() + 6 >= budget - t) {
        forced = true;
        next = s.forced_closing_token();
      } else {
        auto logits = s.mask();
        // Redraw illegal picks up to 8 times and then keep the last one,
        // as the sampler does. Half the draws stay on the current device,
        // so cycle edges and same-device net pairs occur.
        const circuit::PinToken p = tok.decode(prev);
        next = -1;
        for (int tries = 0; tries < 8; ++tries) {
          int cand = rng.range(0, vocab - 1);
          if (!p.is_io && rng.chance(0.5)) {
            const int pin = rng.range(0, circuit::pin_count(p.kind) - 1);
            cand = tok.encode(circuit::dev_token(p.kind, p.index, pin));
          }
          if (logits[static_cast<std::size_t>(cand)] < 0.0f) continue;
          next = cand;
          if (!s.illegal_transition(next)) break;
          logits[static_cast<std::size_t>(next)] = -1e30f;
        }
        if (next < 0) continue;  // every draw was masked: step again
      }
      if (next == Tokenizer::kEos || next == Tokenizer::kPad) break;
      s.on_token(next);
      prev = next;
    }
    forced_walks += forced;
  }
  EXPECT_EQ(diffs_, 0) << first_diff_;
  EXPECT_GE(forced_walks, kForcedWalks);
  RecordProperty("walks", walks);
  RecordProperty("queries", std::to_string(queries_));
}

}  // namespace
