// Autoregressive topology sampling (generation phase, paper §III-B):
// start from the single context token VSS and sample until EOS.
//
// One engine decodes: BatchedDecoder steps up to B in-flight sequences
// through one batched transformer forward per token and refills
// finished slots from a pending queue (continuous batching).
// sample_batch is its one-shot entry point; single-sequence decode is
// width 1.
//
// See DESIGN.md "Batched KV-cache decoding" for the slot lifecycle and
// the determinism contract.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "circuit/pingraph.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"

namespace eva::nn {

struct SampleOptions {
  float temperature = 1.0f;
  int top_k = 0;        // 0 = full distribution
  int max_len = 0;      // 0 = model max_seq
  /// Walk-legality mask (WalkLegality, DESIGN.md §2 "Constrained
  /// decoding"): bans pad tokens and immediate self-loops, and gates EOS
  /// on "walk is back at VSS with every mentioned device's cycle
  /// complete". Sampled tokens are redrawn when they would short VDD to
  /// VSS, add a second same-device net pin pair, or leave one component
  /// holding 3+ pins of a device. When the length budget runs out, a
  /// forced closure finishes open device cycles, wires VOUT and VDD,
  /// sweeps floating pins and returns to VSS. Electrical validity beyond
  /// that (pins the closure cannot reach, DC solvability) stays up to
  /// the model and is what the Validity metric measures.
  bool legality_mask = true;
};

struct SampleResult {
  std::vector<int> ids;            // starts with VSS, excludes EOS
  /// log p (under the sampling distribution) of every *accepted action*,
  /// in order: one entry per generated token in `ids` (i.e. ids[1:],
  /// the start token is given, not sampled) plus, when `hit_eos`, one
  /// final entry for the EOS action itself. Invariant:
  ///     logprobs.size() == ids.size() - 1 + (hit_eos ? 1 : 0)
  /// This matches PPO's action sequence exactly (rollout tokens =
  /// ids + EOS-if-hit, one action per transition); a malformed ending
  /// (pad sampled mid-sequence) contributes no entry. Forced guided-
  /// closure tokens carry log p = 0 (they are deterministic, not drawn).
  std::vector<float> logprobs;
  bool hit_eos = false;
};

/// Sample `n` sequences through a BatchedDecoder of width min(n, 8).
/// Deterministic given the seed rng; sequence i consumes the i-th fork
/// of `rng`. Results never depend on the width, only throughput does.
[[nodiscard]] std::vector<SampleResult> sample_batch(
    const TransformerLM& model, const Tokenizer& tok, Rng& rng, int n,
    const SampleOptions& opts = {});

/// Continuous-batching decode engine. Holds a slotted KV cache
/// (TransformerLM::BatchedCache) that persists across decode() calls, so
/// long-lived owners (PPO rollouts, the Eva facade) allocate it once.
///
/// Determinism contract: sequence i is driven by the i-th fork of the
/// decode() rng and by logits rows that do not depend on which other
/// sequences share the step (see infer_step_batched), so the returned
/// results are identical for any batch width, at every model size.
class BatchedDecoder {
 public:
  BatchedDecoder(const TransformerLM& model, const Tokenizer& tok,
                 int batch_width, SampleOptions opts = {});

  [[nodiscard]] int batch_width() const { return width_; }

  /// Replace the sampling options for subsequent decode() calls (the
  /// serving layer overrides temperature per request on one persistent
  /// decoder). Batch width is fixed at construction: the slotted KV
  /// cache is sized by it.
  void set_options(const SampleOptions& opts) { opts_ = opts; }
  [[nodiscard]] const SampleOptions& options() const { return opts_; }

  /// Decode `n` sequences; out[i] is the i-th requested sequence
  /// regardless of slot scheduling.
  [[nodiscard]] std::vector<SampleResult> decode(Rng& rng, int n);

  /// Per-decode() accounting, refreshed by every decode() call. The
  /// serving layer reads this to attribute the decode stage of a request
  /// timeline (token count, batched forward steps, mean slot occupancy)
  /// without re-deriving it from the results.
  struct DecodeStats {
    std::int64_t sequences = 0;  // sequences produced by the last decode()
    std::int64_t tokens = 0;     // sampled actions (logprob-bearing tokens)
    std::int64_t steps = 0;      // batched transformer forwards
    double occupancy = 0.0;      // mean filled-slot fraction per step
    double duration_ms = 0.0;    // wall clock of the last decode()
  };
  [[nodiscard]] const DecodeStats& last_decode_stats() const {
    return stats_;
  }

 private:
  const TransformerLM* model_;
  const Tokenizer* tok_;
  SampleOptions opts_;
  int width_;
  TransformerLM::BatchedCache cache_;
  // Step scratch, reused across decode() calls (a long-lived decoder
  // serving many batches never re-allocates per step): the per-slot
  // top-k buffers handed to each in-flight sequence, and the step's
  // slot/token/logits staging.
  std::vector<std::vector<float>> slot_scratch_;
  std::vector<int> slot_ids_, tokens_;
  std::vector<float> logits_;
  DecodeStats stats_;
};

/// Typed outcome of decoding a sampled id sequence. Token sequences
/// arriving from outside the sampler (wire protocol, checkpoints, fuzz
/// inputs) are adversarial: every id is bounds-checked against the
/// tokenizer's vocabulary before any table lookup, and structural
/// problems surface as a kind + message instead of an assertion.
struct NetlistDecode {
  enum class Fail {
    kNone,             // decoded successfully, netlist is set
    kEmpty,            // no pin tokens before EOS/pad
    kTokenOutOfRange,  // id outside [0, vocab) — adversarial/truncated input
    kBadStructure,     // in-vocab tokens that do not form a decodable tour
  };
  Fail fail = Fail::kNone;
  std::string message;                     // empty when ok
  std::optional<circuit::Netlist> netlist; // set iff fail == kNone
  [[nodiscard]] bool ok() const { return fail == Fail::kNone; }
};

/// Hardened decode of a sampled id sequence into a netlist (the tour
/// must already be closed — no implicit return-to-VSS is appended).
/// Never throws and never aborts, whatever the input bytes.
[[nodiscard]] NetlistDecode ids_to_netlist_checked(
    const Tokenizer& tok, const std::vector<int>& ids);

/// Convenience wrapper over ids_to_netlist_checked: nullopt on any
/// failure, for callers that don't care why.
[[nodiscard]] std::optional<circuit::Netlist> ids_to_netlist(
    const Tokenizer& tok, const std::vector<int>& ids);

}  // namespace eva::nn
