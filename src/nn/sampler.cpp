#include "nn/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <span>

#include "nn/walk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eva::nn {

namespace {

/// Sample from logits with temperature and optional top-k; returns the
/// token id and its log-probability under the *sampling* distribution.
/// `scratch` is caller-owned top-k workspace reused across the whole
/// sampled sequence (one allocation per sequence instead of one V-sized
/// vector per token).
std::pair<int, float> sample_from_logits(std::span<float> logits, Rng& rng,
                                         float temperature, int top_k,
                                         std::vector<float>& scratch) {
  const int V = static_cast<int>(logits.size());
  const float invt = 1.0f / std::max(temperature, 1e-4f);
  for (auto& l : logits) l *= invt;

  if (top_k > 0 && top_k < V) {
    // Mask everything below the k-th largest logit. nth_element runs on
    // the scratch copy so the original order survives for masking.
    scratch.assign(logits.begin(), logits.end());
    std::nth_element(scratch.begin(), scratch.begin() + (top_k - 1),
                     scratch.end(), std::greater<float>());
    const float kth = scratch[static_cast<std::size_t>(top_k - 1)];
    for (auto& l : logits) {
      if (l < kth) l = -1e30f;
    }
  }

  float mx = -1e30f;
  for (float l : logits) mx = std::max(mx, l);
  double z = 0.0;
  for (float l : logits) z += std::exp(static_cast<double>(l - mx));
  const double u = rng.uniform() * z;
  double acc = 0.0;
  int pick = V - 1;
  for (int i = 0; i < V; ++i) {
    acc += std::exp(static_cast<double>(logits[static_cast<std::size_t>(i)] - mx));
    if (acc >= u) {
      pick = i;
      break;
    }
  }
  const float logp = static_cast<float>(
      static_cast<double>(logits[static_cast<std::size_t>(pick)] - mx) -
      std::log(z));
  return {pick, logp};
}

/// Decode-time state of one in-flight sequence (BatchedDecoder keeps one
/// per slot): the per-step sampling decision logic.
struct SeqState {
  /// `scratch` is the caller-owned top-k workspace; BatchedDecoder hands
  /// each slot its own buffer, reused across every sequence that passes
  /// through that slot (continuous batching never re-allocates it).
  SeqState(const Tokenizer& tok, const SampleOptions& opts, Rng* rng_in,
           int max_len_in, int seq_in, std::vector<float>* scratch)
      : legality(tok), topk_scratch(scratch), rng(rng_in), max_len(max_len_in),
        seq(seq_in) {
    token = tok.start_token();
    res.ids.push_back(token);
    if (opts.legality_mask) legality.on_token(token);
  }

  /// Consume this step's next-token logits; returns true when the
  /// sequence is finished (EOS, malformed pad, or length cap).
  bool advance(std::span<float> logits, const Tokenizer& tok,
               const SampleOptions& opts, int soft_len) {
    int next = 0;
    float logp = 0.0f;
    const bool must_close =
        opts.legality_mask &&
        legality.closure_cost() + 6 >= std::min(soft_len, max_len) - t;
    if (must_close) {
      // Budget exhausted: walk the deterministic closure (finish open
      // device cycles, return to VSS, stop).
      next = legality.forced_closing_token(
          tok.start_token(), tok.encode_io(circuit::IoPin::Vdd));
    } else if (opts.legality_mask) {
      legality.mask(logits, tok.start_token());
      const int vdd = tok.encode_io(circuit::IoPin::Vdd);
      // Rejection loop: resample when the candidate would short the
      // supply rails. (After the first draw, logits are already
      // temperature-scaled and top-k-masked, so retries use T=1.)
      for (int tries = 0; tries < 8; ++tries) {
        const auto pick = sample_from_logits(
            logits, *rng, tries == 0 ? opts.temperature : 1.0f,
            tries == 0 ? opts.top_k : 0, *topk_scratch);
        next = pick.first;
        logp = pick.second;
        if (!legality.illegal_transition(next, tok.start_token(), vdd)) break;
        logits[static_cast<std::size_t>(next)] = -1e30f;
      }
    } else {
      const auto pick = sample_from_logits(logits, *rng, opts.temperature,
                                           opts.top_k, *topk_scratch);
      next = pick.first;
      logp = pick.second;
    }
    ++t;
    ++steps;
    if (next == Tokenizer::kEos) {
      res.logprobs.push_back(logp);
      res.hit_eos = true;
      return true;
    }
    if (next == Tokenizer::kPad) {
      // Pad mid-sequence: a malformed ending. Not an accepted action, so
      // no logprob entry (SampleResult invariant).
      return true;
    }
    res.logprobs.push_back(logp);
    res.ids.push_back(next);
    if (opts.legality_mask) legality.on_token(next);
    token = next;
    return t >= max_len;
  }

  SampleResult res;
  WalkLegality legality;
  std::vector<float>* topk_scratch;
  Rng* rng;
  int token = 0;
  int t = 1;        // next decode-step index
  int steps = 0;    // transformer forwards consumed (== final KV length)
  int max_len;
  int seq;          // request index (result position)
};

int resolve_max_len(const TransformerLM& model, const SampleOptions& opts) {
  return opts.max_len > 0 ? std::min(opts.max_len, model.config().max_seq)
                          : model.config().max_seq;
}

/// Soft budget: begin guided closure around typical dataset tour lengths
/// rather than letting an unsure model wander to the hard cap.
int resolve_soft_len(int max_len) { return std::max(48, (max_len * 3) / 4); }

void record_finished_sequence(const SeqState& st) {
  static obs::Counter& seqs_c = obs::counter("sampler.sequences");
  static obs::Counter& toks_c = obs::counter("sampler.tokens");
  static obs::Histogram& len_h = obs::histogram("sampler.seq_len");
  static obs::Histogram& kv_h = obs::histogram("sampler.kv_cache_len");
  seqs_c.add();
  toks_c.add(static_cast<std::int64_t>(st.res.logprobs.size()));
  len_h.record(static_cast<double>(st.res.ids.size()));
  kv_h.record(static_cast<double>(st.steps));
}

}  // namespace

BatchedDecoder::BatchedDecoder(const TransformerLM& model, const Tokenizer& tok,
                               int batch_width, SampleOptions opts)
    : model_(&model),
      tok_(&tok),
      opts_(opts),
      width_(std::max(1, batch_width)),
      cache_(model.make_batched_cache(std::max(1, batch_width))),
      slot_scratch_(static_cast<std::size_t>(std::max(1, batch_width))) {}

std::vector<SampleResult> BatchedDecoder::decode(Rng& rng, int n) {
  static obs::Counter& steps_c = obs::counter("sampler.decode_steps");
  static obs::Histogram& occ_h = obs::histogram("sampler.batch_occupancy");
  obs::Span span("sampler.batched_decode");
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<SampleResult> out(static_cast<std::size_t>(std::max(n, 0)));
  if (n <= 0) return out;

  // Per-sequence RNG streams, forked in request order, independent of
  // batch width.
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rngs.push_back(rng.fork());

  const int max_len = resolve_max_len(*model_, opts_);
  const int soft_len = resolve_soft_len(max_len);
  const int width = std::min(width_, n);

  std::vector<std::unique_ptr<SeqState>> slots(
      static_cast<std::size_t>(width));
  int next_seq = 0;
  int in_flight = 0;
  std::int64_t decoded_tokens = 0;
  std::int64_t steps = 0;
  double occupancy_sum = 0.0;

  auto finish = [&](SeqState& st) {
    record_finished_sequence(st);
    decoded_tokens += static_cast<std::int64_t>(st.res.logprobs.size());
    out[static_cast<std::size_t>(st.seq)] = std::move(st.res);
  };
  // Continuous batching: a freed slot is refilled from the pending queue
  // immediately, so the next decode step already includes the fresh
  // sequence at position 0 while its neighbours continue mid-stream.
  auto refill = [&](int s) {
    slots[static_cast<std::size_t>(s)].reset();
    while (next_seq < n) {
      cache_.reset_slot(s);
      auto st = std::make_unique<SeqState>(*tok_, opts_, &rngs[next_seq],
                                           max_len, next_seq,
                                           &slot_scratch_[static_cast<std::size_t>(s)]);
      ++next_seq;
      if (st->t >= max_len) {  // degenerate cap: nothing to decode
        finish(*st);
        continue;
      }
      slots[static_cast<std::size_t>(s)] = std::move(st);
      ++in_flight;
      break;
    }
  };
  for (int s = 0; s < width; ++s) refill(s);

  auto& slot_ids = slot_ids_;
  auto& tokens = tokens_;
  auto& logits = logits_;
  const auto vocab = static_cast<std::size_t>(model_->config().vocab);
  while (in_flight > 0) {
    slot_ids.clear();
    tokens.clear();
    for (int s = 0; s < width; ++s) {
      if (slots[static_cast<std::size_t>(s)]) {
        slot_ids.push_back(s);
        tokens.push_back(slots[static_cast<std::size_t>(s)]->token);
      }
    }
    {
      obs::Span step_span("sampler.decode_step");
      model_->infer_step_batched(cache_, slot_ids, tokens, logits);
    }
    steps_c.add();
    ++steps;
    const double occ = static_cast<double>(slot_ids.size()) /
                       static_cast<double>(width_);
    occ_h.record(occ);
    occupancy_sum += occ;
    for (std::size_t row = 0; row < slot_ids.size(); ++row) {
      const int s = slot_ids[row];
      SeqState& st = *slots[static_cast<std::size_t>(s)];
      const std::span<float> row_logits(logits.data() + row * vocab, vocab);
      if (st.advance(row_logits, *tok_, opts_, soft_len)) {
        finish(st);
        --in_flight;
        refill(s);
      }
    }
  }

  if (steps > 0) {
    obs::gauge("sampler.batch_occupancy")
        .set(occupancy_sum / static_cast<double>(steps));
  }
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (dt > 0) {
    obs::gauge("sampler.tokens_per_sec")
        .set(static_cast<double>(decoded_tokens) / dt);
  }
  stats_.sequences = n;
  stats_.tokens = decoded_tokens;
  stats_.steps = steps;
  stats_.occupancy =
      steps > 0 ? occupancy_sum / static_cast<double>(steps) : 0.0;
  stats_.duration_ms = dt * 1e3;
  return out;
}

std::vector<SampleResult> sample_batch(const TransformerLM& model,
                                       const Tokenizer& tok, Rng& rng, int n,
                                       const SampleOptions& opts) {
  BatchedDecoder decoder(model, tok, std::max(1, std::min(n, 8)), opts);
  return decoder.decode(rng, n);
}

NetlistDecode ids_to_netlist_checked(const Tokenizer& tok,
                                     const std::vector<int>& ids) {
  NetlistDecode out;
  // Bounds-check every id BEFORE any decode-table lookup: wire-protocol
  // and checkpoint inputs are untrusted, and tok.decode() treats an
  // out-of-range id as a thrown requirement failure we'd rather report
  // as data.
  std::vector<circuit::PinToken> tour;
  tour.reserve(ids.size());
  const int vocab = tok.vocab_size();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    if (id < 0 || id >= vocab) {
      out.fail = NetlistDecode::Fail::kTokenOutOfRange;
      out.message = "token id " + std::to_string(id) + " at position " +
                    std::to_string(i) + " outside vocab [0, " +
                    std::to_string(vocab) + ")";
      return out;
    }
    if (id == Tokenizer::kEos || id == Tokenizer::kPad) break;
    tour.push_back(tok.decode(id));
  }
  if (tour.empty()) {
    out.fail = NetlistDecode::Fail::kEmpty;
    out.message = "no pin tokens before EOS/pad";
    return out;
  }
  auto res = circuit::decode_tour(tour);
  if (!res.ok) {
    out.fail = NetlistDecode::Fail::kBadStructure;
    out.message = res.error;
    return out;
  }
  out.netlist = std::move(res.netlist);
  return out;
}

std::optional<circuit::Netlist> ids_to_netlist(const Tokenizer& tok,
                                               const std::vector<int>& ids) {
  auto res = ids_to_netlist_checked(tok, ids);
  if (!res.ok()) return std::nullopt;
  return std::move(res.netlist);
}

}  // namespace eva::nn
