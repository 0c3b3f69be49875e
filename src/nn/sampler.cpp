#include "nn/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>

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

/// Euler-walk legality bookkeeping for constrained sampling. Tracks, per
/// mentioned device instance, the multiset of its not-yet-consumed
/// device-cycle edges (the same arithmetic circuit::decode_tour applies
/// at the end, just maintained greedily along the walk).
class WalkLegality {
 public:
  explicit WalkLegality(const Tokenizer& tok) : tok_(&tok) {}

  /// Record a transition to token id `cur` (non-special).
  void on_token(int cur) {
    const circuit::PinToken t = tok_->decode(cur);
    if (!t.is_io) touch_device(t.kind, t.index);
    if (prev_ >= 0) {
      const circuit::PinToken p = tok_->decode(prev_);
      bool consumed_cycle_edge = false;
      if (!p.is_io && !t.is_io && p.kind == t.kind && p.index == t.index) {
        auto& rem = remaining_[key(t.kind, t.index)];
        const auto e = edge_key(p.pin, t.pin);
        const auto it = rem.find(e);
        if (it != rem.end() && it->second > 0) {
          --it->second;
          consumed_cycle_edge = true;
        }
      }
      // Leftover (net) edges define electrical components of the walk.
      if (!consumed_cycle_edge) {
        unite(prev_, cur);
        ++net_deg_[prev_];
        ++net_deg_[cur];
        if (!p.is_io && !t.is_io && p.kind == t.kind &&
            p.index == t.index) {
          // Record the (single allowed) same-device net-edge pin pair.
          net_pair_.emplace(key(t.kind, t.index), edge_key(p.pin, t.pin));
        }
      }
    }
    prev_ = cur;
  }

  /// Device pins mentioned in the walk that have no net edge yet (they
  /// would decode as floating). Excludes the current position.
  [[nodiscard]] std::vector<int> floating_pins() const {
    std::vector<int> out;
    for (const auto& [k, rem] : remaining_) {
      (void)rem;
      const auto kind = static_cast<circuit::DeviceKind>(k >> 32);
      const int index = static_cast<int>(k & 0xFFFFFFFF);
      for (int p = 0; p < pin_count(kind); ++p) {
        const int id = tok_->encode(circuit::dev_token(kind, index, p));
        if (id == prev_) continue;
        const auto it = net_deg_.find(id);
        if (it == net_deg_.end() || it->second == 0) out.push_back(id);
      }
    }
    return out;
  }

  /// True if adding a net edge prev->target would connect the VDD and VSS
  /// components (a supply short in the decoded netlist).
  [[nodiscard]] bool hop_shorts_supplies(int target, int vss_tok,
                                         int vdd_tok) {
    if (prev_ < 0) return false;
    const int a = find(prev_);
    const int b = find(target);
    if (a == b) return false;
    const int vss = find(vss_tok);
    const int vdd = find(vdd_tok);
    return (a == vss && b == vdd) || (a == vdd && b == vss);
  }

  /// True if emitting `cand` next would create a supply short. A
  /// transition that consumes a device-cycle edge is never a net edge and
  /// cannot short anything.
  [[nodiscard]] bool would_short(int cand, int vss_tok, int vdd_tok) {
    if (cand == Tokenizer::kEos || cand == Tokenizer::kPad || prev_ < 0) {
      return false;
    }
    const circuit::PinToken t = tok_->decode(cand);
    const circuit::PinToken p = tok_->decode(prev_);
    if (!p.is_io && !t.is_io && p.kind == t.kind && p.index == t.index) {
      const auto it = remaining_.find(key(t.kind, t.index));
      if (it != remaining_.end()) {
        const auto eit = it->second.find(edge_key(p.pin, t.pin));
        if (eit != it->second.end() && eit->second > 0) return false;
      }
    }
    return hop_shorts_supplies(cand, vss_tok, vdd_tok);
  }

  /// Combined transition legality for sampled tokens: no supply shorts,
  /// and at most one distinct same-device net-edge pin pair per device
  /// (a diode connection); more would mean the model is re-walking a
  /// consumed device cycle, which decodes as all pins shorted together.
  [[nodiscard]] bool illegal_transition(int cand, int vss_tok, int vdd_tok) {
    if (would_short(cand, vss_tok, vdd_tok)) return true;
    if (cand == Tokenizer::kEos || cand == Tokenizer::kPad || prev_ < 0) {
      return false;
    }
    const circuit::PinToken t = tok_->decode(cand);
    const circuit::PinToken p = tok_->decode(prev_);
    const bool same_device =
        !p.is_io && !t.is_io && p.kind == t.kind && p.index == t.index;
    if (same_device) {
      // Fine if it consumes a cycle edge (not a net edge at all).
      const auto it = remaining_.find(key(t.kind, t.index));
      if (it != remaining_.end()) {
        const auto eit = it->second.find(edge_key(p.pin, t.pin));
        if (eit != it->second.end() && eit->second > 0) return false;
      }
      // Only one distinct same-device net pair (a diode connection).
      const auto np = net_pair_.find(key(t.kind, t.index));
      if (np != net_pair_.end() && np->second != edge_key(p.pin, t.pin)) {
        return true;
      }
    }
    // Transitive device shorting: the merged component must not hold 3+
    // pins of any single device.
    return max_same_device_pins_after(cand) >= 3;
  }

  [[nodiscard]] bool all_cycles_complete() const {
    for (const auto& [k, rem] : remaining_) {
      (void)k;
      for (const auto& [e, c] : rem) {
        (void)e;
        if (c > 0) return false;
      }
    }
    return true;
  }

  /// Apply the mask to next-token logits.
  void mask(std::span<float> logits, int start_token) const {
    logits[Tokenizer::kPad] = -1e30f;
    if (prev_ >= 0) logits[static_cast<std::size_t>(prev_)] = -1e30f;
    const bool at_vss = prev_ == start_token;
    if (!(at_vss && all_cycles_complete())) {
      logits[Tokenizer::kEos] = -1e30f;
    }
  }

  /// Tokens needed to force-close the walk from here: finish every open
  /// device cycle (edges + a jump per open device), sweep floating pins,
  /// and return to VSS.
  [[nodiscard]] int closure_cost() const {
    int cost = 2;  // ... VSS <EOS>
    for (const auto& [k, rem] : remaining_) {
      (void)k;
      int open = 0;
      for (const auto& [e, c] : rem) {
        (void)e;
        open += c;
      }
      if (open > 0) cost += open + 2;
    }
    cost += static_cast<int>(floating_pins().size());
    return cost;
  }

  /// Closure policy: the forced next token when the budget runs out.
  /// Order: continue an open cycle at the current pin; else hop to a pin
  /// of some open device (preferring hops that cannot short the supplies
  /// and, for the last open device, landing on the VSS component so the
  /// tour can end cleanly); else return to VSS; else EOS.
  [[nodiscard]] int forced_closing_token(int start_token, int vdd_token) {
    // 1. Open cycle edge incident to the current pin.
    if (prev_ >= 0) {
      const circuit::PinToken p = tok_->decode(prev_);
      if (!p.is_io) {
        const auto it = remaining_.find(key(p.kind, p.index));
        if (it != remaining_.end()) {
          for (const auto& [e, c] : it->second) {
            if (c <= 0) continue;
            const int a = e / 16;
            const int b = e % 16;
            if (a == p.pin || b == p.pin) {
              const int other = (a == p.pin) ? b : a;
              return tok_->encode(
                  circuit::dev_token(p.kind, p.index, other));
            }
          }
        }
      }
    }
    // 1b. Wire in missing mandatory IO pins (VOUT, then VDD) so the
    // decoded netlist has an output and both rails: the hop names the
    // current component as that IO's net.
    {
      const int vout = tok_->encode(
          circuit::io_token(circuit::IoPin::Vout1));
      if (!counted_.count(vout) && prev_ != vout) return vout;
      if (!counted_.count(vdd_token) && prev_ != vdd_token &&
          !hop_shorts_supplies(vdd_token, start_token, vdd_token)) {
        return vdd_token;
      }
    }
    // 2. Hop onto an open device: score candidate entry pins.
    int open_devices = 0;
    for (const auto& [k, rem] : remaining_) {
      (void)k;
      for (const auto& [e, c] : rem) {
        (void)e;
        if (c > 0) {
          ++open_devices;
          break;
        }
      }
    }
    int best = -1;
    int best_score = -1;
    for (const auto& [k, rem] : remaining_) {
      for (const auto& [e, c] : rem) {
        if (c <= 0) continue;
        const auto kind = static_cast<circuit::DeviceKind>(k >> 32);
        const int index = static_cast<int>(k & 0xFFFFFFFF);
        for (const int pin : {e / 16, e % 16}) {
          const int id = tok_->encode(circuit::dev_token(kind, index, pin));
          if (id == prev_) continue;
          int score = 0;
          if (!hop_shorts_supplies(id, start_token, vdd_token)) score += 4;
          // Ending the last cycle on the VSS component lets the final
          // VSS hop stay inside one net.
          if (open_devices == 1 && find(id) == find(start_token)) score += 2;
          if (score > best_score) {
            best_score = score;
            best = id;
          }
        }
      }
      if (best >= 0 && best_score >= 6) break;
    }
    if (best >= 0) return best;
    // 3. Sweep floating pins into a net chain ending at VSS.
    const auto floats = floating_pins();
    for (int f : floats) {
      if (f != prev_) return f;
    }
    // 4. Close the tour.
    if (prev_ != start_token) return start_token;
    return Tokenizer::kEos;
  }

 private:
  static std::uint64_t key(circuit::DeviceKind k, int index) {
    return (static_cast<std::uint64_t>(k) << 32) |
           static_cast<std::uint64_t>(index);
  }
  static int edge_key(int a, int b) {
    if (a > b) std::swap(a, b);
    return a * 16 + b;
  }

  int find(int token) {
    auto it = parent_.find(token);
    if (it == parent_.end()) {
      parent_[token] = token;
      return token;
    }
    int root = token;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[token] != root) {
      const int next = parent_[token];
      parent_[token] = root;
      token = next;
    }
    return root;
  }

  /// Count a device pin toward its component's per-device pin tally.
  void count_pin(int token) {
    if (counted_.count(token)) return;
    counted_.insert(token);
    const circuit::PinToken t = tok_->decode(token);
    if (t.is_io) return;
    ++dev_count_[find(token)][key(t.kind, t.index)];
  }

  void unite(int a, int b) {
    count_pin(a);
    count_pin(b);
    const int ra = find(a);
    const int rb = find(b);
    if (ra == rb) return;
    parent_[ra] = rb;
    for (const auto& [k, c] : dev_count_[ra]) dev_count_[rb][k] += c;
    dev_count_.erase(ra);
  }

  /// Pins of one device that would share a component after adding the
  /// net edge prev->cand (>= 3 decodes as a mostly-shorted device).
  [[nodiscard]] int max_same_device_pins_after(int cand) {
    if (prev_ < 0) return 0;
    count_pin(prev_);
    const int ra = find(prev_);
    const circuit::PinToken t = tok_->decode(cand);
    const int rb = counted_.count(cand) ? find(cand) : -1;
    int worst = 0;
    auto tally = [&](std::uint64_t k) {
      int c = 0;
      const auto ita = dev_count_.find(ra);
      if (ita != dev_count_.end()) {
        const auto it = ita->second.find(k);
        if (it != ita->second.end()) c += it->second;
      }
      if (rb >= 0 && rb != ra) {
        const auto itb = dev_count_.find(rb);
        if (itb != dev_count_.end()) {
          const auto it = itb->second.find(k);
          if (it != itb->second.end()) c += it->second;
        }
      }
      return c;
    };
    // Keys present on either side of the merge.
    for (const int root : {ra, rb}) {
      if (root < 0) continue;
      const auto itr = dev_count_.find(root);
      if (itr == dev_count_.end()) continue;
      for (const auto& [k, c] : itr->second) {
        (void)c;
        worst = std::max(worst, tally(k));
      }
    }
    // The candidate pin itself joins the merged component.
    if (!t.is_io && !counted_.count(cand)) {
      worst = std::max(worst, tally(key(t.kind, t.index)) + 1);
    }
    return worst;
  }

  void touch_device(circuit::DeviceKind kind, int index) {
    const auto k = key(kind, index);
    if (remaining_.count(k)) return;
    auto& rem = remaining_[k];
    const int n = pin_count(kind);
    if (n == 2) {
      rem[edge_key(0, 1)] = 2;
    } else {
      for (int p = 0; p < n; ++p) ++rem[edge_key(p, (p + 1) % n)];
    }
  }

  const Tokenizer* tok_;
  int prev_ = -1;
  std::map<std::uint64_t, std::map<int, int>> remaining_;
  std::map<int, int> parent_;  // union-find over packed token ids
  std::map<std::uint64_t, int> net_pair_;  // device -> allowed net pin pair
  std::map<int, int> net_deg_;  // token -> number of incident net edges
  std::set<int> counted_;       // tokens already tallied into dev_count_
  std::map<int, std::map<std::uint64_t, int>> dev_count_;  // root -> dev -> #pins
};

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
  BatchedDecoder decoder(model, tok, std::max(1, std::min(opts.batch_width, n)),
                         opts);
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
