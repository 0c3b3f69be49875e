// Reference for nn::WalkLegality (src/nn/walk.hpp): the map-and-set
// implementation the flat, token-indexed one replaced, kept verbatim
// below the namespace line. tests/test_walk.cpp drives both with the same
// calls and requires every answer to match (DESIGN.md §7, "Walk state").
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "circuit/pingraph.hpp"
#include "nn/tokenizer.hpp"

namespace eva::nn::reference {

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

}  // namespace eva::nn::reference
