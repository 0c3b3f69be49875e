#include "nn/walk.hpp"

#include <algorithm>
#include <numeric>

namespace eva::nn {

WalkLegality::WalkLegality(const Tokenizer& tok)
    : vout_(tok.encode_io(circuit::IoPin::Vout1)),
      tokens_(static_cast<std::size_t>(tok.vocab_size())),
      uf_(static_cast<std::size_t>(tok.vocab_size())) {
  for (int k = 0; k < circuit::kNumDeviceKinds; ++k) {
    const auto kind = static_cast<circuit::DeviceKind>(k);
    const int n = circuit::pin_count(kind);
    for (int index = 1; index <= tok.limits()[static_cast<std::size_t>(k)];
         ++index) {
      const int dev = tok.encode(circuit::dev_token(kind, index, 0));
      for (int p = 0; p < n; ++p) {
        Token& t = at(dev + p);
        t.dev = dev;
        t.pin = p;
        t.pins = n;
      }
    }
  }
  devs_.reserve(tokens_.size());  // never grows while decoding
}

void WalkLegality::on_token(int cur) {
  const int dev = at(cur).dev;
  if (dev >= 0) touch(dev);
  if (prev_ >= 0) {
    if (std::int8_t* left = cycle_edge(prev_, cur); left && *left > 0) {
      --*left;
    } else {
      // Leftover (net) edges define electrical components of the walk.
      at(prev_).counted = at(cur).counted = true;
      at(prev_).wired = at(cur).wired = true;
      uf_.unite(static_cast<std::size_t>(prev_), static_cast<std::size_t>(cur));
      // Record the (single allowed) same-device net-edge pin pair.
      if (left && at(dev).net_pair < 0) {
        at(dev).net_pair =
            static_cast<std::int8_t>(pair(at(prev_).pin, at(cur).pin));
      }
    }
  }
  prev_ = cur;
}

std::vector<int> WalkLegality::floating_pins() const {
  std::vector<int> out;
  for (const int dev : devs_) {
    for (int id = dev; id < dev + at(dev).pins; ++id) {
      if (floating(id)) out.push_back(id);
    }
  }
  return out;
}

bool WalkLegality::illegal_transition(int cand, int vss_tok, int vdd_tok) {
  if (cand == Tokenizer::kEos || cand == Tokenizer::kPad || prev_ < 0) {
    return false;
  }
  const std::int8_t* left = cycle_edge(prev_, cand);
  if (left && *left > 0) return false;  // not a net edge at all
  if (hop_shorts_supplies(cand, vss_tok, vdd_tok)) return true;
  // Only one distinct same-device net pair (a diode connection).
  const int np = left ? at(at(cand).dev).net_pair : -1;
  if (np >= 0 && np != pair(at(prev_).pin, at(cand).pin)) return true;
  // Transitive device shorting: the merged component must not hold 3+
  // pins of any single device.
  return max_same_device_pins_after(cand) >= 3;
}

bool WalkLegality::all_cycles_complete() const {
  return std::all_of(devs_.begin(), devs_.end(),
                     [this](int dev) { return open_edges(dev) == 0; });
}

void WalkLegality::mask(std::span<float> logits, int start_token) const {
  logits[Tokenizer::kPad] = -1e30f;
  if (prev_ >= 0) logits[static_cast<std::size_t>(prev_)] = -1e30f;
  if (!(prev_ == start_token && all_cycles_complete())) {
    logits[Tokenizer::kEos] = -1e30f;
  }
}

int WalkLegality::closure_cost() const {
  int cost = 2;  // ... VSS <EOS>
  for (const int dev : devs_) {
    const int open = open_edges(dev);
    if (open > 0) cost += open + 2;
    for (int id = dev; id < dev + at(dev).pins; ++id) cost += floating(id);
  }
  return cost;
}

int WalkLegality::forced_closing_token(int start_token, int vdd_token) {
  // 1. Open cycle edge incident to the current pin.
  if (prev_ >= 0 && at(prev_).dev >= 0) {
    const int dev = at(prev_).dev;
    const int here = at(prev_).pin;
    for (int e = 0; e < 16; ++e) {
      const int a = e / 4;
      const int b = e % 4;
      if (at(dev).open[e] > 0 && (a == here || b == here)) {
        return dev + (a == here ? b : a);
      }
    }
  }
  // 1b. Wire in missing mandatory IO pins (VOUT, then VDD) so the
  // decoded netlist has an output and both rails: the hop names the
  // current component as that IO's net.
  if (!at(vout_).counted && prev_ != vout_) return vout_;
  if (!at(vdd_token).counted && prev_ != vdd_token &&
      !hop_shorts_supplies(vdd_token, start_token, vdd_token)) {
    return vdd_token;
  }
  // 2. Hop onto an open device: score candidate entry pins.
  const auto open_devices =
      std::count_if(devs_.begin(), devs_.end(),
                    [this](int dev) { return open_edges(dev) > 0; });
  int best = -1;
  int best_score = -1;
  for (const int dev : devs_) {
    for (int e = 0; e < 16; ++e) {
      if (at(dev).open[e] <= 0) continue;
      for (const int id : {dev + e / 4, dev + e % 4}) {
        if (id == prev_) continue;
        int score = 0;
        if (!hop_shorts_supplies(id, start_token, vdd_token)) score += 4;
        // Ending the last cycle on the VSS component lets the final VSS
        // hop stay inside one net.
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
  for (const int dev : devs_) {
    for (int id = dev; id < dev + at(dev).pins; ++id) {
      if (floating(id)) return id;
    }
  }
  // 4. Close the tour.
  return prev_ != start_token ? start_token : Tokenizer::kEos;
}

void WalkLegality::touch(int dev) {
  const auto it = std::lower_bound(devs_.begin(), devs_.end(), dev);
  if (it != devs_.end() && *it == dev) return;
  devs_.insert(it, dev);
  // A cycle through the pins; for 2 pins, the doubled edge [0][1].
  const int n = at(dev).pins;
  for (int p = 0; p < n; ++p) ++at(dev).open[pair(p, (p + 1) % n)];
}

int WalkLegality::open_edges(int dev) const {
  const Edges& open = at(dev).open;
  return std::accumulate(open.begin(), open.end(), 0);
}

std::int8_t* WalkLegality::cycle_edge(int a, int b) {
  const int dev = at(a).dev;
  if (dev < 0 || dev != at(b).dev) return nullptr;
  return &at(dev).open[pair(at(a).pin, at(b).pin)];
}

bool WalkLegality::hop_shorts_supplies(int target, int vss_tok, int vdd_tok) {
  if (prev_ < 0) return false;
  const int a = find(prev_);
  const int b = find(target);
  if (a == b) return false;
  const int vss = find(vss_tok);
  const int vdd = find(vdd_tok);
  return (a == vss && b == vdd) || (a == vdd && b == vss);
}

int WalkLegality::max_same_device_pins_after(int cand) {
  at(prev_).counted = true;
  const int ra = find(prev_);
  const int rb = at(cand).counted ? find(cand) : -1;
  // Counted pins of `dev` in the component of prev_ or of cand.
  auto tally = [&](int dev) {
    int c = 0;
    for (int id = dev; id < dev + at(dev).pins; ++id) {
      if (!at(id).counted) continue;
      const int r = find(id);
      c += r == ra || r == rb;
    }
    return c;
  };
  int worst = 0;
  for (const int dev : devs_) worst = std::max(worst, tally(dev));
  // The candidate pin itself joins the merged component.
  if (at(cand).dev >= 0 && !at(cand).counted) {
    worst = std::max(worst, tally(at(cand).dev) + 1);
  }
  return worst;
}

}  // namespace eva::nn
