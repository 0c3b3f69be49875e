// Euler-walk legality state for constrained decoding (paper §III-B).
//
// A sampled topology is a device-pin Euler walk from VSS back to VSS.
// Along the walk this state keeps what circuit::decode_tour computes at
// the end: each mentioned device's not-yet-walked device-cycle edges, the
// components the remaining (net) edges form, and which pins have a net
// edge yet. The sampler masks, rejects and force-closes tokens with it
// (DESIGN.md §2, "Constrained decoding").
//
// Layout (DESIGN.md §7, "Walk state"): one record per token id, sized by
// the tokenizer. A device is named by the id of its pin 0, so ascending
// ids visit devices in (kind, index) order, and its pins have consecutive
// ids (Tokenizer::encode). Nothing allocates per token.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/pingraph.hpp"
#include "nn/tokenizer.hpp"

namespace eva::nn {

class WalkLegality {
 public:
  explicit WalkLegality(const Tokenizer& tok);

  /// Record a transition to token id `cur` (non-special).
  void on_token(int cur);

  /// Device pins mentioned in the walk that have no net edge yet (they
  /// would decode as floating), ascending. Excludes the current position.
  [[nodiscard]] std::vector<int> floating_pins() const;

  /// Combined transition legality for sampled tokens: no supply shorts,
  /// at most one distinct same-device net-edge pin pair per device (a
  /// diode connection; more would mean the model is re-walking a consumed
  /// device cycle, which decodes as all pins shorted together), and no
  /// component holding 3+ pins of one device. Counts the current pin
  /// toward its component, as a net edge from it would.
  [[nodiscard]] bool illegal_transition(int cand, int vss_tok, int vdd_tok);

  [[nodiscard]] bool all_cycles_complete() const;

  /// Apply the mask to next-token logits: no pad, no self-loop, and EOS
  /// only back at VSS with every device cycle complete.
  void mask(std::span<float> logits, int start_token) const;

  /// Tokens needed to force-close the walk from here: finish every open
  /// device cycle (edges + a jump per open device), sweep floating pins,
  /// and return to VSS.
  [[nodiscard]] int closure_cost() const;

  /// Closure policy: the forced next token when the budget runs out.
  /// Order: continue an open cycle at the current pin; wire in VOUT, then
  /// VDD; else hop to a pin of some open device (preferring hops that
  /// cannot short the supplies and, for the last open device, landing on
  /// the VSS component so the tour can end cleanly); else sweep a
  /// floating pin; else return to VSS; else EOS.
  [[nodiscard]] int forced_closing_token(int start_token, int vdd_token);

 private:
  /// Device-cycle edges left per pin pair, a 4×4 array [a][b] with a < b
  /// flattened to index 4a + b (pair()), so ascending indices walk the
  /// pairs in (a, b) order. A 2-pin device starts with its doubled edge:
  /// [0][1] = 2.
  using Edges = std::array<std::int8_t, 16>;
  /// What the walk knows of one token id. `dev`, `pin` and `pins` are
  /// fixed by the tokenizer; `open` and `net_pair` live on a device's
  /// pin 0.
  struct Token {
    int dev = -1;               // its device's pin-0 id; -1 for IO pins
    int pin = 0;
    int pins = 0;               // its device's pin count
    Edges open{};               // device-cycle edges not yet walked
    std::int8_t net_pair = -1;  // the device's one same-device net pair
    bool wired = false;         // has a net edge
    bool counted = false;       // counts toward its component's tallies
  };

  Token& at(int id) { return tokens_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Token& at(int id) const {
    return tokens_[static_cast<std::size_t>(id)];
  }
  int find(int id) {
    return static_cast<int>(uf_.find(static_cast<std::size_t>(id)));
  }
  static int pair(int a, int b) {
    return a < b ? 4 * a + b : 4 * b + a;
  }
  void touch(int dev);
  [[nodiscard]] int open_edges(int dev) const;
  /// The count of device-cycle edges left between tokens a and b, or
  /// null unless both are pins of one device.
  [[nodiscard]] std::int8_t* cycle_edge(int a, int b);
  [[nodiscard]] bool floating(int id) const {
    return id != prev_ && !at(id).wired;
  }
  [[nodiscard]] bool hop_shorts_supplies(int target, int vss_tok,
                                         int vdd_tok);
  [[nodiscard]] int max_same_device_pins_after(int cand);

  int vout_;                   // token id of VOUT1
  std::vector<Token> tokens_;  // by token id
  std::vector<int> devs_;      // pin-0 ids of mentioned devices, ascending
  circuit::UnionFind uf_;      // components of the net edges, by token id
  int prev_ = -1;
};

}  // namespace eva::nn
