// Domain-specific tokenizer (paper §III-B).
//
// Each token is a device pin (NM1_G, R2_P, ...) or a circuit-level IO pin
// (VSS, VDD, VIN1, ...), plus two specials: "Truncate" (the paper's pad
// token) and an end-of-sequence marker. Device-instance limits are
// data-driven: the tokenizer scans the dataset for the maximum number of
// instances of each device kind (optionally with headroom so fine-tuned
// models can exceed the dataset's largest circuits).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "circuit/pingraph.hpp"
#include "data/dataset.hpp"

namespace eva::nn {

class Tokenizer {
 public:
  /// Token ids of the special tokens.
  static constexpr int kPad = 0;  // "Truncate" in the paper
  static constexpr int kEos = 1;

  /// Build from explicit per-kind device limits.
  explicit Tokenizer(std::array<int, circuit::kNumDeviceKinds> limits);

  /// Data-driven construction: scan the dataset for per-kind maxima and
  /// multiply by `headroom` (>= 1.0).
  [[nodiscard]] static Tokenizer from_dataset(const data::Dataset& ds,
                                              double headroom = 1.25);

  [[nodiscard]] int vocab_size() const {
    return static_cast<int>(names_.size());
  }
  [[nodiscard]] const std::array<int, circuit::kNumDeviceKinds>& limits()
      const {
    return limits_;
  }

  /// Token id of a pin token. Throws eva::Error if outside the vocabulary
  /// (device index above the limit).
  [[nodiscard]] int encode(const circuit::PinToken& t) const;
  /// Token id of an IO pin.
  [[nodiscard]] int encode_io(circuit::IoPin p) const;
  /// Inverse of encode. Requires a non-special id.
  [[nodiscard]] circuit::PinToken decode(int id) const;
  [[nodiscard]] const std::string& name(int id) const;

  /// Encode an Euler tour as ids, appending EOS.
  [[nodiscard]] std::vector<int> encode_tour(
      const std::vector<circuit::PinToken>& tour) const;

  /// Token id that every sequence starts with (VSS).
  [[nodiscard]] int start_token() const { return encode_io(circuit::IoPin::Vss); }

 private:
  static constexpr int kFirstPin = 2;  // after pad + eos

  std::array<int, circuit::kNumDeviceKinds> limits_{};
  // Per-kind base offset into the id space of that kind's pin tokens.
  std::array<int, circuit::kNumDeviceKinds> kind_base_{};
  int io_base_ = 0;
  std::vector<std::string> names_;
};

}  // namespace eva::nn
