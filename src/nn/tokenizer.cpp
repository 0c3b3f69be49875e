#include "nn/tokenizer.hpp"

#include <algorithm>
#include <cmath>

namespace eva::nn {

using circuit::DeviceKind;
using circuit::IoPin;
using circuit::PinToken;

Tokenizer::Tokenizer(std::array<int, circuit::kNumDeviceKinds> limits)
    : limits_(limits) {
  names_.push_back("Truncate");  // kPad
  names_.push_back("<EOS>");     // kEos

  io_base_ = static_cast<int>(names_.size());
  for (int i = 0; i < circuit::kNumIoPins; ++i) {
    names_.emplace_back(circuit::io_name(static_cast<IoPin>(i)));
  }
  for (int k = 0; k < circuit::kNumDeviceKinds; ++k) {
    const auto kind = static_cast<DeviceKind>(k);
    EVA_REQUIRE(limits_[static_cast<std::size_t>(k)] >= 0,
                "negative device limit");
    kind_base_[static_cast<std::size_t>(k)] = static_cast<int>(names_.size());
    for (int idx = 1; idx <= limits_[static_cast<std::size_t>(k)]; ++idx) {
      for (int p = 0; p < pin_count(kind); ++p) {
        names_.push_back(circuit::dev_token(kind, idx, p).name());
      }
    }
  }
}

Tokenizer Tokenizer::from_dataset(const data::Dataset& ds, double headroom) {
  EVA_REQUIRE(headroom >= 1.0, "headroom must be >= 1");
  std::array<int, circuit::kNumDeviceKinds> limits{};
  for (const auto& e : ds.entries()) {
    for (const auto& [kind, count] : e.netlist.kind_counts()) {
      auto& lim = limits[static_cast<std::size_t>(kind)];
      lim = std::max(lim, count);
    }
  }
  for (auto& lim : limits) {
    lim = static_cast<int>(std::ceil(lim * headroom));
  }
  return Tokenizer(limits);
}

int Tokenizer::encode(const PinToken& t) const {
  if (t.is_io) return encode_io(t.io);
  const auto k = static_cast<std::size_t>(t.kind);
  EVA_REQUIRE(t.index >= 1 && t.index <= limits_[k],
              "device index exceeds tokenizer limit: " + t.name());
  return kind_base_[k] + (t.index - 1) * pin_count(t.kind) + t.pin;
}

int Tokenizer::encode_io(IoPin p) const {
  return io_base_ + static_cast<int>(p);
}

PinToken Tokenizer::decode(int id) const {
  EVA_REQUIRE(id >= kFirstPin && id < vocab_size(),
              "decode: id out of range or special");
  if (id < io_base_ + circuit::kNumIoPins) {
    return circuit::io_token(static_cast<IoPin>(id - io_base_));
  }
  for (int k = circuit::kNumDeviceKinds - 1; k >= 0; --k) {
    const auto kind = static_cast<DeviceKind>(k);
    const int base = kind_base_[static_cast<std::size_t>(k)];
    if (limits_[static_cast<std::size_t>(k)] > 0 && id >= base) {
      const int off = id - base;
      const int pc = pin_count(kind);
      return circuit::dev_token(kind, off / pc + 1, off % pc);
    }
  }
  throw Error("decode: unmapped token id");
}

const std::string& Tokenizer::name(int id) const {
  EVA_REQUIRE(id >= 0 && id < vocab_size(), "name: id out of range");
  return names_[static_cast<std::size_t>(id)];
}

std::vector<int> Tokenizer::encode_tour(
    const std::vector<PinToken>& tour) const {
  std::vector<int> ids;
  ids.reserve(tour.size() + 1);
  for (const auto& t : tour) ids.push_back(encode(t));
  ids.push_back(kEos);
  return ids;
}

}  // namespace eva::nn
