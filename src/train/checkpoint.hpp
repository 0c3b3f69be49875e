// Crash-safe training checkpoints: the versioned EVA2 snapshot format and
// the CheckpointManager that writes / restores / retains them.
//
// A snapshot carries everything a trainer needs to continue bit-for-bit:
// model parameters, AdamW optimizer moments + step count, RNG state, the
// divergence sentinel's state, the trainer step counter, and a config
// fingerprint that rejects resumes against a different model/run
// configuration. A params-only snapshot is also the on-disk model format
// (`core::Eva::save_model`).
//
// On-disk format (little-endian, see checkpoint.cpp):
//
//   u32 magic "EVA2" | u32 version | u32 section_count
//   per section: u32 tag | u64 payload_bytes | payload | u32 crc32(payload)
//
// write_snapshot / read_snapshot are the codec's only entry points. Every
// write goes through the temp-file + fsync + atomic-rename helper
// (util/io). The manager names snapshots by step, updates a `latest`
// manifest the same way, and prunes snapshots beyond `keep_last`.
// Loading walks from the manifest backwards through the retained files
// and returns the newest snapshot whose checksums, shapes and fingerprint
// all validate — so a torn or bit-flipped latest snapshot costs one
// checkpoint interval, not the run. Fault sites: `ckpt_write` (injected
// write failure) and `ckpt_bitflip` (corrupt one byte of the serialized
// snapshot).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tensor/optim.hpp"
#include "tensor/tensor.hpp"
#include "train/sentinel.hpp"
#include "util/rng.hpp"

namespace eva::train {

/// FNV-1a accumulator for config fingerprints. Trainers fold in every
/// semantically relevant config field; a resumed run with a different
/// fingerprint is rejected instead of silently diverging.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  Fingerprint& mix(long v) { return mix(static_cast<std::uint64_t>(v)); }
  Fingerprint& mix(int v) { return mix(static_cast<std::uint64_t>(v)); }
  Fingerprint& mix(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return mix(bits);
  }
  Fingerprint& mix(float v) { return mix(static_cast<double>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Everything one snapshot covers. `params` are aliases of the live
/// training tensors (cheap shared handles); `opt`, `rng` and `sentinel`
/// are optional — sections are only written for the pieces supplied, and
/// a piece whose section a file lacks keeps its current state.
struct TrainState {
  std::vector<tensor::Tensor> params;
  tensor::AdamW* opt = nullptr;
  Rng* rng = nullptr;
  long step = 0;  // completed steps (resume continues at `step`)
  DivergenceSentinel* sentinel = nullptr;
};

/// Serialize `state` to `path` as one EVA2 snapshot (atomic). Throws
/// eva::ConfigError on I/O failure.
void write_snapshot(const std::string& path, const TrainState& state,
                    std::uint64_t fingerprint);

/// Restore one EVA2 snapshot into `state` (same layout as written) and
/// return its step. A non-zero `fingerprint` must match the file's.
/// Throws eva::ConfigError when the file fails validation (bad magic,
/// CRC, fingerprint, shape, truncation or trailing bytes); container
/// errors are caught before `state` is touched.
long read_snapshot(const std::string& path, TrainState& state,
                   std::uint64_t fingerprint);

struct CheckpointOptions {
  std::string dir;
  int keep_last = 3;
  std::uint64_t config_fingerprint = 0;
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions opts);

  /// Write `state` to ckpt_<step>.eva2 (creating the directory if
  /// needed), update the `latest` manifest, and prune beyond keep_last.
  /// Throws eva::ConfigError on I/O failure — callers treat that as
  /// non-fatal and keep training.
  void save(const TrainState& state);

  /// Restore the newest snapshot that validates end-to-end, falling
  /// back across retained files when the latest is corrupt (counted in
  /// `train.ckpt.fallbacks`). Returns the restored step count, or
  /// nullopt when no usable snapshot exists (a missing or unreadable
  /// directory included). Creates nothing.
  std::optional<long> load_latest(TrainState& state) const;

  /// Retained snapshot paths, newest step first.
  [[nodiscard]] std::vector<std::string> list_snapshots() const;
  [[nodiscard]] const std::string& dir() const { return opts_.dir; }

 private:
  void prune() const;

  CheckpointOptions opts_;
};

/// Deep in-memory copy of a TrainState, for divergence-sentinel rollback
/// without a round trip through disk. capture() snapshots the live
/// state; restore() writes it back into the same tensors/optimizer/RNG.
/// The sentinel is left alone: a rollback keeps its LR backoff.
class RollbackSlot {
 public:
  void capture(const TrainState& state);
  /// Restore into `state` (same layout as captured). Returns the step
  /// the snapshot was taken at.
  long restore(TrainState& state) const;

 private:
  bool armed_ = false;
  std::vector<std::vector<float>> params_;
  std::optional<tensor::AdamW::State> opt_;
  std::optional<Rng::State> rng_;
  long step_ = 0;
};

}  // namespace eva::train
