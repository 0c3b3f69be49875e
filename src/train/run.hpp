// The training-run runtime every trainer drives: pretraining, PPO and
// DPO.
//
// A Run owns everything between a trainer's backward() and its next
// step: the CheckpointManager and resume, the divergence sentinel, the
// in-memory last-good snapshot with its rollback budget, the `nan_grad`
// fault site plus gradient clipping, the end-of-step snapshot rule and
// the stop check. A trainer keeps its loss, its LR schedule (times
// lr_scale()), its history vectors, its metrics and its fingerprint.
// Per step it calls clip(), then judge(), then applies the verdict:
// kStep updates, kSkip does not, kRewind cuts its history back to
// progress() and continues at step(), kAbort leaves the loop. Every
// step that is not rewound or aborted ends in finish() — a step the
// sentinel skipped counts as done, so the snapshot rule, the last-good
// capture and the stop check all apply to it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "train/checkpoint.hpp"
#include "train/sentinel.hpp"

namespace eva::train {

/// Snapshot settings shared by every trainer config. An empty
/// `checkpoint_dir` disables snapshots; with `resume` the newest valid
/// snapshot is restored and the run continues bit-compatibly.
struct RunConfig {
  // `{}` lets `{.checkpoint_every = N}` omit this field without a
  // -Wmissing-field-initializers warning.
  std::string checkpoint_dir{};
  int checkpoint_every = 50;  // steps between snapshots
  int keep_checkpoints = 3;
  bool resume = false;
};

/// What the trainer does with the step judge() has just seen.
enum class Verdict {
  kStep,    // healthy: apply the optimizer update
  kSkip,    // sentinel trip: no update, but the step still ends in finish()
  kRewind,  // state restored to last-good: cut history back, go to step()
  kAbort,   // rollback budget spent: the run has diverged, stop
};

class Run {
 public:
  /// `name` prefixes the run's log events (`<name>.diverged`,
  /// `<name>.ckpt_failed`, `<name>.interrupted`). `state` aliases the
  /// live tensors, optimizer and RNG; the run ends after `steps` steps.
  /// Restores the newest snapshot when `cfg.resume` is set.
  Run(std::string name, TrainState state, int steps, const RunConfig& cfg,
      const SentinelConfig& sentinel, std::uint64_t fingerprint);
  // state_ points at sentinel_, so a copy would judge with the original's.
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Completed steps: the first step to run after construction (0, or
  /// the restored step on resume), the step a kRewind continues from,
  /// and after the last finish() the step the run ended at.
  [[nodiscard]] int step() const { return static_cast<int>(state_.step); }

  /// Multiplicative LR backoff from the sentinel; trainers apply it on
  /// top of their schedule.
  [[nodiscard]] float lr_scale() const { return sentinel_.lr_scale(); }

  /// Fault site `nan_grad`, then clip_grad_norm. Returns the pre-clip
  /// gradient norm.
  double clip(std::vector<tensor::Tensor>& params, double max_norm);

  /// Judge one step from its loss and pre-clip gradient norm. On a
  /// rollback trip within the budget of 5, restores the last-good state
  /// and returns kRewind (continue at step()); past the budget, logs
  /// `<name>.diverged` and returns kAbort.
  Verdict judge(double loss, double grad_norm);

  /// After kRewind: the i-th history size passed to finish() at the
  /// restored capture (0 for the capture taken at construction).
  [[nodiscard]] std::size_t progress(std::size_t i) const;

  /// End step `done` (the count of completed steps), skipped or not:
  /// snapshot at the cadence, on a stop and at the last step, capturing
  /// last-good there with the trainer's history sizes. Returns true when
  /// a stop was requested; the trainer then leaves its loop.
  bool finish(int done, std::initializer_list<std::size_t> progress);

 private:
  std::string name_;
  TrainState state_;
  int steps_;
  int checkpoint_every_;
  std::optional<CheckpointManager> ckpt_;
  DivergenceSentinel sentinel_;
  RollbackSlot last_good_;
  std::vector<std::size_t> progress_;
  int rollbacks_left_ = 5;  // give up instead of thrashing forever
};

}  // namespace eva::train
