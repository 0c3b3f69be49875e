// Divergence sentinel: per-step finite-ness and loss-spike watchdog for
// the training loops.
//
// A single NaN gradient (bad batch, numerical blow-up, injected fault)
// poisons AdamW's moment buffers permanently — every later step then
// multiplies NaNs into the weights and the run is unrecoverable. The
// sentinel sits between backward() and optimizer.step():
//
//   * non-finite loss or gradient norm, or a loss above EMA x factor
//     (after warmup), trips the sentinel -> the trainer SKIPS the update
//     and backs off its LR scale;
//   * `rollback_after` consecutive trips escalate to a ROLLBACK -> the
//     run (train/run.hpp) restores the in-memory last-good snapshot
//     (RollbackSlot) and the trainer continues from there;
//   * healthy steps decay the trip streak and let the LR scale recover.
//
// Every action is counted (`train.sentinel.trips`, `.skipped_batches`,
// `.rollbacks`) and logged with the offending values.
#pragma once

namespace eva::train {

struct SentinelConfig {
  double spike_factor = 10.0;  // trip when loss > EMA * spike_factor
  double ema_alpha = 0.1;      // loss EMA smoothing
  int warmup_steps = 10;       // spike detection off for the first steps
  int rollback_after = 3;      // consecutive trips before rollback
  float lr_backoff = 0.5f;     // LR scale multiplier per trip
  float min_lr_scale = 1e-3f;
  float lr_recover = 1.05f;    // healthy-step LR scale recovery factor
};

enum class SentinelAction {
  kProceed,   // healthy step: apply the update
  kSkip,      // tripped: drop this batch, back off LR
  kRollback,  // tripped rollback_after times in a row: restore last-good
};

class DivergenceSentinel {
 public:
  explicit DivergenceSentinel(SentinelConfig cfg = {}) : cfg_(cfg) {}

  /// Judge one step from its loss and pre-clip gradient norm. Call
  /// before the optimizer step; on kSkip/kRollback do not apply it.
  SentinelAction observe(double loss, double grad_norm);

  /// Tell the sentinel a rollback was performed (clears the trip streak
  /// and the EMA so the restored region re-warms).
  void notify_rollback();

  /// Multiplicative LR backoff factor in (0, 1]; trainers apply it on
  /// top of their schedule.
  [[nodiscard]] float lr_scale() const { return lr_scale_; }
  [[nodiscard]] int consecutive_trips() const { return trips_; }

  /// Everything observe() has learned, for snapshots: a resumed run
  /// judges its next step as the run that never stopped would.
  struct State {
    float lr_scale = 1.0f;
    double ema = 0.0;
    long healthy_steps = 0;
    int trips = 0;
  };
  [[nodiscard]] State save_state() const {
    return {lr_scale_, ema_, healthy_steps_, trips_};
  }
  void restore_state(const State& s) {
    lr_scale_ = s.lr_scale;
    ema_ = s.ema;
    healthy_steps_ = s.healthy_steps;
    trips_ = s.trips;
  }

 private:
  SentinelConfig cfg_;
  double ema_ = 0.0;
  long healthy_steps_ = 0;
  int trips_ = 0;
  float lr_scale_ = 1.0f;
};

}  // namespace eva::train
