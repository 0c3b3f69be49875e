#include "train/sentinel.hpp"

#include <algorithm>
#include <cmath>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace eva::train {

SentinelAction DivergenceSentinel::observe(double loss, double grad_norm) {
  static obs::Counter& trips_c = obs::counter("train.sentinel.trips");
  static obs::Counter& skips_c = obs::counter("train.sentinel.skipped_batches");
  static obs::Counter& rollbacks_c = obs::counter("train.sentinel.rollbacks");

  const bool finite = std::isfinite(loss) && std::isfinite(grad_norm);
  const bool spiking = finite && healthy_steps_ >= cfg_.warmup_steps &&
                       ema_ > 0.0 && loss > ema_ * cfg_.spike_factor;
  if (finite && !spiking) {
    ema_ = healthy_steps_ == 0 ? loss
                               : (1.0 - cfg_.ema_alpha) * ema_ +
                                     cfg_.ema_alpha * loss;
    ++healthy_steps_;
    trips_ = 0;
    lr_scale_ = std::min(1.0f, lr_scale_ * cfg_.lr_recover);
    return SentinelAction::kProceed;
  }

  ++trips_;
  trips_c.add();
  skips_c.add();
  lr_scale_ = std::max(cfg_.min_lr_scale, lr_scale_ * cfg_.lr_backoff);
  obs::gauge("train.sentinel.lr_scale").set(lr_scale_);
  const char* reason = !finite ? "non_finite" : "loss_spike";
  obs::log_warn("train.sentinel.trip", {{"reason", reason},
                                        {"loss", loss},
                                        {"grad_norm", grad_norm},
                                        {"ema", ema_},
                                        {"consecutive", trips_},
                                        {"lr_scale", lr_scale_}});
  if (trips_ >= cfg_.rollback_after) {
    rollbacks_c.add();
    obs::log_warn("train.sentinel.rollback", {{"consecutive", trips_}});
    return SentinelAction::kRollback;
  }
  return SentinelAction::kSkip;
}

void DivergenceSentinel::notify_rollback() {
  trips_ = 0;
  ema_ = 0.0;
  healthy_steps_ = 0;
}

}  // namespace eva::train
