#include "train/run.hpp"

#include <limits>
#include <utility>

#include "obs/log.hpp"
#include "tensor/optim.hpp"
#include "train/signal.hpp"
#include "util/fault.hpp"

namespace eva::train {

Run::Run(std::string name, TrainState state, int steps, const RunConfig& cfg,
         const SentinelConfig& sentinel, std::uint64_t fingerprint)
    : name_(std::move(name)),
      state_(std::move(state)),
      steps_(steps),
      checkpoint_every_(cfg.checkpoint_every),
      sentinel_(sentinel) {
  state_.sentinel = &sentinel_;
  if (!cfg.checkpoint_dir.empty()) {
    ckpt_.emplace(CheckpointOptions{cfg.checkpoint_dir, cfg.keep_checkpoints,
                                    fingerprint});
    if (cfg.resume) ckpt_->load_latest(state_);
  }
  last_good_.capture(state_);
}

double Run::clip(std::vector<tensor::Tensor>& params, double max_norm) {
  if (fault::enabled() && fault::should_fire("nan_grad")) {
    params[0].grad()[0] = std::numeric_limits<float>::quiet_NaN();
  }
  return tensor::clip_grad_norm(params, max_norm);
}

Verdict Run::judge(double loss, double grad_norm) {
  switch (sentinel_.observe(loss, grad_norm)) {
    case SentinelAction::kProceed:
      return Verdict::kStep;
    case SentinelAction::kSkip:
      return Verdict::kSkip;
    case SentinelAction::kRollback:
      break;
  }
  if (rollbacks_left_ > 0) {
    --rollbacks_left_;
    last_good_.restore(state_);
    sentinel_.notify_rollback();
    return Verdict::kRewind;
  }
  obs::log_error(name_ + ".diverged", {{"step", step()}, {"loss", loss}});
  return Verdict::kAbort;
}

std::size_t Run::progress(std::size_t i) const {
  return i < progress_.size() ? progress_[i] : 0;
}

bool Run::finish(int done, std::initializer_list<std::size_t> progress) {
  state_.step = done;
  const bool stopping = stop_requested();
  const bool at_cadence =
      checkpoint_every_ > 0 && done % checkpoint_every_ == 0;
  if (at_cadence || stopping || done == steps_) {
    if (ckpt_) {
      try {
        ckpt_->save(state_);
      } catch (const Error& e) {
        obs::log_error(name_ + ".ckpt_failed", {{"error", e.what()}});
      }
    }
    last_good_.capture(state_);
    progress_.assign(progress);
  }
  if (stopping) obs::log_info(name_ + ".interrupted", {{"step", done}});
  return stopping;
}

}  // namespace eva::train
