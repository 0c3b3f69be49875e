#include "serve/stats.hpp"

#include <string_view>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "tensor/quant.hpp"

namespace eva::serve {

namespace {

void counter_field(std::string& out, std::string_view key,
                   std::string_view metric, bool* first) {
  out += *first ? "" : ", ";
  *first = false;
  obs::json_string_into(out, key);
  out += ": ";
  obs::json_number_into(out, obs::counter(metric).value());
}

}  // namespace

std::string stats_json(const GenerationService& svc) {
  std::string out = "{\"uptime_s\": ";
  obs::json_number_into(out, svc.uptime_s());

  // Per-stage and end-to-end latency distributions, rolling 10 s window
  // next to since-start, in metrics.json's shape. These are the same
  // histograms the scheduler records into at finish(), so a loadgen run
  // and a live stats poll see one source of truth.
  out += ", \"stages\": {";
  bool first = true;
  for (int i = 0; i < kNumStages; ++i) {
    const auto s = static_cast<Stage>(i);
    out += first ? "" : ", ";
    first = false;
    obs::json_string_into(out, stage_name(s));
    out += ": ";
    obs::histogram_json_into(
        out, obs::histogram(std::string("serve.stage.") +
                            std::string(stage_name(s)) + "_ms"));
  }
  out += ", \"e2e\": ";
  obs::histogram_json_into(out, obs::histogram("serve.e2e_ms"));
  out += "}";

  const auto depths = svc.queue_depths();
  out += ", \"queue_depth\": {\"high\": " + std::to_string(depths[0]);
  out += ", \"normal\": " + std::to_string(depths[1]);
  out += ", \"low\": " + std::to_string(depths[2]);
  out += ", \"total\": " +
         std::to_string(depths[0] + depths[1] + depths[2]) + "}";

  out += ", \"batch_occupancy\": ";
  obs::json_number_into(out, obs::gauge("sampler.batch_occupancy").value());
  out += ", \"tokens_per_sec\": ";
  obs::json_number_into(out, obs::gauge("sampler.tokens_per_sec").value());

  const std::int64_t hits = obs::counter("serve.cache_hits").value();
  const std::int64_t misses = obs::counter("serve.cache_misses").value();
  out += ", \"cache\": {\"hits\": " + std::to_string(hits);
  out += ", \"misses\": " + std::to_string(misses);
  out += ", \"hit_rate\": ";
  obs::json_number_into(out, hits + misses > 0
                                 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0);
  out += ", \"size\": " + std::to_string(svc.cache().size());
  out += ", \"capacity\": " + std::to_string(svc.cache().capacity()) + "}";

  out += ", \"requests\": {";
  first = true;
  counter_field(out, "submitted", "serve.submitted", &first);
  counter_field(out, "completed", "serve.completed", &first);
  counter_field(out, "rejected", "serve.rejected", &first);
  counter_field(out, "timeouts", "serve.timeouts", &first);
  counter_field(out, "deadline_exceeded", "serve.deadline_exceeded", &first);
  out += "}";

  // Kernel attribution: the weight tier that served the traffic and the
  // FLOPs the GEMM kernels have run (tensor.gemm_flops, 2*M*K*N per call).
  out += ", \"quant\": ";
  obs::json_string_into(out, tensor::quant_kind_name(svc.config().quant));
  out += ", \"gemm_flops\": ";
  obs::json_number_into(out, obs::counter("tensor.gemm_flops").value());
  out += "}";
  return out;
}

std::string stats_response_json(const GenerationService& svc) {
  std::string out = "{\"done\": true, \"status\": \"ok\", \"cmd\": \"stats\", "
                    "\"stats\": ";
  out += stats_json(svc);
  out += "}";
  return out;
}

}  // namespace eva::serve
