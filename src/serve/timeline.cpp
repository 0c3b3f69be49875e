#include "serve/timeline.hpp"

#include "obs/metrics.hpp"

namespace eva::serve {

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::kQueue: return "queue";
    case Stage::kDecode: return "decode";
    case Stage::kCache: return "cache";
    case Stage::kVerify: return "verify";
    case Stage::kWrite: return "write";
  }
  return "unknown";
}

void record_timeline_metrics(const RequestTimeline& t, bool all_stages) {
  // Cached references: one registry lookup per stage for the process
  // lifetime, then lock-free-ish records on per-request granularity.
  static obs::Histogram* stage_h[kNumStages] = {
      &obs::histogram("serve.stage.queue_ms"),
      &obs::histogram("serve.stage.decode_ms"),
      &obs::histogram("serve.stage.cache_ms"),
      &obs::histogram("serve.stage.verify_ms"),
      &obs::histogram("serve.stage.write_ms"),
  };
  stage_h[static_cast<int>(Stage::kQueue)]->record(t.ms(Stage::kQueue));
  if (!all_stages) return;
  for (const Stage s : {Stage::kDecode, Stage::kCache, Stage::kVerify}) {
    stage_h[static_cast<int>(s)]->record(t.ms(s));
  }
  // kWrite is recorded by the TCP front end once the bytes are out; a
  // library consumer of GenerationService has no write stage at all.
}

}  // namespace eva::serve
