#include "train/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"

namespace eva::train {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x45564132;  // "EVA2"
constexpr std::uint32_t kVersion = 1;

// Section tags.
constexpr std::uint32_t kSecMeta = 1;    // fingerprint + step
constexpr std::uint32_t kSecParams = 2;  // tensor shapes + payloads
constexpr std::uint32_t kSecOpt = 3;     // AdamW t + moments
constexpr std::uint32_t kSecRng = 4;     // xoshiro state + BM cache
constexpr std::uint32_t kSecSentinel = 5;  // LR scale, EMA, healthy, trips

constexpr std::uint32_t kMaxSections = 16;
constexpr std::uint64_t kMaxSectionBytes = 1ull << 34;  // 16 GiB
constexpr std::uint32_t kMaxTensors = 1u << 20;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::uint32_t kMaxDim = 1u << 28;

template <class T>
void put(std::string& out, const T& v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out.append(p, sizeof(T));
}

void put_bytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

/// Bounds-checked reader over a loaded byte buffer.
class Reader {
 public:
  Reader(const char* p, std::size_t n) : p_(p), n_(n) {}

  template <class T>
  T get(const char* what) {
    T v{};
    take(&v, sizeof(T), what);
    return v;
  }

  void take(void* dst, std::size_t n, const char* what) {
    if (pos_ + n > n_) {
      throw ConfigError(std::string("checkpoint truncated reading ") + what);
    }
    std::memcpy(dst, p_ + pos_, n);
    pos_ += n;
  }

  /// Step over `n` bytes the caller has bounds-checked with remaining().
  void skip(std::size_t n) { pos_ += n; }
  [[nodiscard]] const char* here() const { return p_ + pos_; }
  [[nodiscard]] std::size_t remaining() const { return n_ - pos_; }

 private:
  const char* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

void append_section(std::string& out, std::uint32_t tag,
                    const std::string& payload) {
  put(out, tag);
  put(out, static_cast<std::uint64_t>(payload.size()));
  out += payload;
  put(out, crc32(payload.data(), payload.size()));
}

std::string snapshot_name(long step) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt_%010ld.eva2", step);
  return buf;
}

/// Parse the step out of "ckpt_<step>.eva2"; -1 for anything else.
long parse_step(const std::string& name) {
  if (name.size() < 11 || name.rfind("ckpt_", 0) != 0 ||
      name.substr(name.size() - 5) != ".eva2") {
    return -1;
  }
  long step = 0;
  for (std::size_t i = 5; i < name.size() - 5; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    step = step * 10 + (name[i] - '0');
  }
  return step;
}

std::string serialize_state(const TrainState& state,
                            std::uint64_t fingerprint) {
  std::string out;
  std::uint32_t sections = 2;  // meta + params always present
  sections += state.opt != nullptr;
  sections += state.rng != nullptr;
  sections += state.sentinel != nullptr;
  put(out, kMagic);
  put(out, kVersion);
  put(out, sections);

  {
    std::string meta;
    put(meta, fingerprint);
    put(meta, static_cast<std::int64_t>(state.step));
    append_section(out, kSecMeta, meta);
  }
  {
    std::string sec;
    put(sec, static_cast<std::uint32_t>(state.params.size()));
    for (const auto& p : state.params) {
      put(sec, static_cast<std::uint32_t>(p.shape().size()));
      for (int d : p.shape()) put(sec, static_cast<std::uint32_t>(d));
      auto data = p.data();
      put_bytes(sec, data.data(), data.size() * sizeof(float));
    }
    append_section(out, kSecParams, sec);
  }
  if (state.opt) {
    const auto st = state.opt->export_state();
    std::string sec;
    put(sec, static_cast<std::int64_t>(st.t));
    put(sec, static_cast<std::uint32_t>(st.m.size()));
    for (std::size_t i = 0; i < st.m.size(); ++i) {
      put(sec, static_cast<std::uint64_t>(st.m[i].size()));
      put_bytes(sec, st.m[i].data(), st.m[i].size() * sizeof(float));
      put_bytes(sec, st.v[i].data(), st.v[i].size() * sizeof(float));
    }
    append_section(out, kSecOpt, sec);
  }
  if (state.rng) {
    const auto st = state.rng->save_state();
    std::string sec;
    for (std::uint64_t s : st.s) put(sec, s);
    put(sec, st.cached);
    put(sec, static_cast<std::uint8_t>(st.has_cached));
    append_section(out, kSecRng, sec);
  }
  if (state.sentinel) {
    const auto st = state.sentinel->save_state();
    std::string sec;
    put(sec, st.lr_scale);
    put(sec, st.ema);
    put(sec, static_cast<std::int64_t>(st.healthy_steps));
    put(sec, static_cast<std::int32_t>(st.trips));
    append_section(out, kSecSentinel, sec);
  }
  return out;
}

}  // namespace

void write_snapshot(const std::string& path, const TrainState& state,
                    std::uint64_t fingerprint) {
  static obs::Counter& failures = obs::counter("train.ckpt.write_failures");

  std::string bytes = serialize_state(state, fingerprint);
  if (fault::enabled()) {
    if (fault::should_fire("ckpt_write")) {
      failures.add();
      throw ConfigError("injected checkpoint write failure");
    }
    if (fault::should_fire("ckpt_bitflip") && !bytes.empty()) {
      // Deterministic single-bit corruption in the middle of the
      // payload; the per-section CRC must catch it at load time.
      bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    }
  }
  if (!atomic_write_file(path, bytes)) {
    failures.add();
    throw ConfigError("checkpoint write failed: " + path);
  }
}

long read_snapshot(const std::string& path, TrainState& state,
                   std::uint64_t fingerprint) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw ConfigError("cannot open checkpoint: " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string bytes = ss.str();
  Reader r(bytes.data(), bytes.size());

  if (r.get<std::uint32_t>("magic") != kMagic) {
    throw ConfigError("bad checkpoint magic (not an EVA2 snapshot): " + path);
  }
  const auto version = r.get<std::uint32_t>("version");
  if (version != kVersion) {
    throw ConfigError("unsupported EVA2 version " + std::to_string(version) +
                      ": " + path);
  }
  const auto sections = r.get<std::uint32_t>("section count");
  if (sections > kMaxSections) {
    throw ConfigError("implausible section count in checkpoint: " + path);
  }

  // Validate the whole container (sizes, checksums, no trailing bytes)
  // before any section touches `state`.
  struct Section {
    std::uint32_t tag;
    const char* data;
    std::size_t size;
  };
  std::vector<Section> found;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const auto tag = r.get<std::uint32_t>("section tag");
    const auto size = r.get<std::uint64_t>("section size");
    if (size > kMaxSectionBytes || size > r.remaining()) {
      throw ConfigError("checkpoint section overruns file: " + path);
    }
    const char* payload = r.here();
    r.skip(size);
    const auto want_crc = r.get<std::uint32_t>("section crc");
    if (crc32(payload, size) != want_crc) {
      throw ConfigError("checkpoint section checksum mismatch (tag " +
                        std::to_string(tag) + "): " + path);
    }
    found.push_back({tag, payload, size});
  }
  if (r.remaining() != 0) {
    throw ConfigError("trailing bytes after the last checkpoint section: " +
                      path);
  }

  bool saw_meta = false, saw_params = false;
  long step = 0;
  for (const Section& section : found) {
    Reader sec(section.data, section.size);
    switch (section.tag) {
      case kSecMeta: {
        const auto fp = sec.get<std::uint64_t>("fingerprint");
        if (fingerprint != 0 && fp != fingerprint) {
          throw ConfigError("checkpoint config fingerprint mismatch: " + path);
        }
        step = static_cast<long>(sec.get<std::int64_t>("step"));
        if (step < 0) throw ConfigError("negative step in checkpoint: " + path);
        saw_meta = true;
        break;
      }
      case kSecParams: {
        const auto count = sec.get<std::uint32_t>("tensor count");
        if (count > kMaxTensors) {
          throw ConfigError("implausible tensor count in checkpoint: " + path);
        }
        if (count != state.params.size()) {
          throw ConfigError("checkpoint parameter count mismatch (file has " +
                            std::to_string(count) + ", trainer expects " +
                            std::to_string(state.params.size()) + "): " + path);
        }
        for (auto& p : state.params) {
          const auto rank = sec.get<std::uint32_t>("tensor rank");
          if (rank > kMaxRank || rank != p.shape().size()) {
            throw ConfigError("checkpoint tensor rank mismatch: " + path);
          }
          for (int d : p.shape()) {
            const auto dd = sec.get<std::uint32_t>("tensor dim");
            if (dd == 0 || dd > kMaxDim ||
                dd != static_cast<std::uint32_t>(d)) {
              throw ConfigError("checkpoint tensor shape mismatch: " + path);
            }
          }
          auto data = p.data();
          sec.take(data.data(), data.size() * sizeof(float),
                   "tensor payload");
        }
        saw_params = true;
        break;
      }
      case kSecOpt: {
        if (!state.opt) break;  // trainer does not want optimizer state
        tensor::AdamW::State st;
        st.t = static_cast<long>(sec.get<std::int64_t>("optimizer step"));
        const auto count = sec.get<std::uint32_t>("moment tensor count");
        if (count > kMaxTensors) {
          throw ConfigError("implausible moment count in checkpoint: " + path);
        }
        st.m.resize(count);
        st.v.resize(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto n = sec.get<std::uint64_t>("moment size");
          if (n > kMaxSectionBytes / sizeof(float)) {
            throw ConfigError("implausible moment size in checkpoint: " + path);
          }
          st.m[i].resize(n);
          st.v[i].resize(n);
          sec.take(st.m[i].data(), n * sizeof(float), "first moment");
          sec.take(st.v[i].data(), n * sizeof(float), "second moment");
        }
        state.opt->import_state(st);  // throws on layout mismatch
        break;
      }
      case kSecRng: {
        if (!state.rng) break;
        Rng::State st;
        for (auto& word : st.s) word = sec.get<std::uint64_t>("rng state");
        st.cached = sec.get<double>("rng cached normal");
        st.has_cached = sec.get<std::uint8_t>("rng cache flag") != 0;
        state.rng->restore_state(st);
        break;
      }
      case kSecSentinel: {
        if (!state.sentinel) break;
        DivergenceSentinel::State st;
        st.lr_scale = sec.get<float>("sentinel lr scale");
        st.ema = sec.get<double>("sentinel loss ema");
        st.healthy_steps =
            static_cast<long>(sec.get<std::int64_t>("sentinel healthy steps"));
        st.trips = sec.get<std::int32_t>("sentinel trip streak");
        state.sentinel->restore_state(st);
        break;
      }
      default:
        // Unknown section: forward-compatible skip (already CRC-checked).
        break;
    }
  }
  if (!saw_meta || !saw_params) {
    throw ConfigError("checkpoint missing required sections: " + path);
  }
  state.step = step;
  return step;
}

CheckpointManager::CheckpointManager(CheckpointOptions opts)
    : opts_(std::move(opts)) {
  EVA_REQUIRE(!opts_.dir.empty(), "CheckpointManager needs a directory");
  EVA_REQUIRE(opts_.keep_last >= 1, "keep_last must be >= 1");
}

void CheckpointManager::save(const TrainState& state) {
  static obs::Counter& saves = obs::counter("train.ckpt.saves");
  static obs::Counter& failures = obs::counter("train.ckpt.write_failures");

  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec) {
    failures.add();
    throw ConfigError("cannot create checkpoint directory " + opts_.dir +
                      ": " + ec.message());
  }
  const std::string name = snapshot_name(state.step);
  const std::string path = opts_.dir + "/" + name;
  write_snapshot(path, state, opts_.config_fingerprint);
  if (!atomic_write_file(opts_.dir + "/latest", name + "\n")) {
    failures.add();
    throw ConfigError("checkpoint manifest write failed: " + opts_.dir +
                      "/latest");
  }
  saves.add();
  obs::log_info("train.ckpt.saved",
                {{"path", path}, {"step", static_cast<std::int64_t>(state.step)}});
  prune();
}

std::optional<long> CheckpointManager::load_latest(TrainState& state) const {
  static obs::Counter& fallbacks = obs::counter("train.ckpt.fallbacks");
  static obs::Counter& corrupt = obs::counter("train.ckpt.corrupt");

  // Candidate order: manifest target first, then every retained snapshot
  // newest-first (dedup'd).
  std::vector<std::string> candidates;
  {
    std::ifstream mf(opts_.dir + "/latest");
    std::string name;
    if (mf && std::getline(mf, name) && parse_step(name) >= 0) {
      candidates.push_back(opts_.dir + "/" + name);
    }
  }
  for (const auto& p : list_snapshots()) {
    if (std::find(candidates.begin(), candidates.end(), p) ==
        candidates.end()) {
      candidates.push_back(p);
    }
  }

  bool fell_back = false;
  for (const auto& path : candidates) {
    try {
      const long step = read_snapshot(path, state, opts_.config_fingerprint);
      if (fell_back) fallbacks.add();
      obs::log_info("train.ckpt.restored",
                    {{"path", path},
                     {"step", static_cast<std::int64_t>(step)},
                     {"fallback", fell_back ? 1 : 0}});
      return step;
    } catch (const Error& e) {
      corrupt.add();
      obs::log_warn("train.ckpt.invalid",
                    {{"path", path}, {"error", e.what()}});
      fell_back = true;
    }
  }
  return std::nullopt;
}

std::vector<std::string> CheckpointManager::list_snapshots() const {
  std::vector<std::pair<long, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opts_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    const long step = parse_step(name);
    if (step >= 0) found.emplace_back(step, entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [step, path] : found) out.push_back(std::move(path));
  return out;
}

void CheckpointManager::prune() const {
  const auto snaps = list_snapshots();
  for (std::size_t i = static_cast<std::size_t>(opts_.keep_last);
       i < snaps.size(); ++i) {
    std::error_code ec;
    fs::remove(snaps[i], ec);
  }
}

void RollbackSlot::capture(const TrainState& state) {
  params_.clear();
  params_.reserve(state.params.size());
  for (const auto& p : state.params) {
    auto d = p.data();
    params_.emplace_back(d.begin(), d.end());
  }
  opt_ = state.opt ? std::optional(state.opt->export_state()) : std::nullopt;
  rng_ = state.rng ? std::optional(state.rng->save_state()) : std::nullopt;
  step_ = state.step;
  armed_ = true;
}

long RollbackSlot::restore(TrainState& state) const {
  EVA_REQUIRE(armed_, "RollbackSlot::restore before capture");
  EVA_REQUIRE(state.params.size() == params_.size(),
              "rollback parameter layout mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto d = state.params[i].data();
    EVA_REQUIRE(d.size() == params_[i].size(),
                "rollback parameter size mismatch");
    std::copy(params_[i].begin(), params_[i].end(), d.begin());
  }
  if (state.opt && opt_) state.opt->import_state(*opt_);
  if (state.rng && rng_) state.rng->restore_state(*rng_);
  state.step = step_;
  return step_;
}

}  // namespace eva::train
