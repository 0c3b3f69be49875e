// Tests for the training runtime (train/run.hpp) that pretraining, PPO
// and DPO share: deterministic fault injection, atomic writes, the
// hardened EVA2 snapshot codec (roundtrip and corruption rejection),
// checkpoint retention and corruption fallback, loads that create
// nothing, the divergence sentinel and its state in snapshots, a PPO run
// that must not trip it, sentinel recovery and
// sentinel-skipped steps that still end like any other step, a
// checkpoint directory that cannot be created, graceful stop +
// bit-compatible resume, and the SPICE DC solve deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "circuit/pingraph.hpp"
#include "circuit/validity.hpp"
#include "data/dataset.hpp"
#include "nn/lm_trainer.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "rl/dpo.hpp"
#include "rl/ppo.hpp"
#include "rl/reward_model.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "spice/sizing.hpp"
#include "tensor/optim.hpp"
#include "tensor/tensor.hpp"
#include "train/checkpoint.hpp"
#include "train/sentinel.hpp"
#include "train/signal.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using namespace eva;
using namespace eva::tensor;

/// Fresh scratch directory per test, removed on destruction. Also clears
/// any fault spec / stop flag so tests cannot leak into each other.
struct Scratch {
  fs::path dir;
  explicit Scratch(const std::string& name) {
    dir = fs::temp_directory_path() /
          ("eva_train_test_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    fault::set_spec("");
    train::clear_stop();
  }
  ~Scratch() {
    fault::set_spec("");
    train::clear_stop();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (dir / leaf).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- crc32

TEST(Crc32, MatchesKnownVectors) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Chaining two halves must equal one pass.
  const std::uint32_t half = crc32(check, 4);
  EXPECT_EQ(crc32(check + 4, 5, half), 0xCBF43926u);
}

// ------------------------------------------------------- fault injection

TEST(FaultInjection, FiresOnExactOccurrences) {
  fault::set_spec("unit_site:2,unit_site:4");
  EXPECT_TRUE(fault::enabled());
  EXPECT_FALSE(fault::should_fire("unit_site"));  // occurrence 1
  EXPECT_TRUE(fault::should_fire("unit_site"));   // occurrence 2
  EXPECT_FALSE(fault::should_fire("unit_site"));  // occurrence 3
  EXPECT_TRUE(fault::should_fire("unit_site"));   // occurrence 4
  EXPECT_FALSE(fault::should_fire("unit_site"));  // occurrence 5
  EXPECT_EQ(fault::occurrences("unit_site"), 5u);
  // Sites without a rule never fire.
  EXPECT_FALSE(fault::should_fire("other_site"));
  fault::set_spec("");
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultInjection, StarFiresEveryTime) {
  fault::set_spec("unit_star:*");
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(fault::should_fire("unit_star"));
  fault::set_spec("");
}

// ---------------------------------------------------------- atomic write

TEST(AtomicWrite, WritesAndReplaces) {
  Scratch sc("atomic");
  const std::string path = sc.path("out.txt");
  ASSERT_TRUE(atomic_write_file(path, "first"));
  EXPECT_EQ(slurp(path), "first");
  ASSERT_TRUE(atomic_write_file(path, "second"));
  EXPECT_EQ(slurp(path), "second");
}

TEST(AtomicWrite, InjectedFailureLeavesDestinationUntouched) {
  Scratch sc("atomic_fail");
  const std::string path = sc.path("out.txt");
  ASSERT_TRUE(atomic_write_file(path, "good"));
  fault::set_spec("io_write:1");
  EXPECT_FALSE(atomic_write_file(path, "bad"));
  fault::set_spec("");
  EXPECT_EQ(slurp(path), "good");
  // The failed attempt must not leave temp files behind.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(sc.dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

// ------------------------------------------------ hardened EVA2 loading

std::vector<Tensor> make_test_params(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  out.push_back(Tensor::randn({3, 4}, rng, 1.0f, true));
  out.push_back(Tensor::randn({5}, rng, 1.0f, true));
  return out;
}

void expect_load_error(const std::string& path, std::vector<Tensor> params,
                       const std::string& needle) {
  train::TrainState state{std::move(params)};
  try {
    train::read_snapshot(path, state, 0);
    FAIL() << "read_snapshot did not throw for " << needle;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

/// Overwrite the params section's tensor count of a params-only
/// snapshot and re-seal the section's CRC, so the loader gets past the
/// checksum to the count check. Layout: 12-byte header, a 32-byte meta
/// section, then the params section (tag, u64 size, payload, crc).
std::string with_tensor_count(const std::string& bytes, std::uint32_t count) {
  constexpr std::size_t kParams = 12 + 32;
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + kParams + 4, sizeof(size));
  std::string out = bytes;
  char* payload = out.data() + kParams + 12;
  std::memcpy(payload, &count, sizeof(count));
  const std::uint32_t crc = crc32(payload, size);
  std::memcpy(payload + size, &crc, sizeof(crc));
  return out;
}

TEST(LoadParams, RoundtripAndRejectsCorruption) {
  Scratch sc("snapshot");
  const std::string path = sc.path("params.eva2");
  const auto params = make_test_params(31);
  train::write_snapshot(path, {params}, 0);

  // Clean roundtrip first.
  train::TrainState loaded{make_test_params(32)};
  EXPECT_EQ(train::read_snapshot(path, loaded, 0), 0);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto a = params[i].data();
    auto b = loaded.params[i].data();
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }

  const std::string bytes = slurp(path);

  // Header truncated.
  ASSERT_TRUE(atomic_write_file(path, bytes.substr(0, 4)));
  expect_load_error(path, make_test_params(32), "truncated reading version");
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    ASSERT_TRUE(atomic_write_file(path, bad));
    expect_load_error(path, make_test_params(32), "bad checkpoint magic");
  }
  // Implausible tensor count.
  ASSERT_TRUE(atomic_write_file(path, with_tensor_count(bytes, 0xFFFFFFFFu)));
  expect_load_error(path, make_test_params(32), "implausible tensor count");
  // Truncated mid-payload.
  ASSERT_TRUE(atomic_write_file(path, bytes.substr(0, bytes.size() - 9)));
  expect_load_error(path, make_test_params(32), "section overruns file");
  // Trailing bytes, rejected before any tensor is written.
  ASSERT_TRUE(atomic_write_file(path, bytes + "zz"));
  {
    train::TrainState untouched{make_test_params(32)};
    EXPECT_THROW(train::read_snapshot(path, untouched, 0), ConfigError);
    EXPECT_EQ(untouched.params[0].data()[0],
              make_test_params(32)[0].data()[0]);
  }
  expect_load_error(path, make_test_params(32), "trailing bytes");
  // Count mismatch against the model.
  ASSERT_TRUE(atomic_write_file(path, bytes));
  expect_load_error(path, {make_test_params(33)[0]},
                    "parameter count mismatch");
  // Shape mismatch against the model.
  Rng rng(34);
  expect_load_error(path,
                    {Tensor::randn({4, 3}, rng, 1.0f, true),
                     Tensor::randn({5}, rng, 1.0f, true)},
                    "tensor shape mismatch");
}

// ------------------------------------------------------ EVA2 checkpoints

struct TinyTrainSetup {
  std::vector<Tensor> params;
  AdamW opt;
  Rng rng;

  explicit TinyTrainSetup(std::uint64_t seed)
      : params(make_test_params(seed)), opt(params, {.lr = 1e-2f}),
        rng(seed) {}

  /// One fake optimization step so the AdamW moments are non-trivial.
  void fake_step() {
    for (auto& p : params) {
      auto g = p.grad();  // allocated zero-filled on first access
      for (std::size_t i = 0; i < g.size(); ++i) {
        g[i] = static_cast<float>(rng.normal());
      }
    }
    opt.step();
  }

  [[nodiscard]] train::TrainState state(long step) {
    train::TrainState ts;
    ts.params = params;
    ts.opt = &opt;
    ts.rng = &rng;
    ts.step = step;
    return ts;
  }
};

TEST(Checkpoint, RoundtripIsBitIdentical) {
  Scratch sc("ckpt_roundtrip");
  TinyTrainSetup a(50);
  a.fake_step();
  a.rng.uniform();  // advance the stream past a Box-Muller cache point

  train::CheckpointManager mgr({sc.dir.string(), 3, 0xABCDu});
  auto ts = a.state(7);
  mgr.save(ts);

  // Restore into an independently-initialized setup.
  TinyTrainSetup b(51);
  auto ts_b = b.state(0);
  auto restored = mgr.load_latest(ts_b);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, 7);
  EXPECT_EQ(ts_b.step, 7);
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    auto pa = a.params[i].data();
    auto pb = b.params[i].data();
    for (std::size_t j = 0; j < pa.size(); ++j) EXPECT_EQ(pa[j], pb[j]);
  }
  const auto oa = a.opt.export_state();
  const auto ob = b.opt.export_state();
  EXPECT_EQ(oa.t, ob.t);
  ASSERT_EQ(oa.m.size(), ob.m.size());
  for (std::size_t i = 0; i < oa.m.size(); ++i) {
    EXPECT_EQ(oa.m[i], ob.m[i]);
    EXPECT_EQ(oa.v[i], ob.v[i]);
  }
  // The RNG streams must continue identically (including the cached
  // Box-Muller half-sample).
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.rng.normal(), b.rng.normal());
    EXPECT_EQ(a.rng.index(1000), b.rng.index(1000));
  }
}

TEST(Checkpoint, RetentionKeepsNewest) {
  Scratch sc("ckpt_retention");
  TinyTrainSetup a(52);
  train::CheckpointManager mgr({sc.dir.string(), 2, 0});
  for (long step = 1; step <= 5; ++step) {
    auto ts = a.state(step);
    mgr.save(ts);
  }
  const auto snaps = mgr.list_snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  TinyTrainSetup b(53);
  auto ts_b = b.state(0);
  EXPECT_EQ(mgr.load_latest(ts_b).value_or(-1), 5);
}

TEST(Checkpoint, BitflippedLatestFallsBackToPreviousSnapshot) {
  Scratch sc("ckpt_fallback");
  TinyTrainSetup a(54);
  train::CheckpointManager mgr({sc.dir.string(), 3, 0});
  auto ts1 = a.state(1);
  mgr.save(ts1);

  a.fake_step();
  fault::set_spec("ckpt_bitflip:1");
  auto ts2 = a.state(2);
  mgr.save(ts2);  // snapshot 2 is written corrupted
  fault::set_spec("");

  TinyTrainSetup b(55);
  auto ts_b = b.state(0);
  const auto restored = mgr.load_latest(ts_b);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, 1) << "corrupt latest must fall back one interval";
}

TEST(Checkpoint, InjectedWriteFailureThrows) {
  Scratch sc("ckpt_write_fail");
  TinyTrainSetup a(56);
  train::CheckpointManager mgr({sc.dir.string(), 3, 0});
  fault::set_spec("ckpt_write:1");
  auto ts = a.state(1);
  EXPECT_THROW(mgr.save(ts), ConfigError);
  fault::set_spec("");
  // The failure must not have produced a snapshot.
  EXPECT_TRUE(mgr.list_snapshots().empty());
}

TEST(Checkpoint, FingerprintMismatchIsRejected) {
  Scratch sc("ckpt_fp");
  TinyTrainSetup a(57);
  train::CheckpointManager writer({sc.dir.string(), 3, 111});
  auto ts = a.state(3);
  writer.save(ts);

  TinyTrainSetup b(58);
  auto ts_b = b.state(0);
  train::CheckpointManager reader({sc.dir.string(), 3, 222});
  EXPECT_FALSE(reader.load_latest(ts_b).has_value());
  // Same fingerprint loads fine.
  train::CheckpointManager reader2({sc.dir.string(), 3, 111});
  EXPECT_EQ(reader2.load_latest(ts_b).value_or(-1), 3);
}

TEST(Checkpoint, GarbageFileIsSkipped) {
  Scratch sc("ckpt_garbage");
  TinyTrainSetup a(59);
  train::CheckpointManager mgr({sc.dir.string(), 3, 0});
  auto ts = a.state(4);
  mgr.save(ts);
  // A later-looking snapshot full of garbage must be skipped over.
  ASSERT_TRUE(atomic_write_file(sc.path("ckpt_0000000009.eva2"),
                                "this is not a checkpoint"));
  ASSERT_TRUE(atomic_write_file(sc.path("latest"),
                                "ckpt_0000000009.eva2\n"));
  TinyTrainSetup b(60);
  auto ts_b = b.state(0);
  EXPECT_EQ(mgr.load_latest(ts_b).value_or(-1), 4);
}

// Loading is read-only: only save() creates the directory, so a missing
// or unusable directory loads as "no snapshot" and leaves no trace.

TEST(Checkpoint, LoadLatestFromMissingDirCreatesNothing) {
  Scratch sc("ckpt_missing");
  const fs::path missing = sc.dir / "missing";
  TinyTrainSetup a(61);
  auto ts = a.state(0);
  train::CheckpointManager mgr({missing.string(), 3, 0});
  EXPECT_FALSE(mgr.load_latest(ts).has_value());
  EXPECT_FALSE(fs::exists(missing));
}

TEST(Checkpoint, LoadLatestUnderRegularFileReturnsNothing) {
  Scratch sc("ckpt_under_file");
  const fs::path file = sc.dir / "file";
  std::ofstream(file) << "not a directory";
  TinyTrainSetup a(62);
  auto ts = a.state(0);
  std::optional<long> restored;
  EXPECT_NO_THROW({
    train::CheckpointManager mgr({(file / "ckpt").string(), 3, 0});
    restored = mgr.load_latest(ts);
  });
  EXPECT_FALSE(restored.has_value());
}

TEST(Checkpoint, SentinelStateRoundtrips) {
  Scratch sc("ckpt_sentinel");
  TinyTrainSetup a(63);
  train::SentinelConfig scfg;
  scfg.warmup_steps = 0;
  train::DivergenceSentinel tripped(scfg);
  EXPECT_EQ(tripped.observe(2.0, 1.0), train::SentinelAction::kProceed);
  EXPECT_EQ(tripped.observe(std::nan(""), 1.0), train::SentinelAction::kSkip);
  auto ts = a.state(4);
  ts.sentinel = &tripped;
  const std::string path = sc.path("s.eva2");
  train::write_snapshot(path, ts, 0);

  train::DivergenceSentinel fresh(scfg);
  auto loaded = a.state(0);
  loaded.sentinel = &fresh;
  EXPECT_EQ(train::read_snapshot(path, loaded, 0), 4);
  const auto want = tripped.save_state();
  const auto got = fresh.save_state();
  EXPECT_EQ(got.lr_scale, want.lr_scale);
  EXPECT_EQ(got.ema, want.ema);
  EXPECT_EQ(got.healthy_steps, want.healthy_steps);
  EXPECT_EQ(got.trips, want.trips);

  // A snapshot without the section (a params-only model file) leaves the
  // sentinel as it was.
  const std::string bare = sc.path("bare.eva2");
  train::write_snapshot(bare, a.state(4), 0);
  train::DivergenceSentinel untouched(scfg);
  auto again = a.state(0);
  again.sentinel = &untouched;
  EXPECT_EQ(train::read_snapshot(bare, again, 0), 4);
  EXPECT_EQ(untouched.lr_scale(), 1.0f);
  EXPECT_EQ(untouched.consecutive_trips(), 0);
}

// --------------------------------------------------- divergence sentinel

TEST(Sentinel, TripsOnNonFiniteAndEscalatesToRollback) {
  train::SentinelConfig cfg;
  cfg.rollback_after = 2;
  cfg.warmup_steps = 0;
  train::DivergenceSentinel s(cfg);
  EXPECT_EQ(s.observe(1.0, 1.0), train::SentinelAction::kProceed);
  const double nan = std::nan("");
  EXPECT_EQ(s.observe(nan, 1.0), train::SentinelAction::kSkip);
  EXPECT_LT(s.lr_scale(), 1.0f);
  EXPECT_EQ(s.observe(1.0, nan), train::SentinelAction::kRollback);
  s.notify_rollback();
  // Healthy steps recover the LR scale back toward 1.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(s.observe(1.0, 1.0), train::SentinelAction::kProceed);
  }
  EXPECT_FLOAT_EQ(s.lr_scale(), 1.0f);
}

TEST(Sentinel, TripsOnLossSpike) {
  train::SentinelConfig cfg;
  cfg.warmup_steps = 3;
  cfg.spike_factor = 10.0;
  train::DivergenceSentinel s(cfg);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(s.observe(1.0, 1.0), train::SentinelAction::kProceed);
  }
  EXPECT_EQ(s.observe(100.0, 1.0), train::SentinelAction::kSkip);
  // A plausible loss right after counts as healthy again.
  EXPECT_EQ(s.observe(1.1, 1.0), train::SentinelAction::kProceed);
}

// ------------------------------------------------ pretraining resilience

struct PretrainFixture {
  data::Dataset ds;
  nn::Tokenizer tok;
  nn::SequenceCorpus corpus;

  static PretrainFixture make(std::uint64_t seed) {
    data::DatasetConfig dcfg;
    dcfg.per_type = 3;
    dcfg.seed = seed;
    dcfg.require_simulatable = false;
    auto ds = data::Dataset::build(dcfg);
    auto tok = nn::Tokenizer::from_dataset(ds);
    Rng rng(seed + 1);
    auto corpus = nn::build_corpus(ds, tok, 2, 256, rng);
    return PretrainFixture{std::move(ds), std::move(tok), std::move(corpus)};
  }

  [[nodiscard]] nn::TransformerLM fresh_model(std::uint64_t seed) const {
    Rng rng(seed);
    return nn::TransformerLM(nn::ModelConfig::tiny(tok.vocab_size()), rng);
  }
};

nn::PretrainConfig small_pretrain_cfg() {
  nn::PretrainConfig cfg;
  cfg.steps = 24;
  cfg.batch = 2;
  cfg.warmup = 4;
  cfg.log_every = 1;  // on_step fires every step (the kill hook needs it)
  cfg.run.checkpoint_every = 8;
  return cfg;
}

TEST(PretrainResilience, KillAndResumeMatchesUninterruptedRun) {
  Scratch sc("pretrain_resume");
  const auto fx = PretrainFixture::make(700);
  const auto cfg = small_pretrain_cfg();

  // Reference: one uninterrupted run.
  auto model_a = fx.fresh_model(7);
  const auto a = nn::pretrain(model_a, fx.corpus, cfg);
  ASSERT_EQ(a.losses.size(), 24u);
  EXPECT_FALSE(a.interrupted);

  // Killed run: stop mid-flight (like SIGTERM), final snapshot written.
  auto cfg_b = cfg;
  cfg_b.run.checkpoint_dir = sc.dir.string();
  auto model_b = fx.fresh_model(7);
  const auto b = nn::pretrain(model_b, fx.corpus, cfg_b,
                              [](int step, double) {
                                if (step == 11) train::request_stop();
                              });
  EXPECT_TRUE(b.interrupted);
  ASSERT_EQ(b.losses.size(), 12u);
  train::clear_stop();

  // Resumed run: fresh process state, weights come from the snapshot.
  auto cfg_c = cfg_b;
  cfg_c.run.resume = true;
  auto model_c = fx.fresh_model(8);  // init is irrelevant, gets overwritten
  const auto c = nn::pretrain(model_c, fx.corpus, cfg_c);
  EXPECT_EQ(c.start_step, 12);
  ASSERT_EQ(c.losses.size(), 12u);
  EXPECT_FALSE(c.interrupted);

  // Step-for-step equivalence: kill+resume must replay the exact same
  // trajectory as the uninterrupted run.
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_DOUBLE_EQ(b.losses[i], a.losses[i]) << "step " << i;
    EXPECT_DOUBLE_EQ(c.losses[i], a.losses[i + 12]) << "step " << (i + 12);
  }
  EXPECT_DOUBLE_EQ(c.final_val_loss, a.final_val_loss);
}

TEST(PretrainResilience, SentinelRecoversFromInjectedNanGradients) {
  Scratch sc("pretrain_nan");
  const auto fx = PretrainFixture::make(701);
  auto cfg = small_pretrain_cfg();
  cfg.steps = 20;
  cfg.sentinel.rollback_after = 2;
  cfg.sentinel.warmup_steps = 2;

  // Two consecutive poisoned steps: first trips (skip), second escalates
  // to a rollback onto the in-memory last-good snapshot.
  fault::set_spec("nan_grad:5,nan_grad:6");
  auto model = fx.fresh_model(9);
  const auto r = nn::pretrain(model, fx.corpus, cfg);
  const auto injections = fault::occurrences("nan_grad");
  fault::set_spec("");

  EXPECT_FALSE(r.interrupted);
  // After the rollback the run replays the rewound steps, so the full
  // step budget completes with finite losses.
  ASSERT_EQ(r.losses.size(), 20u);
  for (double l : r.losses) EXPECT_TRUE(std::isfinite(l)) << l;
  EXPECT_TRUE(std::isfinite(r.final_val_loss));
  // Both injected faults were consumed.
  EXPECT_GE(injections, 6u);
}

// The sentinel's state rides in the snapshot: a run that tripped before
// it stopped resumes with the same LR backoff, loss EMA and warmup count,
// so its LR schedule matches the run that never stopped.
TEST(PretrainResilience, ResumeRestoresTheSentinel) {
  Scratch sc("pretrain_resume_sentinel");
  const auto fx = PretrainFixture::make(706);
  auto cfg = small_pretrain_cfg();
  cfg.steps = 12;
  cfg.run.checkpoint_every = 1;

  // Reference: the fault trips the sentinel at step 2 (skipped, LR scale
  // halved), and the run goes on to the end.
  fault::set_spec("nan_grad:3");
  auto model_a = fx.fresh_model(15);
  const auto a = nn::pretrain(model_a, fx.corpus, cfg);
  ASSERT_EQ(a.losses.size(), 11u);

  // Same run, stopped after step 6 with the LR scale still recovering.
  auto cfg_b = cfg;
  cfg_b.run.checkpoint_dir = sc.dir.string();
  fault::set_spec("nan_grad:3");
  auto model_b = fx.fresh_model(15);
  const auto b = nn::pretrain(model_b, fx.corpus, cfg_b,
                              [](int step, double) {
                                if (step == 6) train::request_stop();
                              });
  EXPECT_TRUE(b.interrupted);
  ASSERT_EQ(b.losses.size(), 6u);
  train::clear_stop();

  // Resumed with the fault cleared: the snapshot alone carries the trip.
  fault::set_spec("");
  auto cfg_c = cfg_b;
  cfg_c.run.resume = true;
  auto model_c = fx.fresh_model(16);
  const auto c = nn::pretrain(model_c, fx.corpus, cfg_c);
  EXPECT_EQ(c.start_step, 7);
  ASSERT_EQ(c.losses.size(), 5u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(b.losses[i], a.losses[i]) << "loss " << i;
  }
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(c.losses[i], a.losses[i + 6]) << "loss " << (i + 6);
  }
  EXPECT_EQ(c.final_val_loss, a.final_val_loss);
}

/// Snapshot file names in `dir`, oldest first.
std::vector<std::string> snapshot_names(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("ckpt_", 0) == 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A step the sentinel skips still ends like any other step: the snapshot
// rule, the last-good capture and the stop check all apply to it.

TEST(PretrainResilience, SkippedLastStepStillWritesFinalSnapshot) {
  Scratch sc("pretrain_skip_last");
  const auto fx = PretrainFixture::make(702);
  auto cfg = small_pretrain_cfg();
  cfg.steps = 8;
  cfg.run.checkpoint_every = 4;
  cfg.run.checkpoint_dir = sc.dir.string();
  fault::set_spec("nan_grad:8");  // the sentinel skips the last step
  auto model = fx.fresh_model(10);
  const auto r = nn::pretrain(model, fx.corpus, cfg);
  fault::set_spec("");
  EXPECT_FALSE(r.interrupted);
  EXPECT_EQ(r.losses.size(), 7u);
  EXPECT_EQ(r.end_step, 8);
  EXPECT_EQ(snapshot_names(sc.dir),
            (std::vector<std::string>{"ckpt_0000000004.eva2",
                                      "ckpt_0000000008.eva2"}));

  // Resuming the finished run has nothing left to do.
  cfg.run.resume = true;
  auto again = fx.fresh_model(11);
  const auto c = nn::pretrain(again, fx.corpus, cfg);
  EXPECT_EQ(c.start_step, 8);
  EXPECT_TRUE(c.losses.empty());
}

TEST(PretrainResilience, StopDuringSkippedStepStopsThere) {
  Scratch sc("pretrain_skip_stop");
  const auto fx = PretrainFixture::make(703);
  auto cfg = small_pretrain_cfg();
  cfg.run.checkpoint_dir = sc.dir.string();
  fault::set_spec("nan_grad:1");  // the sentinel skips step 0
  train::request_stop();
  auto model = fx.fresh_model(12);
  const auto r = nn::pretrain(model, fx.corpus, cfg);
  EXPECT_TRUE(r.interrupted);
  EXPECT_TRUE(r.losses.empty()) << "ran a step after the stop";
  EXPECT_EQ(r.end_step, 1);
  EXPECT_EQ(snapshot_names(sc.dir),
            std::vector<std::string>{"ckpt_0000000001.eva2"});
}

TEST(PretrainResilience, SkippedCadenceStepStillSnapshots) {
  Scratch sc("pretrain_skip_cadence");
  const auto fx = PretrainFixture::make(704);
  auto cfg = small_pretrain_cfg();
  cfg.steps = 12;
  cfg.run.checkpoint_every = 4;
  cfg.run.checkpoint_dir = sc.dir.string();
  fault::set_spec("nan_grad:4");  // the sentinel skips step 3
  auto model = fx.fresh_model(13);
  const auto r = nn::pretrain(model, fx.corpus, cfg);
  fault::set_spec("");
  EXPECT_FALSE(r.interrupted);
  EXPECT_EQ(snapshot_names(sc.dir),
            (std::vector<std::string>{"ckpt_0000000004.eva2",
                                      "ckpt_0000000008.eva2",
                                      "ckpt_0000000012.eva2"}));
}

// A checkpoint directory that cannot be created costs the snapshots, not
// the run: each snapshot logs `pretrain.ckpt_failed` and training goes on.
TEST(PretrainResilience, CheckpointDirUnderRegularFileCompletesEveryStep) {
  Scratch sc("pretrain_ckpt_under_file");
  const fs::path file = sc.dir / "file";
  std::ofstream(file) << "not a directory";
  const std::string log_path = sc.path("log.jsonl");
  const auto fx = PretrainFixture::make(705);
  auto cfg = small_pretrain_cfg();
  cfg.steps = 8;
  cfg.run.checkpoint_every = 4;
  cfg.run.checkpoint_dir = (file / "ckpt").string();
  auto model = fx.fresh_model(14);
  obs::set_log_stderr(false);
  obs::set_log_file(log_path);
  const auto r = nn::pretrain(model, fx.corpus, cfg);
  obs::set_log_file("");
  obs::set_log_stderr(true);
  EXPECT_FALSE(r.interrupted);
  EXPECT_EQ(r.losses.size(), 8u);
  EXPECT_EQ(r.end_step, 8);
  // One failed snapshot at the cadence step 4, one at the last step 8.
  const std::string log = slurp(log_path);
  std::size_t failures = 0;
  for (std::size_t at = log.find("pretrain.ckpt_failed");
       at != std::string::npos;
       at = log.find("pretrain.ckpt_failed", at + 1)) {
    ++failures;
  }
  EXPECT_EQ(failures, 2u);
}

// ------------------------------------------------------ PPO / DPO resume

struct RlFixture {
  data::Dataset ds;
  nn::Tokenizer tok;

  static RlFixture make(std::uint64_t seed) {
    data::DatasetConfig cfg;
    cfg.per_type = 5;
    cfg.seed = seed;
    cfg.require_simulatable = false;
    auto ds = data::Dataset::build(cfg);
    auto tok = nn::Tokenizer::from_dataset(ds);
    return RlFixture{std::move(ds), std::move(tok)};
  }

  [[nodiscard]] nn::TransformerLM fresh_model(std::uint64_t seed) const {
    Rng rng(seed);
    return nn::TransformerLM(nn::ModelConfig::tiny(tok.vocab_size()), rng);
  }
};

TEST(PpoResilience, KillAndResumeMatchesUninterruptedRun) {
  Scratch sc("ppo_resume");
  const auto fx = RlFixture::make(800);

  rl::PpoConfig cfg;
  cfg.epochs = 4;
  cfg.rollouts = 4;
  cfg.ppo_epochs = 1;
  cfg.minibatch = 2;
  cfg.max_len = 48;
  cfg.batch_width = 2;
  cfg.run.checkpoint_every = 1;

  auto run = [&](const rl::PpoConfig& c, std::uint64_t mseed,
                 const std::function<void(int, double)>& hook) {
    // The reward model is a fixed artifact across kill/resume — build it
    // from the same seed every run, independent of the policy instance.
    auto rm_model = fx.fresh_model(21);
    Rng rm_rng(11);
    rl::RewardModel rm(rm_model, fx.tok, rm_rng);
    auto model = fx.fresh_model(mseed);
    Rng ppo_rng(12);
    rl::PpoTrainer trainer(model, fx.tok, rm, c, ppo_rng);
    return trainer.train(hook);
  };

  const auto a = run(cfg, 21, nullptr);
  ASSERT_EQ(a.mean_reward.size(), 4u);

  auto cfg_b = cfg;
  cfg_b.run.checkpoint_dir = sc.dir.string();
  const auto b = run(cfg_b, 21, [](int epoch, double) {
    if (epoch == 1) train::request_stop();
  });
  EXPECT_TRUE(b.interrupted);
  ASSERT_EQ(b.mean_reward.size(), 2u);
  train::clear_stop();

  auto cfg_c = cfg_b;
  cfg_c.run.resume = true;
  const auto c = run(cfg_c, 22, nullptr);  // different init: snapshot wins
  EXPECT_EQ(c.start_epoch, 2);
  ASSERT_EQ(c.mean_reward.size(), 2u);

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(b.mean_reward[i], a.mean_reward[i]) << "epoch " << i;
    EXPECT_DOUBLE_EQ(c.mean_reward[i], a.mean_reward[i + 2])
        << "epoch " << (i + 2);
  }
  ASSERT_EQ(b.total_loss.size() + c.total_loss.size(), a.total_loss.size());
  for (std::size_t i = 0; i < b.total_loss.size(); ++i) {
    EXPECT_DOUBLE_EQ(b.total_loss[i], a.total_loss[i]);
  }
  for (std::size_t i = 0; i < c.total_loss.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.total_loss[i],
                     a.total_loss[b.total_loss.size() + i]);
  }
}

// L_PPO (-L_policy + vc * L_value) is signed and near zero, so the loss
// spike rule would fire on healthy updates: this run once tripped it 6
// times (one rollback, LR scale 0.05), and since a rollback lands on the
// last capture, its losses then depended on the snapshot cadence.
TEST(PpoResilience, OrdinaryUpdatesDoNotTripTheSentinel) {
  Scratch sc("ppo_no_spike");
  const auto fx = RlFixture::make(800);
  rl::PpoConfig cfg;
  cfg.epochs = 5;
  cfg.rollouts = 8;
  cfg.ppo_epochs = 2;
  cfg.minibatch = 2;

  auto run = [&](int checkpoint_every) {
    auto c = cfg;
    c.run.checkpoint_every = checkpoint_every;
    auto rm_model = fx.fresh_model(21);
    Rng rm_rng(11);
    rl::RewardModel rm(rm_model, fx.tok, rm_rng);
    auto model = fx.fresh_model(21);
    Rng ppo_rng(12);
    rl::PpoTrainer trainer(model, fx.tok, rm, c, ppo_rng);
    return trainer.train();
  };
  obs::Counter& trips = obs::counter("train.sentinel.trips");
  const std::int64_t trips0 = trips.value();
  const auto every5 = run(5);
  const auto every1 = run(1);
  EXPECT_EQ(trips.value() - trips0, 0);
  ASSERT_EQ(every5.total_loss.size(), every1.total_loss.size());
  for (std::size_t i = 0; i < every5.total_loss.size(); ++i) {
    EXPECT_EQ(every5.total_loss[i], every1.total_loss[i]) << "update " << i;
  }
}

TEST(DpoResilience, KillAndResumeMatchesUninterruptedRun) {
  Scratch sc("dpo_resume");
  const auto fx = RlFixture::make(801);
  rl::LabelingConfig lcfg;
  lcfg.target = circuit::CircuitType::OpAmp;
  const auto labels = rl::label_dataset(fx.ds, fx.tok, lcfg);
  Rng prng(13);
  const auto pairs = rl::build_preference_pairs(labels.examples, 3, prng);

  rl::DpoConfig cfg;
  cfg.steps = 12;
  cfg.pairs_per_step = 2;
  cfg.run.checkpoint_every = 4;

  auto run = [&](const rl::DpoConfig& c, std::uint64_t mseed,
                 const std::function<void(int, double)>& hook) {
    auto model = fx.fresh_model(mseed);
    rl::DpoTrainer trainer(model, fx.tok, c);
    return trainer.train(pairs, hook);
  };

  const auto a = run(cfg, 31, nullptr);
  ASSERT_EQ(a.loss.size(), 12u);

  auto cfg_b = cfg;
  cfg_b.run.checkpoint_dir = sc.dir.string();
  const auto b = run(cfg_b, 31, [](int step, double) {
    if (step == 5) train::request_stop();
  });
  EXPECT_TRUE(b.interrupted);
  ASSERT_EQ(b.loss.size(), 6u);
  train::clear_stop();

  auto cfg_c = cfg_b;
  cfg_c.run.resume = true;
  const auto c = run(cfg_c, 32, nullptr);
  EXPECT_EQ(c.start_step, 6);
  ASSERT_EQ(c.loss.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(b.loss[i], a.loss[i]) << "step " << i;
    EXPECT_DOUBLE_EQ(c.loss[i], a.loss[i + 6]) << "step " << (i + 6);
  }
}

std::vector<rl::PreferencePair> opamp_pairs(const RlFixture& fx) {
  rl::LabelingConfig lcfg;
  lcfg.target = circuit::CircuitType::OpAmp;
  const auto labels = rl::label_dataset(fx.ds, fx.tok, lcfg);
  Rng prng(13);
  return rl::build_preference_pairs(labels.examples, 3, prng);
}

TEST(DpoResilience, SkippedLastStepStillWritesFinalSnapshot) {
  Scratch sc("dpo_skip_last");
  const auto fx = RlFixture::make(807);
  const auto pairs = opamp_pairs(fx);
  rl::DpoConfig cfg;
  cfg.steps = 8;
  cfg.pairs_per_step = 2;
  cfg.run.checkpoint_every = 4;
  cfg.run.checkpoint_dir = sc.dir.string();
  fault::set_spec("nan_grad:8");  // the sentinel skips the last step
  auto model = fx.fresh_model(33);
  rl::DpoTrainer trainer(model, fx.tok, cfg);
  const auto stats = trainer.train(pairs);
  fault::set_spec("");
  EXPECT_FALSE(stats.interrupted);
  EXPECT_EQ(stats.loss.size(), 7u);
  EXPECT_EQ(snapshot_names(sc.dir),
            (std::vector<std::string>{"ckpt_0000000004.eva2",
                                      "ckpt_0000000008.eva2"}));
}

TEST(DpoResilience, SentinelRecoversFromInjectedNanGradients) {
  Scratch sc("dpo_nan");
  const auto fx = RlFixture::make(808);
  const auto pairs = opamp_pairs(fx);
  rl::DpoConfig cfg;
  cfg.steps = 12;
  cfg.pairs_per_step = 2;
  cfg.logprob_probe = 2;
  cfg.run.checkpoint_every = 4;  // last-good at step 4
  cfg.sentinel.rollback_after = 2;

  // Steps 6 and 7 are poisoned: 6 is skipped, 7 rolls back to step 4,
  // so the rewind must drop the entries of steps 4 and 5.
  fault::set_spec("nan_grad:7,nan_grad:8");
  auto model = fx.fresh_model(34);
  rl::DpoTrainer trainer(model, fx.tok, cfg);
  const auto stats = trainer.train(pairs);
  const auto injections = fault::occurrences("nan_grad");
  fault::set_spec("");

  EXPECT_FALSE(stats.interrupted);
  EXPECT_GE(injections, 8u);
  ASSERT_EQ(stats.loss.size(), 12u);
  ASSERT_EQ(stats.reward_acc.size(), 12u);
  ASSERT_EQ(stats.logp_win.size(), 12u);
  ASSERT_EQ(stats.logp_lose.size(), 12u);
  for (const auto* v : {&stats.loss, &stats.reward_acc, &stats.logp_win,
                        &stats.logp_lose}) {
    for (double x : *v) EXPECT_TRUE(std::isfinite(x)) << x;
  }
}

TEST(PpoResilience, SentinelRecoversFromInjectedNanGradients) {
  Scratch sc("ppo_nan");
  const auto fx = RlFixture::make(809);
  rl::PpoConfig cfg;
  cfg.epochs = 4;
  cfg.rollouts = 4;
  cfg.ppo_epochs = 1;
  cfg.minibatch = 2;  // two updates per epoch
  cfg.max_len = 48;
  cfg.batch_width = 2;
  cfg.run.checkpoint_every = 2;  // last-good after epoch 1
  cfg.sentinel.rollback_after = 2;

  // Both updates of epoch 3 are poisoned: the first is skipped, the
  // second rolls back to epoch 2, so the rewind must drop the reward of
  // epochs 2 and 3 and the losses of epoch 2.
  fault::set_spec("nan_grad:7,nan_grad:8");
  auto rm_model = fx.fresh_model(21);
  Rng rm_rng(11);
  rl::RewardModel rm(rm_model, fx.tok, rm_rng);
  auto model = fx.fresh_model(23);
  Rng ppo_rng(12);
  rl::PpoTrainer trainer(model, fx.tok, rm, cfg, ppo_rng);
  const auto stats = trainer.train();
  const auto injections = fault::occurrences("nan_grad");
  fault::set_spec("");

  EXPECT_FALSE(stats.interrupted);
  EXPECT_GE(injections, 8u);
  ASSERT_EQ(stats.mean_reward.size(), 4u);
  ASSERT_EQ(stats.policy_loss.size(), stats.total_loss.size());
  ASSERT_EQ(stats.value_loss.size(), stats.total_loss.size());
  for (const auto* v : {&stats.mean_reward, &stats.policy_loss,
                        &stats.value_loss, &stats.total_loss}) {
    for (double x : *v) EXPECT_TRUE(std::isfinite(x)) << x;
  }
}

// ------------------------------------------------- SPICE solve deadlines

const circuit::Netlist* find_valid_netlist(const data::Dataset& ds) {
  for (const auto& e : ds.entries()) {
    if (circuit::structurally_valid(e.netlist)) return &e.netlist;
  }
  return nullptr;
}

TEST(SpiceDeadline, AttemptCapMarksDeadlineExceeded) {
  const auto fx = RlFixture::make(802);
  const auto* nl = find_valid_netlist(fx.ds);
  ASSERT_NE(nl, nullptr);
  spice::SimOptions opts;
  opts.max_dc_attempts = 0;  // every attempt is over budget
  spice::Simulator sim(*nl, spice::default_sizing(*nl), opts);
  EXPECT_FALSE(sim.solve_dc());
  EXPECT_TRUE(sim.dc_result().deadline_exceeded);
  EXPECT_FALSE(sim.dc_result().converged);
}

TEST(SpiceDeadline, ExpiredWallClockAbortsNewton) {
  const auto fx = RlFixture::make(803);
  const auto* nl = find_valid_netlist(fx.ds);
  ASSERT_NE(nl, nullptr);
  spice::SimOptions opts;
  opts.dc_deadline_ms = 1e-7;  // already expired at the first iteration
  spice::Simulator sim(*nl, spice::default_sizing(*nl), opts);
  EXPECT_FALSE(sim.solve_dc());
  EXPECT_TRUE(sim.dc_result().deadline_exceeded);
  EXPECT_EQ(sim.dc_result().iterations, 0);
}

TEST(SpiceDeadline, InjectedDcFaultFailsSolve) {
  const auto fx = RlFixture::make(804);
  const auto* nl = find_valid_netlist(fx.ds);
  ASSERT_NE(nl, nullptr);
  spice::SimOptions opts;
  spice::Simulator sim(*nl, spice::default_sizing(*nl), opts);
  fault::set_spec("spice_dc:1");
  EXPECT_FALSE(sim.solve_dc());
  fault::set_spec("");
  EXPECT_EQ(sim.dc_result().iterations, 0);
  // Without the fault the same solve proceeds normally.
  (void)sim.solve_dc();
  EXPECT_GT(sim.dc_result().iterations, 0);
}

// ------------------------------------------- non-finite FoM/reward guard

TEST(NonFiniteGuards, FomNanMapsToFailedEvaluation) {
  const auto fx = RlFixture::make(805);
  const data::TopologyEntry* good = nullptr;
  for (const auto& e : fx.ds.entries()) {
    const auto perf = spice::evaluate_default(e.netlist, e.type);
    if (perf.ok) {
      good = &e;
      break;
    }
  }
  if (good == nullptr) GTEST_SKIP() << "no evaluable topology in fixture";
  fault::set_spec("fom_nan:1");
  const auto perf = spice::evaluate_default(good->netlist, good->type);
  fault::set_spec("");
  EXPECT_FALSE(perf.ok) << "NaN FoM must grade as a failed evaluation";
  EXPECT_EQ(perf.fom, 0.0);
}

TEST(NonFiniteGuards, RewardNanMapsToInvalidCircuit) {
  const auto fx = RlFixture::make(806);
  const circuit::Netlist* sim_nl = nullptr;
  for (const auto& e : fx.ds.entries()) {
    if (spice::simulatable(e.netlist)) {
      sim_nl = &e.netlist;
      break;
    }
  }
  if (sim_nl == nullptr) GTEST_SKIP() << "no simulatable topology in fixture";

  auto model = fx.fresh_model(41);
  Rng rng(42);
  rl::RewardModel rm(model, fx.tok, rng);
  Rng trng(43);
  auto ids = fx.tok.encode_tour(circuit::encode_tour(*sim_nl, trng));
  ids.pop_back();  // reward() takes the raw tour without EOS

  const double clean = rm.reward(ids);
  EXPECT_TRUE(std::isfinite(clean));
  EXPECT_GT(clean, rl::rank_reward(rl::RankClass::Invalid));

  fault::set_spec("reward_nan:1");
  const double poisoned = rm.reward(ids);
  fault::set_spec("");
  EXPECT_DOUBLE_EQ(poisoned, rl::rank_reward(rl::RankClass::Invalid));
}

}  // namespace
