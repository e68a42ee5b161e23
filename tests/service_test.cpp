// The service layer's correctness pillars:
//  * ShardedMeasurementCache's exactly-once claim protocol, under
//    contention and abandonment;
//  * determinism — a session's trace through the service, pooled or
//    inline, live or replayed, equals the standalone run_tuner trace;
//  * dataset resolution — registered datasets and dataset_dir
//    archives replay the same rows, and a registration shadows an
//    archive of the same key;
//  * cancellation — shutdown() mid-run stops every session at its next
//    batch boundary with a partial trace and leaves no stuck workers.
// tools/ci.sh runs this binary under TSan in addition to ASan/UBSan.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/runner.hpp"
#include "io/dataset_file.hpp"
#include "kernels/all_kernels.hpp"
#include "service/sharded_cache.hpp"
#include "service/tuning_service.hpp"
#include "tuners/tuner.hpp"

namespace bat::service {
namespace {

using core::SharedMeasurementCache;

// ------------------------------------------------ cache protocol, raw use --

TEST(ShardedMeasurementCache, ClaimPublishHitRoundTrip) {
  ShardedMeasurementCache cache(nullptr, 4);
  auto first = cache.claim(7);
  ASSERT_EQ(first.state, SharedMeasurementCache::ClaimState::kClaimed);
  EXPECT_EQ(cache.claim(7).state, SharedMeasurementCache::ClaimState::kPending);
  cache.publish(7, core::Measurement::valid(3.5));
  const auto hit = cache.claim(7);
  ASSERT_EQ(hit.state, SharedMeasurementCache::ClaimState::kHit);
  EXPECT_DOUBLE_EQ(hit.measurement.time_ms, 3.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedMeasurementCache, AbandonLetsTheNextClaimerTakeOver) {
  ShardedMeasurementCache cache(nullptr, 1);
  ASSERT_EQ(cache.claim(3).state, SharedMeasurementCache::ClaimState::kClaimed);
  cache.abandon(3);
  // wait() on an unclaimed key must not block.
  EXPECT_FALSE(cache.wait(3).has_value());
  EXPECT_EQ(cache.claim(3).state, SharedMeasurementCache::ClaimState::kClaimed);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.abandoned, 1u);
}

// The exactly-once core: T threads race through the same K keys in
// different orders; whoever wins a claim "evaluates" (bumps the per-key
// counter) and publishes, everyone else hits or waits. Every key must be
// evaluated exactly once and every thread must observe its measurement.
TEST(ShardedMeasurementCache, ExactlyOnceUnderContention) {
  constexpr std::size_t kKeys = 512;
  constexpr std::size_t kThreads = 8;
  ShardedMeasurementCache cache(nullptr, 16);
  std::vector<std::atomic<int>> evaluated(kKeys);

  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kKeys; ++i) {
        // Per-thread traversal order: thread t starts at key t * 61.
        const auto key =
            static_cast<core::ConfigIndex>((i * 61 + t * 67) % kKeys);
        const auto claim = cache.claim(key);
        switch (claim.state) {
          case SharedMeasurementCache::ClaimState::kClaimed:
            evaluated[key].fetch_add(1);
            cache.publish(key,
                          core::Measurement::valid(static_cast<double>(key)));
            break;
          case SharedMeasurementCache::ClaimState::kHit:
            if (claim.measurement.time_ms != static_cast<double>(key)) {
              failed = true;
            }
            break;
          case SharedMeasurementCache::ClaimState::kPending: {
            const auto m = cache.wait(key);
            if (!m || m->time_ms != static_cast<double>(key)) failed = true;
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(evaluated[k].load(), 1) << "key " << k;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evaluations, kKeys);
  EXPECT_EQ(stats.lookups, kKeys * kThreads);
  EXPECT_EQ(cache.size(), kKeys);
}

// Claim-then-abandon under contention: the first winner of every key
// abandons instead of publishing (a cancelled session, a dead remote
// claimant being swept — same code path), so waiters must wake with
// nullopt, re-claim, and the key must still end up evaluated exactly
// once by whoever wins the re-claim.
TEST(ShardedMeasurementCache, ClaimThenAbandonUnderContention) {
  constexpr std::size_t kKeys = 256;
  constexpr std::size_t kThreads = 8;
  ShardedMeasurementCache cache(nullptr, 16);
  std::vector<std::atomic<bool>> abandoned_once(kKeys);
  std::vector<std::atomic<int>> evaluated(kKeys);

  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kKeys; ++i) {
        const auto key =
            static_cast<core::ConfigIndex>((i * 61 + t * 67) % kKeys);
        // Loop until this thread observes the key's final value: an
        // abandon means somebody (possibly us) must re-claim it.
        for (bool resolved = false; !resolved;) {
          const auto claim = cache.claim(key);
          switch (claim.state) {
            case SharedMeasurementCache::ClaimState::kClaimed:
              if (!abandoned_once[key].exchange(true)) {
                cache.abandon(key);  // first winner walks away
                break;               // and retries its own claim
              }
              evaluated[key].fetch_add(1);
              cache.publish(
                  key, core::Measurement::valid(static_cast<double>(key)));
              resolved = true;
              break;
            case SharedMeasurementCache::ClaimState::kHit:
              if (claim.measurement.time_ms != static_cast<double>(key)) {
                failed = true;
              }
              resolved = true;
              break;
            case SharedMeasurementCache::ClaimState::kPending: {
              const auto m = cache.wait(key);
              // nullopt = the claimant abandoned; go around and
              // re-claim. A value must be the final one.
              if (m) {
                if (m->time_ms != static_cast<double>(key)) failed = true;
                resolved = true;
              }
              break;
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(evaluated[k].load(), 1) << "key " << k;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evaluations, kKeys);
  EXPECT_EQ(stats.abandoned, kKeys);
  EXPECT_EQ(cache.size(), kKeys);
}

// ------------------------------------------------------- service sessions --

std::vector<SessionSpec> overlapping_specs(std::size_t sessions) {
  // Same kernel + tuner + budget, rotating seeds: concurrent sessions
  // probe heavily overlapping configurations (every third one repeats a
  // seed, so overlap is guaranteed even for short runs).
  std::vector<SessionSpec> specs;
  specs.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    SessionSpec spec;
    spec.kernel = "pnpoly";
    spec.tuner = s % 2 == 0 ? "local" : "annealing";
    spec.budget = 40;
    spec.seed = 7 + s % 3;
    spec.backend = "live";
    specs.push_back(spec);
  }
  return specs;
}

// Determinism: routing a session through the service (pooled worker,
// shared workload backend) must reproduce the standalone run_tuner
// trace bit for bit. The same sessions replayed from the service's
// own pnpoly sweep must too, because backends are deterministic.
TEST(TuningService, SessionTraceMatchesStandaloneRun) {
  auto specs = overlapping_specs(6);
  for (std::size_t s = 0; s < 6; ++s) {
    SessionSpec replay = specs[s];
    replay.backend = "replay";
    specs.push_back(std::move(replay));
  }

  ServiceOptions options;
  options.workers = 3;
  TuningService svc(options);
  const auto results = svc.run_all(specs);

  const auto bench = kernels::make("pnpoly");
  core::LiveBackend backend(*bench, 0);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto tuner = tuners::make_tuner(specs[s].tuner);
    const auto solo =
        tuners::run_tuner(*tuner, backend, specs[s].budget, specs[s].seed);
    ASSERT_EQ(results[s].status, SessionStatus::kCompleted)
        << results[s].error;
    ASSERT_EQ(results[s].run.trace.size(), solo.trace.size());
    for (std::size_t i = 0; i < solo.trace.size(); ++i) {
      EXPECT_EQ(results[s].run.trace[i].index, solo.trace[i].index);
      EXPECT_DOUBLE_EQ(results[s].run.trace[i].objective,
                       solo.trace[i].objective);
    }
  }
}

// A binary archive in dataset_dir serves replay sessions — and the
// traces it yields are identical to replaying the same rows from an
// in-memory registered dataset: where measurements live must never
// change what a session observes.
TEST(TuningService, ArchiveReplayFromDatasetDirMatchesInMemory) {
  namespace fs = std::filesystem;
  const auto dir = fs::path(::testing::TempDir()) / "svc_dataset_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto bench = kernels::make("pnpoly");
  auto dataset = core::Runner::run_exhaustive(*bench, 0);
  io::save_dataset((dir / ("pnpoly_" + bench->device_name(0) + ".bin"))
                       .string(),
                   dataset, io::DatasetFormat::kBinary);

  SessionSpec spec;
  spec.kernel = "pnpoly";
  spec.tuner = "genetic";
  spec.budget = 120;
  spec.seed = 9;
  spec.backend = "replay";

  ServiceOptions from_disk;
  from_disk.dataset_dir = dir.string();
  TuningService disk_svc(from_disk);
  const auto disk_result = disk_svc.run_inline(spec);
  ASSERT_EQ(disk_result.status, SessionStatus::kCompleted)
      << disk_result.error;

  TuningService memory_svc;
  memory_svc.register_dataset("pnpoly", 0, std::move(dataset));
  const auto memory_result = memory_svc.run_inline(spec);
  ASSERT_EQ(memory_result.status, SessionStatus::kCompleted)
      << memory_result.error;

  ASSERT_EQ(disk_result.run.trace.size(), memory_result.run.trace.size());
  for (std::size_t i = 0; i < disk_result.run.trace.size(); ++i) {
    EXPECT_EQ(disk_result.run.trace[i].index,
              memory_result.run.trace[i].index);
    EXPECT_DOUBLE_EQ(disk_result.run.trace[i].objective,
                     memory_result.run.trace[i].objective);
  }
}

// A registered dataset shadows an archive of the same key in
// dataset_dir, although registration resolves nothing until the first
// replay session builds its workload. The registered rows here are
// device 1's sweep under device 0's key, so the session must see
// device 1's measurements, not the archived device 0 ones.
TEST(TuningService, RegisteredDatasetShadowsArchiveInDatasetDir) {
  namespace fs = std::filesystem;
  const auto dir = fs::path(::testing::TempDir()) / "svc_shadowed_archive";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto bench = kernels::make("pnpoly");
  io::save_dataset((dir / ("pnpoly_" + bench->device_name(0) + ".bin"))
                       .string(),
                   core::Runner::run_exhaustive(*bench, 0),
                   io::DatasetFormat::kBinary);

  ServiceOptions options;
  options.dataset_dir = dir.string();
  TuningService svc(options);
  svc.register_dataset("pnpoly", 0, core::Runner::run_exhaustive(*bench, 1));

  SessionSpec spec;
  spec.kernel = "pnpoly";
  spec.tuner = "genetic";
  spec.budget = 120;
  spec.seed = 9;
  spec.backend = "replay";
  const auto result = svc.run_inline(spec);
  ASSERT_EQ(result.status, SessionStatus::kCompleted) << result.error;

  const auto tuner = tuners::make_tuner(spec.tuner);
  core::LiveBackend device0(*bench, 0);
  core::LiveBackend device1(*bench, 1);
  const auto archived =
      tuners::run_tuner(*tuner, device0, spec.budget, spec.seed);
  const auto registered =
      tuners::run_tuner(*tuner, device1, spec.budget, spec.seed);
  ASSERT_EQ(result.run.trace.size(), registered.trace.size());
  for (std::size_t i = 0; i < registered.trace.size(); ++i) {
    EXPECT_EQ(result.run.trace[i].index, registered.trace[i].index);
    EXPECT_DOUBLE_EQ(result.run.trace[i].objective,
                     registered.trace[i].objective);
  }
  ASSERT_TRUE(result.run.best && archived.best);
  EXPECT_NE(result.run.best->objective, archived.best->objective);
}

// run_inline executes on the calling thread and reproduces the pooled
// run of the same spec exactly; after shutdown it refuses to run.
TEST(TuningService, RunInlineMatchesPooledAndStopsAfterShutdown) {
  TuningService svc;
  SessionSpec spec;
  spec.kernel = "pnpoly";
  spec.tuner = "local";
  spec.budget = 30;
  spec.seed = 3;
  const auto pooled = svc.submit(spec).get();
  const auto inline_result = svc.run_inline(spec);

  ASSERT_EQ(pooled.status, SessionStatus::kCompleted) << pooled.error;
  ASSERT_EQ(inline_result.status, SessionStatus::kCompleted)
      << inline_result.error;
  ASSERT_EQ(inline_result.run.trace.size(), pooled.run.trace.size());
  for (std::size_t i = 0; i < pooled.run.trace.size(); ++i) {
    EXPECT_EQ(inline_result.run.trace[i].index, pooled.run.trace[i].index);
  }
  EXPECT_EQ(svc.sessions_submitted(), 2u);

  svc.shutdown();
  EXPECT_THROW((void)svc.run_inline(spec), std::runtime_error);
}

TEST(TuningService, FailuresAreReportedInBandNotThrown) {
  TuningService svc;
  SessionSpec bad;
  bad.kernel = "no-such-kernel";
  const auto result = svc.submit(bad).get();
  EXPECT_EQ(result.status, SessionStatus::kFailed);
  EXPECT_FALSE(result.error.empty());
}

// ---------------------------------------------------------- cancellation --

// shutdown() mid-generation: every in-flight session stops at its next
// batch boundary (partial trace, status kCancelled), queued sessions are
// cancelled before starting, no worker is left stuck — the test itself
// hanging is the failure mode, bounded by the ctest timeout.
TEST(TuningService, ShutdownCancelsInFlightSessionsAndDrains) {
  ServiceOptions options;
  options.workers = 2;
  TuningService svc(options);

  std::vector<std::future<SessionResult>> futures;
  for (std::size_t s = 0; s < 8; ++s) {
    SessionSpec spec;
    spec.kernel = "gemm";  // large space: plenty of work per session
    spec.tuner = "random";
    spec.budget = 200'000;  // far beyond what can finish before shutdown
    spec.seed = 100 + s;
    futures.push_back(svc.submit(std::move(spec)));
  }
  svc.shutdown();

  std::size_t cancelled = 0;
  for (auto& f : futures) {
    const auto r = f.get();  // must resolve: no broken promises
    EXPECT_NE(r.status, SessionStatus::kFailed) << r.error;
    if (r.status == SessionStatus::kCancelled) ++cancelled;
    EXPECT_LT(r.run.trace.size(), 200'000u);
  }
  // With a 200k budget nothing can have completed in time.
  EXPECT_EQ(cancelled, futures.size());
  EXPECT_EQ(svc.sessions_active(), 0u);

  // The service refuses new work after shutdown, idempotently.
  EXPECT_THROW((void)svc.submit(SessionSpec{}), std::runtime_error);
  svc.shutdown();
}

// A pre-set cancellation token stops a tuner before it spends anything:
// the hook path the service relies on, exercised without the service.
TEST(EvaluationHooks, PreSetTokenYieldsEmptyTrace) {
  const auto bench = kernels::make("pnpoly");
  core::LiveBackend backend(*bench, 0);
  const std::atomic<bool> cancel{true};
  core::EvaluationHooks hooks;
  hooks.cancel = &cancel;
  const auto tuner = tuners::make_tuner("random");
  const auto run = tuners::run_tuner(*tuner, backend, 50, 1, hooks);
  EXPECT_TRUE(run.trace.empty());
  EXPECT_FALSE(run.best.has_value());
}

}  // namespace
}  // namespace bat::service
