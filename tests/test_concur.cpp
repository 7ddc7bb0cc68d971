// Concurrency checker (src/verify/concur): the sim primitives under the
// DPOR scheduler, exhaustive exploration of the bounded protocol model,
// and the seeded mutation catalogue.
//
// Every explore() test is gated on checker_supported(): under
// ThreadSanitizer the fiber scheduler cannot run and the tests skip (the
// production protocol is what TSan builds exercise).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "verify/concur/model.hpp"
#include "verify/concur/ring_model.hpp"
#include "verify/concur/sim.hpp"

namespace flymon {
namespace {

using verify::concur::ExploreOptions;
using verify::concur::ExploreResult;
using verify::concur::ModelConfig;
using verify::concur::Mutation;
namespace sim = verify::concur::sim;

// ---- sim primitives under the scheduler ----

TEST(ConcurSim, AtomicIncrementsAreExactAcrossAllInterleavings) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::atomic<int> counter{0};
    sim::thread a([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    sim::thread b([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    a.join();
    b.join();
    sim::check(counter.load() == 2, "lost atomic increment");
  });
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.executions, 1u);  // the two RMWs are dependent: both orders
}

TEST(ConcurSim, UnsynchronisedVarWriteIsARace) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::var<int> shared{"test.shared", 0};
    sim::thread a([&] { shared.write(1); });
    shared.write(2);  // main thread races the spawned writer
    a.join();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("data race"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("test.shared"), std::string::npos) << r.error;
}

TEST(ConcurSim, MutexSerialisesVarAccess) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::mutex mu;
    sim::var<int> shared{"test.guarded", 0};
    sim::thread a([&] {
      sim::lock_guard lk(mu);
      shared.write(shared.read() + 1);
    });
    {
      sim::lock_guard lk(mu);
      shared.write(shared.read() + 1);
    }
    a.join();
    sim::check(shared.read() == 2, "lost guarded increment");
  });
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ConcurSim, ReleaseAcquireEdgePublishesPlainData) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::atomic<int> flag{0};
    sim::var<int> payload{"test.payload", 0};
    sim::thread producer([&] {
      payload.write(42);
      flag.store(1, std::memory_order_release);
    });
    // Spin-free consumer: only read the payload when the flag is up; the
    // acquire load orders the read after the producer's write.
    if (flag.load(std::memory_order_acquire) == 1) {
      sim::check(payload.read() == 42, "stale payload after acquire");
    }
    producer.join();
  });
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ConcurSim, RelaxedFlagDoesNotPublishPlainData) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::atomic<int> flag{0};
    sim::var<int> payload{"test.relaxed_payload", 0};
    sim::thread producer([&] {
      payload.write(42);
      flag.store(1, std::memory_order_relaxed);  // no release edge
    });
    if (flag.load(std::memory_order_relaxed) == 1) {
      (void)payload.read();  // unordered with the producer's write
    }
    producer.join();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("data race"), std::string::npos) << r.error;
}

TEST(ConcurSim, LostWakeupIsAStructuralDeadlock) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::mutex mu;
    sim::condvar cv;
    sim::thread waiter([&] {
      sim::lock_guard lk(mu);
      cv.wait(mu);  // nobody ever notifies
    });
    waiter.join();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos) << r.error;
}

// ---- bounded protocol model ----

TEST(ConcurModel, TinyCleanScenarioExploresExhaustively) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 1;
  cfg.publishes = 1;
  cfg.batches = 1;
  cfg.chunks = 1;
  cfg.collector = false;
  const ExploreResult r =
      verify::concur::check_protocol(cfg, ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.executions, 10u);
}

TEST(ConcurModel, TwoWorkerScenarioWithCollectorIsClean) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 2;
  cfg.publishes = 1;
  cfg.batches = 1;
  cfg.chunks = 2;
  cfg.collector = true;
  const ExploreResult r =
      verify::concur::check_protocol(cfg, ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ConcurModel, PublishVetoLeavesNoVetoedPlanObservable) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 1;
  cfg.publishes = 2;
  cfg.batches = 1;
  cfg.chunks = 1;
  cfg.collector = true;
  cfg.veto_last = true;  // validator rejects the final publish
  const ExploreResult r =
      verify::concur::check_protocol(cfg, ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ConcurModel, ExecutionBoundReportsTruncationNotSuccess) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 1;
  cfg.publishes = 1;
  cfg.batches = 1;
  cfg.chunks = 1;
  cfg.collector = false;
  ExploreOptions opts;
  opts.max_executions = 1;  // far below the scenario's interleaving count
  const ExploreResult r = verify::concur::check_protocol(cfg, opts);
  EXPECT_FALSE(r.failed) << r.error;
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.ok());
}

TEST(ConcurModel, EverySeededMutationIsCaught) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  for (Mutation m : verify::concur::all_mutations()) {
    const ExploreResult r = verify::concur::check_protocol(
        verify::concur::scenario_for(m), ExploreOptions{});
    EXPECT_TRUE(r.failed) << "mutation not caught: "
                          << verify::concur::to_string(m) << " after "
                          << r.executions << " execution(s)";
  }
}

TEST(ConcurModel, DeadlockMutationsReportBlockedThreads) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  for (Mutation m :
       {Mutation::kDroppedDoneNotify, Mutation::kInvertedLockOrder}) {
    SCOPED_TRACE(verify::concur::to_string(m));
    const ExploreResult r = verify::concur::check_protocol(
        verify::concur::scenario_for(m), ExploreOptions{});
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("deadlock"), std::string::npos) << r.error;
    EXPECT_FALSE(r.trace.empty());  // the failing schedule is reported
    if (m == Mutation::kInvertedLockOrder) {
      // The model checker is the only lock-order referee on the protocol:
      // the report must name the lock the blocked thread waits on.
      EXPECT_NE(r.error.find("exec.submit_mu"), std::string::npos)
          << r.error;
    }
  }
}

TEST(ConcurModel, RelaxedCompletionManifestsAsShardRace) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::check_protocol(
      verify::concur::scenario_for(Mutation::kRelaxedCompletion),
      ExploreOptions{});
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("data race"), std::string::npos) << r.error;
}

// ---- ingest ring model ----

TEST(ConcurRing, ShippedOrdersPassExhaustively) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::check_ring(
      verify::concur::ring_acceptance_config(), ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.complete) << "acceptance scenario must explore exhaustively";
}

TEST(ConcurRing, EveryWeakenedOrderIsCaught) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  for (verify::concur::RingMutation m : verify::concur::all_ring_mutations()) {
    const ExploreResult r = verify::concur::check_ring(
        verify::concur::ring_scenario_for(m), ExploreOptions{});
    EXPECT_TRUE(r.failed) << "ring mutation not caught: "
                          << verify::concur::to_string(m) << " after "
                          << r.executions << " execution(s)";
  }
}

}  // namespace
}  // namespace flymon
