// Batches of syndromes: ThreadPool correctness, the cohort planner, and
// DiagnosisEngine::serve used as a batch diagnoser, bit-identical to the
// sequential Diagnoser across topology families, batch sizes and lane
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cohort_planner.hpp"
#include "core/diagnoser.hpp"
#include "engine/engine.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  std::vector<unsigned> lane_of(kCount, ~0u);
  pool.parallel_for(kCount, [&](unsigned lane, std::size_t i) {
    // No gtest calls on worker threads; record and assert afterwards.
    lane_of[i] = lane;
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    ASSERT_LT(lane_of[i], pool.size()) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](unsigned lane, std::size_t i) {
    EXPECT_EQ(lane, 0u);
    order.push_back(i);  // no synchronisation needed: inline execution
  });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(3);
  pool.parallel_for(0, [&](unsigned, std::size_t) { FAIL(); });
}

TEST(ThreadPool, FewerItemsThanLanes) {
  // Lanes beyond the item count must park without touching any index and
  // without deadlocking the join.
  ThreadPool pool(8);
  for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}}) {
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, [&](unsigned lane, std::size_t i) {
      (void)lane;
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(ThreadPool, SingleItemManyLanes) {
  ThreadPool pool(6);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    pool.parallel_for(1, [&](unsigned, std::size_t i) {
      ASSERT_EQ(i, 0u);
      ++hits;
    });
    ASSERT_EQ(hits.load(), 1);
  }
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  ThreadPool pool(4);
  const auto boom = [](unsigned, std::size_t i) {
    if (i == 37) throw std::runtime_error("lane exploded");
  };
  EXPECT_THROW(pool.parallel_for(100, boom), std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<std::size_t> done{0};
  pool.parallel_for(50, [&](unsigned, std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 50u);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(101, [&](unsigned, std::size_t i) { sum += i; });
    ASSERT_EQ(sum.load(), 101u * 100u / 2u);
  }
}

// ---------------------------------------------------------------------------

/// A deterministic mixed batch over `spec`: fault counts 0..delta cycling,
/// all four faulty-tester behaviours.
struct TestBatch {
  std::vector<FaultSet> faults;
  std::vector<LazyOracle> oracles;
  std::vector<const SyndromeOracle*> ptrs;
};

TestBatch make_batch(const test::Instance& inst, unsigned delta,
                     std::size_t count) {
  TestBatch batch;
  batch.faults.reserve(count);
  batch.oracles.reserve(count);
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(1000 + i);
    batch.faults.emplace_back(
        inst.graph.num_nodes(),
        inject_uniform(inst.graph.num_nodes(), i % (delta + 1), rng));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.oracles.emplace_back(inst.graph, batch.faults[i], kBehaviors[i % 4],
                               i);
  }
  for (const LazyOracle& o : batch.oracles) batch.ptrs.push_back(&o);
  return batch;
}

void expect_equivalent(const DiagnosisResult& seq, const DiagnosisResult& bat,
                       std::size_t item) {
  ASSERT_EQ(seq.success, bat.success) << "item " << item;
  ASSERT_EQ(seq.faults, bat.faults) << "item " << item;
  ASSERT_EQ(seq.lookups, bat.lookups) << "item " << item;
  ASSERT_EQ(seq.probes, bat.probes) << "item " << item;
  ASSERT_EQ(seq.certified_component, bat.certified_component)
      << "item " << item;
}

/// One serve() request per oracle, all sent as `spec`.
std::vector<EngineRequest> requests_for(
    const std::string& spec, const std::vector<const SyndromeOracle*>& oracles) {
  std::vector<EngineRequest> requests;
  for (const SyndromeOracle* oracle : oracles) {
    requests.push_back({spec, oracle, nullptr, kNoNode});
  }
  return requests;
}

TEST(ServeBatch, BitIdenticalToSequentialAcrossFamilies) {
  for (const char* spec : {"hypercube 7", "star 5", "kary_ncube 4 4"}) {
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    Diagnoser sequential(*inst.topo, inst.graph);
    const TestBatch batch = make_batch(inst, sequential.delta(), 12);

    std::vector<DiagnosisResult> truth;
    for (const SyndromeOracle* oracle : batch.ptrs) {
      truth.push_back(sequential.diagnose(*oracle));
    }

    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      EngineOptions options;
      options.threads = threads;
      DiagnosisEngine engine(options);
      EXPECT_EQ(engine.threads(), threads);
      const std::vector<DiagnosisResult> served =
          engine.serve(requests_for(spec, batch.ptrs));
      ASSERT_EQ(served.size(), batch.ptrs.size());
      for (std::size_t i = 0; i < truth.size(); ++i) {
        expect_equivalent(truth[i], served[i], i);
      }
      EXPECT_EQ(engine.calibration(spec)->delta(), sequential.delta());
    }
  }
}

TEST(ServeBatch, FailedItemsKeepTheirCostAndDoNotPoisonTheBatch) {
  // One undiagnosable syndrome (every probed seed faulty, all-one testers)
  // mixed into healthy traffic: its slot reports failure with nonzero
  // look-ups, every other slot is unaffected.
  test::Instance inst("hypercube 7");
  Diagnoser sequential(*inst.topo, inst.graph);
  const PartitionPlan& plan = *sequential.partition().plan;
  std::vector<Node> seeds;
  for (std::uint32_t c = 0; c < 8; ++c) seeds.push_back(plan.seed_of(c));
  const FaultSet poisoned(inst.graph.num_nodes(), seeds);  // |F| = 8 > 7
  Rng rng(3);
  const FaultSet healthy(inst.graph.num_nodes(),
                         inject_uniform(inst.graph.num_nodes(), 2, rng));

  const LazyOracle bad(inst.graph, poisoned, FaultyBehavior::kAllOne, 0);
  // Two distinct oracles over the same fault set: each oracle may be
  // consulted by exactly one lane (the look-up counter is unsynchronised).
  const LazyOracle good_a(inst.graph, healthy, FaultyBehavior::kRandom, 1);
  const LazyOracle good_b(inst.graph, healthy, FaultyBehavior::kRandom, 1);
  EngineOptions options;
  options.threads = 2;
  DiagnosisEngine engine(options);
  const std::vector<DiagnosisResult> served =
      engine.serve(requests_for("hypercube 7", {&good_a, &bad, &good_b}));

  ASSERT_EQ(served.size(), 3u);
  EXPECT_FALSE(served[1].success);
  EXPECT_GT(served[1].lookups, 0u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(served[i].success) << served[i].failure_reason;
    EXPECT_EQ(test::sorted(served[i].faults), test::sorted(healthy.nodes()));
  }
}

/// The same deterministic workload as make_batch, materialised as
/// syndrome tables so the bitsliced cohort path engages.
struct TableTestBatch {
  std::vector<FaultSet> faults;
  std::vector<Syndrome> syndromes;
  std::vector<TableOracle> oracles;
  std::vector<const SyndromeOracle*> ptrs;
};

TableTestBatch make_table_batch(const test::Instance& inst, unsigned delta,
                                std::size_t count) {
  TableTestBatch batch;
  batch.faults.reserve(count);
  batch.syndromes.reserve(count);
  batch.oracles.reserve(count);
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(1000 + i);
    batch.faults.emplace_back(
        inst.graph.num_nodes(),
        inject_uniform(inst.graph.num_nodes(), i % (delta + 1), rng));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.syndromes.push_back(generate_syndrome(inst.graph, batch.faults[i],
                                                kBehaviors[i % 4], i));
    batch.oracles.emplace_back(inst.graph, batch.syndromes.back());
  }
  for (const TableOracle& o : batch.oracles) batch.ptrs.push_back(&o);
  return batch;
}

TEST(ServeBatch, EmptyAndSingletonBatches) {
  // An empty stream returns nothing. One table request is far below cohort
  // width: it must take the scalar path without stalling four lanes, and
  // equal its direct solve.
  EngineOptions options;
  options.threads = 4;
  DiagnosisEngine engine(options);
  EXPECT_TRUE(engine.serve({}).empty());

  test::Instance inst("star 5");
  Diagnoser sequential(*inst.topo, inst.graph);
  const TableTestBatch batch = make_table_batch(inst, sequential.delta(), 1);
  const std::vector<DiagnosisResult> served =
      engine.serve(requests_for("star 5", batch.ptrs));
  ASSERT_EQ(served.size(), 1u);
  ASSERT_TRUE(served[0].success) << served[0].failure_reason;
  expect_equivalent(sequential.diagnose(*batch.ptrs[0]), served[0], 0);
}

TEST(OracleShape, OracleOverAnotherGraphShapeIsRejected) {
  // Two strays fed to a hypercube 7 solver: a hypercube 5 syndrome, and
  // one over hypercube 7 minus an edge, which only its minimum degree
  // tells apart. Every entry point refuses each, alone and after 63
  // matched tables, with both shapes named, before reading a single
  // result. serve() turns the same refusal into a failed result
  // (engine_test's ServeFailsRequestsWhoseOracleAddressesAnotherGraph).
  test::Instance q7("hypercube 7");
  test::Instance q5("hypercube 5");
  const Graph cut = test::without_edge(q7.graph, 126, 127);
  Diagnoser solver(*q7.topo, q7.graph);
  const TableTestBatch matched = make_table_batch(q7, solver.delta(), 63);
  const TableTestBatch small = make_table_batch(q5, 3, 1);
  const Syndrome cut_syndrome = generate_syndrome(
      cut, FaultSet(cut.num_nodes(), {}), FaultyBehavior::kRandom, 1);
  const TableOracle cut_oracle(cut, cut_syndrome);
  const std::string solver_shape =
      ", but the solver's graph has 128 nodes of degree 7";
  const struct {
    const TableOracle& oracle;
    std::string shape;
  } strays[] = {{small.oracles[0], "32 nodes of degree 5"},
                {cut_oracle, "128 nodes of degree 6..7"}};

  for (const auto& entry : strays) {
    SCOPED_TRACE(entry.shape);
    const TableOracle& stray = entry.oracle;
    const std::string reason =
        "the oracle addresses a graph of " + entry.shape + solver_shape;
    auto expect_rejected = [&](auto&& call, const char* who) {
      try {
        call();
        ADD_FAILURE() << who << " accepted an oracle over another graph";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
            << who << ": " << e.what();
      }
    };
    std::vector<const TableOracle*> lanes;
    for (const TableOracle& o : matched.oracles) lanes.push_back(&o);
    lanes.push_back(&stray);

    expect_rejected([&] { (void)solver.diagnose(stray); }, "diagnose");
    expect_rejected([&] { (void)solver.diagnose_cohort({&stray}); },
                    "diagnose_cohort alone");
    expect_rejected([&] { (void)solver.diagnose_cohort(lanes); },
                    "diagnose_cohort");
    expect_rejected(
        [&] {
          BitSlicedOracle sliced(q7.graph);
          (void)sliced.add_lane(stray);
        },
        "add_lane alone");
    expect_rejected(
        [&] {
          BitSlicedOracle sliced(q7.graph);
          for (const TableOracle* lane : lanes) (void)sliced.add_lane(*lane);
        },
        "add_lane");
    EXPECT_EQ(stray.lookups(), 0u);
  }
}

TEST(CohortPlanner, CutsEveryRunIntoNearEqualOrderedCohorts) {
  // One run of n requests, n = 0..200: every index lands exactly once,
  // request order holds within and across cohorts, and cohort widths lie
  // in [32, 64] and differ by at most one. Below 64 nothing forms.
  for (std::size_t n = 0; n <= 200; ++n) {
    SCOPED_TRACE(n);
    const CohortPlan plan = plan_cohorts(std::vector<std::size_t>(n, 0));
    if (n < BitSlicedOracle::kMaxLanes) {
      EXPECT_TRUE(plan.cohorts.empty());
      EXPECT_EQ(plan.scalar.size(), n);
    } else {
      EXPECT_TRUE(plan.scalar.empty());
      EXPECT_EQ(plan.cohorts.size(), (n + 63) / 64);
    }
    std::vector<std::size_t> seen = plan.scalar;
    std::size_t narrowest = SIZE_MAX;
    std::size_t widest = 0;
    for (const std::vector<std::size_t>& cohort : plan.cohorts) {
      narrowest = std::min(narrowest, cohort.size());
      widest = std::max(widest, cohort.size());
      seen.insert(seen.end(), cohort.begin(), cohort.end());
    }
    if (!plan.cohorts.empty()) {
      EXPECT_GE(narrowest, 32u);
      EXPECT_LE(widest, 64u);
      EXPECT_LE(widest - narrowest, 1u);
    }
    // Concatenated in plan order, the indices are exactly 0..n-1.
    std::vector<std::size_t> expected(n);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(seen, expected);
  }
}

TEST(CohortPlanner, RunsStaySeparateAndUnrunRequestsStayScalar) {
  // Two interleaved runs (65 and 63 requests) and some requests with no
  // run: the 65-run makes two cohorts, the 63-run and the rest stay
  // scalar.
  std::vector<std::size_t> run_of;
  for (std::size_t i = 0; i < 160; ++i) {
    run_of.push_back(i % 5 == 4 ? kNoRun : i % 2 == 0 ? 3 : 7);
  }
  // Run 3 holds the even indices not ≡ 4 (mod 5): 64 of them; run 7 the
  // odd ones: 64. Move one request from run 7 to run 3.
  run_of[1] = 3;
  const CohortPlan plan = plan_cohorts(run_of);
  ASSERT_EQ(plan.cohorts.size(), 2u);
  EXPECT_EQ(plan.cohorts[0].size(), 33u);
  EXPECT_EQ(plan.cohorts[1].size(), 32u);
  EXPECT_LT(plan.cohorts[0].back(), plan.cohorts[1].front());
  for (const std::vector<std::size_t>& cohort : plan.cohorts) {
    for (const std::size_t i : cohort) EXPECT_EQ(run_of[i], 3u) << i;
    EXPECT_TRUE(std::is_sorted(cohort.begin(), cohort.end()));
  }
  EXPECT_EQ(plan.scalar.size(), 160u - 65u);
  EXPECT_TRUE(std::is_sorted(plan.scalar.begin(), plan.scalar.end()));
  for (const std::size_t i : plan.scalar) EXPECT_NE(run_of[i], 3u) << i;
}

}  // namespace
}  // namespace mmdiag
