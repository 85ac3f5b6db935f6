// The differential fuzz subsystem: catalog health, case-stream determinism
// and coverage, clean differential runs, the sabotage-driven
// find -> minimize -> repro pipeline, repro file IO, and replay of every
// checked-in corpus file (each of which pins a bug or regime the fuzzer
// once surfaced).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "fuzz/differ.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/fuzzer.hpp"

namespace mmdiag {
namespace {

bool equal_cases(const FuzzCase& a, const FuzzCase& b) {
  return a.spec == b.spec && a.delta == b.delta && a.pattern == b.pattern &&
         a.inject_seed == b.inject_seed && a.behavior == b.behavior &&
         a.behavior_seed == b.behavior_seed && a.rule == b.rule &&
         a.faults == b.faults;
}

TEST(FuzzCatalog, EveryEntryCertifiesUnderBothRulesAndLaddersAscend) {
  const auto& catalog = fuzz_catalog();
  ASSERT_GE(catalog.size(), 6u);  // the acceptance floor on family diversity
  FuzzContext ctx;
  for (const FuzzFamilyLadder& ladder : catalog) {
    SCOPED_TRACE(ladder.family);
    ASSERT_FALSE(ladder.sizes.empty());
    std::size_t previous_nodes = 0;
    for (const FuzzCatalogEntry& entry : ladder.sizes) {
      SCOPED_TRACE(entry.spec);
      ASSERT_GT(entry.delta, 0u);
      // setup() throws if kSpread cannot certify; the least-first config
      // must also be live or the differ would silently skip a rule.
      const FuzzSetup& s = ctx.setup(entry.spec, entry.delta);
      EXPECT_NE(s.least_first, nullptr);
      EXPECT_EQ(s.spread->rule(), ParentRule::kSpread);
      EXPECT_EQ(s.spread->delta(), entry.delta);
      // Theorem 1 needs kappa >= delta for N(U_r) = F.
      EXPECT_LE(entry.delta, s.spread->topology->info().connectivity);
      EXPECT_GT(s.graph().num_nodes(), previous_nodes)
          << "ladder must ascend so the minimizer can walk down";
      previous_nodes = s.graph().num_nodes();
    }
  }
}

TEST(FuzzStream, DeterministicForAGivenSeed) {
  FuzzOptions options;
  options.seed = 9;
  Fuzzer a(options), b(options);
  FuzzOptions other = options;
  other.seed = 10;
  Fuzzer c(other);
  bool any_difference = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(equal_cases(a.generate(i), b.generate(i))) << "index " << i;
    any_difference = any_difference || !equal_cases(a.generate(i), c.generate(i));
  }
  EXPECT_TRUE(any_difference) << "different seeds must give different streams";
}

TEST(FuzzStream, CoversFamiliesPatternsAndBothRegimes) {
  FuzzOptions options;
  options.seed = 1;
  Fuzzer fuzzer(options);
  std::set<std::string> families;
  std::set<InjectionPattern> patterns;
  std::size_t beyond = 0, fault_free = 0, at_delta = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const FuzzCase c = fuzzer.generate(i);
    families.insert(c.spec.substr(0, c.spec.find(' ')));
    patterns.insert(c.pattern);
    beyond += c.faults.size() > c.delta ? 1 : 0;
    fault_free += c.faults.empty() ? 1 : 0;
    at_delta += c.faults.size() == c.delta ? 1 : 0;
  }
  EXPECT_GE(families.size(), 6u);
  EXPECT_EQ(patterns.size(), 4u);
  EXPECT_GT(beyond, 0u) << "stream must leave the promised regime sometimes";
  EXPECT_GT(fault_free, 0u);
  EXPECT_GT(at_delta, 0u);
}

TEST(FuzzDifferential, CleanRunOnTheSeededStream) {
  FuzzOptions options;
  options.cases = 80;
  options.seed = 2026;
  Fuzzer fuzzer(options);
  const FuzzSummary summary = fuzzer.run();
  EXPECT_TRUE(summary.clean()) << summary.bugs.front().detail;
  EXPECT_EQ(summary.cases_run, 80u);
  EXPECT_FALSE(summary.budget_exhausted);
  std::uint64_t family_total = 0;
  for (const auto& [family, count] : summary.cases_per_family) {
    family_total += count;
  }
  EXPECT_EQ(family_total, summary.cases_run);
}

TEST(FuzzDifferential, BeyondDeltaSurroundPlusCentreFailsGracefully) {
  // F = N(0) + {0} on Q5 at delta 3: far beyond the bound and built to be
  // ambiguous. Graceful means: no exception, no over-delta claim, and the
  // verified configuration never lets an inconsistent success through.
  FuzzContext ctx;
  FuzzCase c;
  c.spec = "hypercube 5";
  c.delta = 3;
  c.pattern = InjectionPattern::kSurround;
  c.behavior = FaultyBehavior::kAllOne;
  c.faults = {0, 1, 2, 4, 8, 16};
  const DiffReport report = run_differential(ctx, c);
  EXPECT_TRUE(report.beyond_delta);
  EXPECT_FALSE(report.diverged())
      << report.divergences.front().config << ": "
      << report.divergences.front().detail;
}

TEST(FuzzDifferential, OutOfRangeFaultIdIsRejected) {
  FuzzContext ctx;
  FuzzCase c;
  c.spec = "star 4";
  c.delta = 3;
  c.faults = {9999};
  EXPECT_THROW((void)run_differential(ctx, c), std::invalid_argument);
}

TEST(FuzzDifferential, LargeHypercubeSetupsCarryTheirCsr) {
  // Every MM* voice draws its faults and oracles over FuzzSetup::graph(),
  // so a hypercube of 2^17 nodes, which a default engine calibrates on the
  // implicit view, must still come with its CSR.
  FuzzContext ctx;
  EXPECT_EQ(ctx.setup("hypercube 17", 17).graph().num_nodes(), 1u << 17);
}

TEST(FuzzSabotage, DropFaultIsFoundMinimizedAndReplayable) {
  FuzzOptions options;
  options.cases = 200;
  options.seed = 1;
  options.sabotage = Sabotage::kDropFault;
  Fuzzer fuzzer(options);
  const FuzzSummary summary = fuzzer.run();
  ASSERT_EQ(summary.bugs.size(), 1u);
  const FuzzBug& bug = summary.bugs.front();
  EXPECT_EQ(bug.config, "sabotage-drop-fault");
  // Dropping a fault only diverges when there is a fault to drop, so the
  // minimizer must bottom out at exactly one.
  EXPECT_EQ(bug.minimized.faults.size(), 1u);
  EXPECT_LE(bug.minimized.faults.size(), bug.original.faults.size());
  // The minimized case replays: diverges under the sabotage, clean without.
  EXPECT_TRUE(
      run_differential(fuzzer.context(), bug.minimized, Sabotage::kDropFault)
          .diverged());
  EXPECT_FALSE(
      run_differential(fuzzer.context(), bug.minimized, Sabotage::kNone)
          .diverged());
}

TEST(FuzzSabotage, RuleMismatchIsCaughtByTheAdoptingCtor) {
  // The historical bug class: adopting a kSpread-calibrated partition with
  // kLeastFirst options. Every case trips it, so the minimizer must reach
  // a fault-free case; the divergence must be the ctor's rejection, not a
  // silent wrong diagnosis. MM*-only stream: the adopting ctor is an MM*
  // driver detail (model_fuzz_test covers the directed sabotage analogues).
  FuzzOptions options;
  options.cases = 10;
  options.seed = 3;
  options.models = {DiagnosisModel::kMMStar};
  options.sabotage = Sabotage::kRuleMismatch;
  Fuzzer fuzzer(options);
  const FuzzSummary summary = fuzzer.run();
  ASSERT_EQ(summary.bugs.size(), 1u);
  const FuzzBug& bug = summary.bugs.front();
  EXPECT_EQ(bug.config, "sabotage-rule-mismatch");
  EXPECT_NE(bug.detail.find("calibration rule"), std::string::npos)
      << bug.detail;
  EXPECT_TRUE(bug.minimized.faults.empty());
}

TEST(ReproFiles, RoundTripPreservesEveryField) {
  FuzzCase c;
  c.spec = "kary_ncube 2 6";
  c.delta = 3;
  c.pattern = InjectionPattern::kTargeted;
  c.inject_seed = 0xfeedface12345678ULL;
  c.behavior = FaultyBehavior::kAntiDiagnostic;
  c.behavior_seed = 42;
  c.faults = {3, 17, 21};
  std::stringstream ss;
  write_repro(ss, c);
  EXPECT_TRUE(equal_cases(c, read_repro(ss)));

  FuzzCase empty = c;
  empty.faults.clear();
  std::stringstream ss2;
  write_repro(ss2, empty);
  EXPECT_TRUE(equal_cases(empty, read_repro(ss2)));

  // The rule provenance line round-trips through the shared
  // parent_rule_to_string/parent_rule_from_string helpers.
  FuzzCase ruled = c;
  ruled.rule = ParentRule::kLeastFirst;
  std::stringstream ss3;
  write_repro(ss3, ruled);
  EXPECT_NE(ss3.str().find("rule least-first"), std::string::npos);
  EXPECT_TRUE(equal_cases(ruled, read_repro(ss3)));
}

TEST(ReproFiles, RuleLineIsOptionalForOlderReprosAndValidated) {
  // Corpus files written before the rule line existed must keep parsing
  // (defaulting to spread)...
  std::istringstream legacy(
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior random\nbehavior-seed 2\nfaults 1 2\nend\n");
  const FuzzCase c = read_repro(legacy);
  EXPECT_EQ(c.rule, ParentRule::kSpread);
  EXPECT_EQ(c.faults, (std::vector<Node>{1, 2}));
  // ... while an unknown rule name is a line-numbered parse error.
  std::istringstream bad(
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior random\nbehavior-seed 2\nrule fastest\n"
      "faults 1\nend\n");
  try {
    (void)read_repro(bad);
    FAIL() << "accepted unknown rule name";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 8"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("fastest"), std::string::npos);
  }
}

TEST(ReproFiles, MalformedInputsThrowWithLineNumbers) {
  const auto expect_bad = [](const std::string& text) {
    std::istringstream in(text);
    try {
      (void)read_repro(in);
      FAIL() << "accepted malformed repro:\n" << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << e.what();
    }
  };
  expect_bad("mmdiag-syndrome v1\n");
  expect_bad("mmdiag-repro v1\nspec star 4\ndelta 0\n");
  // The reported number must be the offending line, not the one before it.
  {
    std::istringstream in("mmdiag-repro v1\nspec star 4\ndelta zz\n");
    try {
      (void)read_repro(in);
      FAIL();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  expect_bad("mmdiag-repro v1\nspec star 4\ndelta 3\npattern diagonal\n");
  expect_bad(
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior liar\n");
  expect_bad(
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior random\nbehavior-seed 1\nfaults 1 junk\nend\n");
  expect_bad(
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior random\nbehavior-seed 1\nfaults 2 2\nend\n");
  expect_bad(
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior random\nbehavior-seed 1\nfaults 1\n");
}

TEST(ReproCorpus, EveryCheckedInReproReplaysClean) {
  // Every file under tests/corpus pins a case the fuzzer (or a session)
  // once flagged; a divergence here is a regression of a fixed bug.
  namespace fs = std::filesystem;
  const fs::path dir(MMDIAG_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(dir)) << dir.string();
  FuzzContext ctx;
  std::size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.is_open());
    const FuzzCase c = read_repro(in);
    const DiffReport report = run_differential(ctx, c);
    EXPECT_FALSE(report.diverged())
        << report.divergences.front().config << ": "
        << report.divergences.front().detail;
    ++replayed;
  }
  EXPECT_GE(replayed, 3u);
}

}  // namespace
}  // namespace mmdiag
