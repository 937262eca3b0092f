// End-to-end tests of the mrca CLI binary: checked numeric-flag parsing
// (malformed values must name the flag and exit non-zero), the unified
// rate-spec language, and golden strict-JSON output of `mrca sweep`.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "cli_harness.h"
#include "strict_json.h"

namespace {

using mrca::testing::CliResult;
using mrca::testing::run_cli;

TEST(CliNumericParsing, RejectsNonNumericAxisValue) {
  const CliResult result = run_cli("sweep --users abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--users"), std::string::npos);
  EXPECT_NE(result.output.find("abc"), std::string::npos);
}

TEST(CliNumericParsing, RejectsNegativePositionalUserCount) {
  // Before the checked parsers, atoi turned "-3" into a huge size_t via the
  // static_cast; now it must be rejected up front.
  const CliResult result = run_cli("solve -3 4 1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("'-3'"), std::string::npos);
}

TEST(CliNumericParsing, RejectsTrailingJunkInSeed) {
  const CliResult result = run_cli("solve 4 4 1 --seed 12x");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--seed"), std::string::npos);
}

TEST(CliNumericParsing, RejectsNonNumericSeconds) {
  const CliResult result = run_cli("simulate 2 2 1 --seconds abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--seconds"), std::string::npos);
}

TEST(CliNumericParsing, RejectsFractionalAxisEntry) {
  const CliResult result = run_cli("sweep --channels 4.8");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--channels"), std::string::npos);
}

TEST(CliNumericParsing, RejectsZeroReplicatesNamingTheFlag) {
  const CliResult replicates = run_cli("sweep --replicates 0");
  EXPECT_EQ(replicates.exit_code, 2);
  EXPECT_NE(replicates.output.find("--replicates"), std::string::npos);

  const CliResult sim_replicates = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim tdma "
      "--sim-replicates 0");
  EXPECT_EQ(sim_replicates.exit_code, 2);
  EXPECT_NE(sim_replicates.output.find("--sim-replicates"),
            std::string::npos);
}

TEST(CliNumericParsing, RejectsSimTuningFlagsWithoutSim) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim-seconds 5");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--sim"), std::string::npos);
}

TEST(CliNumericParsing, RejectsNonPositiveSimSeconds) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim tdma --sim-seconds 0");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--sim-seconds"), std::string::npos);
}

TEST(CliRateSpecs, SingleGameCommandsAcceptTheSweepLanguage) {
  // geom=/linear= used to be sweep-only; both parsers are now one.
  EXPECT_EQ(run_cli("solve 4 4 1 --rate geom=0.9").exit_code, 0);
  EXPECT_EQ(run_cli("solve 4 4 1 --rate linear=0.1").exit_code, 0);
}

TEST(CliRateSpecs, SweepAcceptsTheBianchiTables) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --rates dcf,dcf-opt "
      "--format csv");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("dcf-opt"), std::string::npos);
}

TEST(CliRateSpecs, UnknownRateIsRejectedEverywhere) {
  EXPECT_EQ(run_cli("solve 4 4 1 --rate bogus").exit_code, 2);
  EXPECT_EQ(run_cli("sweep --rates bogus").exit_code, 2);
}

TEST(CliRateSpecs, RejectsUnknownSimMac) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim csma");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("csma"), std::string::npos);
}

TEST(CliGoldenJson, SweepOutputIsStrictJson) {
  const CliResult result = run_cli(
      "sweep --users 3,4 --channels 3 --radios 1,2 "
      "--rates tdma,powerlaw=1 --replicates 2 --seed 5 --format json");
  ASSERT_EQ(result.exit_code, 0);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(result.output, &why)) << why;
}

TEST(CliGoldenJson, SimTierOutputIsStrictJson) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim tdma "
      "--sim-seconds 0.2 --seed 5 --format json");
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("\"sim_gap\""), std::string::npos);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(result.output, &why)) << why;
}

TEST(CliMetrics, UnknownMetricNamesTheFlagAndExits2) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --metrics garbage");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--metrics"), std::string::npos);
  EXPECT_NE(result.output.find("garbage"), std::string::npos);
  // The error teaches the registry.
  EXPECT_NE(result.output.find("welfare_eff"), std::string::npos);
}

TEST(CliMetrics, MetricColumnsAppearInCsvAndStayStrictInJson) {
  const std::string common =
      "sweep --users 3,4 --channels 3 --radios 1 "
      "--scenario \"energy=0.1,0.3\" --metrics nash,poa,welfare_eff,theorem1 "
      "--replicates 2 --seed 11";
  const CliResult csv = run_cli(common + " --format csv");
  ASSERT_EQ(csv.exit_code, 0);
  EXPECT_NE(csv.output.find("nash_ne_mean"), std::string::npos);
  EXPECT_NE(csv.output.find("poa_mean"), std::string::npos);
  EXPECT_NE(csv.output.find("theorem1_predicts_nash_mean"),
            std::string::npos);
  const CliResult json = run_cli(common + " --format json");
  ASSERT_EQ(json.exit_code, 0);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(json.output, &why)) << why;
  EXPECT_NE(json.output.find("\"metrics\":{"), std::string::npos);
  const CliResult table = run_cli(common + " --format table");
  ASSERT_EQ(table.exit_code, 0);
  EXPECT_NE(table.output.find("nash_ne"), std::string::npos);
}

TEST(CliMetrics, MetricsCsvIsIdenticalAcrossThreadCounts) {
  // The acceptance criterion, end to end through the real binary: metric
  // columns over a scenario sweep, byte-identical at any thread count.
  const std::string common =
      "sweep --users 3,4 --channels 3 --radios 1 "
      "--scenario \"energy=0.1,0.3;het=2:1;budgets=1:2\" "
      "--metrics nash,poa,welfare_eff,theorem1,distributed "
      "--replicates 2 --seed 11 --format csv";
  const CliResult one = run_cli(common + " --threads 1");
  const CliResult eight = run_cli(common + " --threads 8");
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(eight.exit_code, 0);
  EXPECT_EQ(one.output, eight.output);
}

TEST(CliSharding, RejectsMalformedShardFlagsNamingTheFlag) {
  for (const char* shard : {"x", "1", "2/2", "3/2", "1/0", "a/b"}) {
    const CliResult result = run_cli(
        std::string("sweep --users 3 --channels 3 --radios 1 --shard ") +
        shard);
    EXPECT_EQ(result.exit_code, 2) << shard;
    EXPECT_NE(result.output.find("--shard"), std::string::npos) << shard;
  }
}

TEST(CliSharding, ShardOutputIsStrictJsonWithTheSpecHeader) {
  const CliResult result = run_cli(
      "sweep --users 3,4 --channels 3 --radios 1 --replicates 2 --seed 5 "
      "--shard 0/2 --format json");
  ASSERT_EQ(result.exit_code, 0);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(result.output, &why)) << why;
  EXPECT_NE(result.output.find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(result.output.find("\"cell_begin\":0"), std::string::npos);
}

TEST(CliRecords, WritesOneStrictJsonLinePerRun) {
  const std::string path = ::testing::TempDir() + "mrca_cli_records.jsonl";
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --replicates 3 --seed 5 "
      "--records " + path + " --format csv");
  ASSERT_EQ(result.exit_code, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::string why;
    EXPECT_TRUE(mrca::testing::is_strict_json(line, &why)) << why;
  }
  EXPECT_EQ(lines, 3u);  // 1 cell x 3 replicates
}

TEST(CliSessionFlags, RejectedOutsideSweepNamingTheFlags) {
  // Sweep-only flags must be rejected — not silently ignored — elsewhere.
  for (const char* args :
       {"merge a.json b.json --records out.jsonl",
        "simulate 4 3 1 --shard 0/2", "solve 4 3 1 --progress"}) {
    const CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args;
    EXPECT_NE(result.output.find("apply only to the sweep command"),
              std::string::npos)
        << args;
  }
}

TEST(CliRecords, UnwritablePathExits2NamingTheFlag) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 "
      "--records /nonexistent-dir/records.jsonl");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--records"), std::string::npos);
}

TEST(CliDeterminism, SimTierCsvIsIdenticalAcrossThreadCounts) {
  const std::string common =
      "sweep --users 3,4 --channels 3 --radios 1 --rates dcf "
      "--replicates 2 --sim dcf --sim-seconds 0.1 --seed 11 --format csv";
  const CliResult one = run_cli(common + " --threads 1");
  const CliResult eight = run_cli(common + " --threads 8");
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(eight.exit_code, 0);
  EXPECT_EQ(one.output, eight.output);
}

TEST(CliTopology, MalformedSpecsNameTheFlagAndExit2) {
  // Each malformed topology must be rejected up front (exit 2), name the
  // offending flag, and echo the bad spec so the typo is findable.
  const char* bad[] = {
      "topology=bogus",      // unknown graph family
      "topology=ring:0",     // zero distance
      "topology=ring:9999",  // beyond the 1024 sanity bound
      "topology=grid:3x:1",  // non-square malformed grid
      "topology=grid:3x3",   // missing distance
      "topology=edges:0-0",  // self-loop
      "topology=edges:0",    // not an edge
  };
  for (const char* spec : bad) {
    const CliResult result =
        run_cli(std::string("sweep --users 4 --channels 4 --scenario \"") +
                spec + "\"");
    EXPECT_EQ(result.exit_code, 2) << spec;
    EXPECT_NE(result.output.find("--scenario"), std::string::npos) << spec;
  }
}

TEST(CliTopology, SweepCarriesTheTopologyColumns) {
  const CliResult result = run_cli(
      "sweep --users 6 --channels 4 --radios 2 "
      "--scenario \"topology=ring:1\" --replicates 2 --format csv");
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("coloring_bound_mean"), std::string::npos);
  EXPECT_NE(result.output.find("topology=ring:1"), std::string::npos);
}

TEST(CliTopology, CompleteTopologyNormalizesToBase) {
  // topology=complete is the degenerate global-load case; the parser folds
  // it into the base scenario so the cells are LITERALLY base cells.
  const std::string common =
      "sweep --users 4,6 --channels 4 --radios 1,2 --rates tdma,powerlaw=1 "
      "--replicates 2 --seed 5 --format csv --scenario ";
  const CliResult base = run_cli(common + "base");
  const CliResult complete = run_cli(common + "\"topology=complete\"");
  ASSERT_EQ(base.exit_code, 0);
  ASSERT_EQ(complete.exit_code, 0);
  EXPECT_EQ(base.output, complete.output);
}

TEST(CliTopology, TopologyCsvIsIdenticalAcrossThreadCounts) {
  const std::string common =
      "sweep --users 4:8:2 --channels 4 --radios 1,2 --rates powerlaw=1 "
      "--scenario \"base;topology=ring:2;topology=grid:2x2:1\" "
      "--replicates 3 --seed 9 --format csv";
  const CliResult one = run_cli(common + " --threads 1");
  const CliResult eight = run_cli(common + " --threads 8");
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(eight.exit_code, 0);
  EXPECT_EQ(one.output, eight.output);
}

// Byte lock on the single-game commands: full output and exit code of
// solve, verify (an equilibrium and a non-equilibrium), dynamics and
// simulate, each under TDMA and Bianchi DCF rates. The expected strings
// were captured from the binary before the single-game commands moved to
// GameModel, so any drift in Algorithm 1, the utility arithmetic, the
// Nash checks, the dynamics trajectory or the DES replay shows up here.
struct CliGolden {
  const char* args;
  int exit_code;
  const char* output;
};

const CliGolden kSingleGameGoldens[] = {
    {"solve 4 3 2", 0,
     R"(Algorithm 1 on N=4, k=2, C=3 with TDMA-constant(1):

       c1   c2   c3  
  u1     1    1    0 
  u2     1    0    1 
  u3     0    1    1 
  u4     1    1    0 
loads: [3, 3, 2] (delta = 1)

  U(u1) = 0.6667
  U(u2) = 0.8333
  U(u3) = 0.8333
  U(u4) = 0.6667
  welfare = 3.0000 (optimum 3.0000)

Theorem 1 predicate:   satisfied
single-move stability: stable
exact Nash (oracle):   equilibrium
price of anarchy:      1
)"},
    {"solve 5 4 2 --rate dcf", 0,
     R"(Algorithm 1 on N=5, k=2, C=4 with Bianchi-DCF(practical):

       c1   c2   c3   c4  
  u1     1    1    0    0 
  u2     0    0    1    1 
  u3     1    1    0    0 
  u4     0    0    1    1 
  u5     1    1    0    0 
loads: [3, 3, 2, 2] (delta = 1)

  U(u1) = 0.5579
  U(u2) = 0.8388
  U(u3) = 0.5579
  U(u4) = 0.8388
  U(u5) = 0.5579
  welfare = 3.3513 (optimum 3.3551)

Theorem 1 predicate:   satisfied
single-move stability: stable
exact Nash (oracle):   equilibrium
price of anarchy:      1.00116
)"},
    {"verify 4 3 2 '1,1,0|0,1,1|1,0,1|1,1,0'", 0,
     R"(       c1   c2   c3  
  u1     1    1    0 
  u2     0    1    1 
  u3     1    0    1 
  u4     1    1    0 
loads: [3, 3, 2] (delta = 1)

  U(u1) = 0.6667
  U(u2) = 0.8333
  U(u3) = 0.8333
  U(u4) = 0.6667
  welfare = 3.0000 (optimum 3.0000)

Theorem 1 predicate:   satisfied
single-move stability: stable
exact Nash (oracle):   equilibrium
)"},
    {"verify 4 3 2 '1,1,0|0,1,1|1,0,1|1,1,0' --rate dcf", 0,
     R"(       c1   c2   c3  
  u1     1    1    0 
  u2     0    1    1 
  u3     1    0    1 
  u4     1    1    0 
loads: [3, 3, 2] (delta = 1)

  U(u1) = 0.5579
  U(u2) = 0.6983
  U(u3) = 0.6983
  U(u4) = 0.5579
  welfare = 2.5125 (optimum 2.5163)

Theorem 1 predicate:   satisfied
single-move stability: stable
exact Nash (oracle):   equilibrium
)"},
    {"verify 3 3 1 '1,0,0|1,0,0|0,0,1'", 1,
     R"(       c1   c2   c3  
  u1     1    0    0 
  u2     1    0    0 
  u3     0    0    1 
loads: [2, 0, 1] (delta = 2)

  U(u1) = 0.5000
  U(u2) = 0.5000
  U(u3) = 1.0000
  welfare = 2.0000 (optimum 3.0000)

Theorem 1 predicate:   violated
single-move stability: unstable
exact Nash (oracle):   NOT an equilibrium
violations:
  [Theorem 1] user 1: theorem assumes |N|*k > |C| (conflict regime); use Fact 1
)"},
    {"verify 3 3 1 '1,0,0|1,0,0|0,0,1' --rate dcf", 1,
     R"(       c1   c2   c3  
  u1     1    0    0 
  u2     1    0    0 
  u3     0    0    1 
loads: [2, 0, 1] (delta = 2)

  U(u1) = 0.4194
  U(u2) = 0.4194
  U(u3) = 0.8388
  welfare = 1.6776 (optimum 2.5163)

Theorem 1 predicate:   violated
single-move stability: unstable
exact Nash (oracle):   NOT an equilibrium
violations:
  [Theorem 1] user 1: theorem assumes |N|*k > |C| (conflict regime); use Fact 1
)"},
    {"dynamics 4 3 2 --seed 7", 0,
     R"(random start:
       c1   c2   c3  
  u1     1    0    1 
  u2     0    0    2 
  u3     0    0    2 
  u4     2    0    0 

best-response dynamics: 4 improving moves, 8 activations, converged

       c1   c2   c3  
  u1     1    1    0 
  u2     0    1    1 
  u3     0    1    1 
  u4     1    0    1 
loads: [2, 3, 3] (delta = 1)

  U(u1) = 0.8333
  U(u2) = 0.6667
  U(u3) = 0.6667
  U(u4) = 0.8333
  welfare = 3.0000 (optimum 3.0000)

Theorem 1 predicate:   satisfied
single-move stability: stable
exact Nash (oracle):   equilibrium
)"},
    {"dynamics 5 4 2 --rate dcf --seed 11", 0,
     R"(random start:
       c1   c2   c3   c4  
  u1     2    0    0    0 
  u2     1    1    0    0 
  u3     1    1    0    0 
  u4     0    0    1    1 
  u5     1    0    1    0 

best-response dynamics: 1 improving moves, 6 activations, converged

       c1   c2   c3   c4  
  u1     0    0    1    1 
  u2     1    1    0    0 
  u3     1    1    0    0 
  u4     0    0    1    1 
  u5     1    0    1    0 
loads: [3, 2, 3, 2] (delta = 1)

  U(u1) = 0.6983
  U(u2) = 0.6983
  U(u3) = 0.6983
  U(u4) = 0.6983
  U(u5) = 0.5579
  welfare = 3.3513 (optimum 3.3551)

Theorem 1 predicate:   satisfied
single-move stability: stable
exact Nash (oracle):   equilibrium
)"},
    {"simulate 3 2 1 --seconds 1", 0,
     R"(equilibrium allocation:
       c1   c2  
  u1     1    0 
  u2     0    1 
  u3     1    0 
loads: [2, 1] (delta = 1)

| user | game prediction | simulated [Mbit/s] |
|------|-----------------|--------------------|
|   u1 |          0.5000 |             0.5000 |
|   u2 |          1.0000 |             0.9900 |
|   u3 |          0.5000 |             0.4900 |
total simulated: 1.98 Mbit/s over 1 s
)"},
    {"simulate 4 3 2 --rate dcf --seconds 1 --seed 3", 0,
     R"(equilibrium allocation:
       c1   c2   c3  
  u1     1    1    0 
  u2     1    0    1 
  u3     0    1    1 
  u4     1    1    0 
loads: [3, 3, 2] (delta = 1)

| user | game prediction | simulated [Mbit/s] |
|------|-----------------|--------------------|
|   u1 |          0.5579 |             0.4747 |
|   u2 |          0.6983 |             0.6547 |
|   u3 |          0.6983 |             0.7693 |
|   u4 |          0.5579 |             0.6302 |
total simulated: 2.52886 Mbit/s over 1 s
)"},
};

TEST(CliGoldenText, SingleGameCommandsAreByteIdentical) {
  for (const CliGolden& golden : kSingleGameGoldens) {
    SCOPED_TRACE(golden.args);
    const CliResult result = run_cli(golden.args);
    EXPECT_EQ(result.exit_code, golden.exit_code);
    EXPECT_EQ(result.output, golden.output);
  }
}

// Byte lock on the sweep writers: CSV, JSON, table and the --records JSONL
// of one sweep covering every scenario kind, every dynamics engine, the
// full metric set and the DCF sim tier. The files under tests/golden/sweep
// were captured from the binary before the writers moved to the shared
// column list; 8 cells there have an all-NaN efficiency and 4 carry the
// topology columns.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CliGoldenText, SweepWritersAreByteIdentical) {
  const std::string golden = MRCA_SWEEP_GOLDEN_DIR;
  const std::string sweep =
      "sweep --users 4 --channels 4 --radios 2 --rates dcf "
      "--scenario \"base;energy=0.2;het=2:1;budgets=1:3;weights=2:1;"
      "topology=ring:1\" --dynamics best_response,log_linear:0.2:0.01,"
      "trial_error:0.3,distributed:0.3 --metrics nash,single_move,theorem1,"
      "poa,welfare_eff,pareto,fairness,convergence,distributed,regret,"
      "occupancy_entropy --sim dcf --sim-seconds 0.05 --replicates 2 "
      "--seed 7";
  const std::string records =
      ::testing::TempDir() + "mrca_cli_golden_records.jsonl";
  for (const auto& [format, file] :
       {std::pair{"csv", "sweep.csv"}, std::pair{"json", "sweep.json"},
        std::pair{"table", "sweep.txt"}}) {
    SCOPED_TRACE(format);
    const CliResult result = run_cli(sweep + " --format " + format +
                                     " --records " + records);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    const std::string expected = read_file(golden + "/" + file);
    ASSERT_FALSE(expected.empty()) << golden << "/" << file;
    EXPECT_EQ(result.output, expected);
    EXPECT_EQ(read_file(records), read_file(golden + "/records.jsonl"));
  }
}

TEST(CliRegression, CrowdedStrictDcfSweepSucceeds) {
  // Single-move dynamics from random starts reach a channel carrying every
  // radio; the scan must not price a load beyond the strict DCF table.
  const CliResult result = run_cli(
      "sweep --users 4 --channels 3 --radios 1 --rates dcf "
      "--granularity single --replicates 8 --seed 1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

}  // namespace
