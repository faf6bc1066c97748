// Error-path tests for the umicro_cli binary: every misuse prints one
// diagnostic line on stderr and exits non-zero BEFORE any clustering
// work starts. Usage errors (bad flags, bad combinations) exit 2;
// environment errors (missing input, unwritable destinations) exit 1.
//
// These run the real binary (path injected by CMake as UMICRO_CLI_PATH)
// so the exit status the shell sees is exactly what is asserted.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include <gtest/gtest.h>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string stderr_text;
};

CliResult RunCli(const std::string& args) {
  const std::string stderr_path = testing::TempDir() + "/cli_stderr.txt";
  const std::string command = std::string(UMICRO_CLI_PATH) + " " + args +
                              " >/dev/null 2>" + stderr_path;
  const int status = std::system(command.c_str());
  CliResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream file(stderr_path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  result.stderr_text = buffer.str();
  std::remove(stderr_path.c_str());
  return result;
}

std::size_t LineCount(const std::string& text) {
  std::size_t lines = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

/// The common shape of a usage error: exit 2, a diagnostic mentioning
/// the offending flag, exactly one line of it.
void ExpectUsageError(const std::string& args, const std::string& needle) {
  SCOPED_TRACE(args);
  const CliResult result = RunCli(args);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find(needle), std::string::npos)
      << "stderr was: " << result.stderr_text;
  EXPECT_EQ(LineCount(result.stderr_text), 1u)
      << "stderr was: " << result.stderr_text;
}

void ExpectEnvironmentError(const std::string& args,
                            const std::string& needle) {
  SCOPED_TRACE(args);
  const CliResult result = RunCli(args);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find(needle), std::string::npos)
      << "stderr was: " << result.stderr_text;
  EXPECT_EQ(LineCount(result.stderr_text), 1u)
      << "stderr was: " << result.stderr_text;
}

TEST(CliErrorsTest, MissingInputSelectionPrintsUsage) {
  const CliResult result = RunCli("--nmicro=10");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find(
                "exactly one of --input and --synthetic"),
            std::string::npos);
}

TEST(CliErrorsTest, UnknownFlagPrintsUsage) {
  const CliResult result = RunCli("--synthetic=syndrift --no-such-flag");
  EXPECT_EQ(result.exit_code, 2);
  // The usage text is generated from the CLI's flag table; every flag it
  // names must be documented in the one flag reference.
  std::ifstream doc_file(UMICRO_TOOLS_DOC);
  ASSERT_TRUE(doc_file.good()) << UMICRO_TOOLS_DOC;
  std::ostringstream doc;
  doc << doc_file.rdbuf();
  std::istringstream usage(result.stderr_text);
  std::size_t flags_seen = 0;
  for (std::string line; std::getline(usage, line);) {
    if (line.rfind("  ", 0) != 0) continue;  // flag rows are indented
    for (std::size_t at = line.find("--"); at != std::string::npos;
         at = line.find("--", at + 2)) {
      std::size_t end = at + 2;
      while (end < line.size() &&
             (std::islower(static_cast<unsigned char>(line[end])) != 0 ||
              line[end] == '-')) {
        ++end;
      }
      const std::string flag = line.substr(at, end - at);
      ++flags_seen;
      EXPECT_NE(doc.str().find("`" + flag), std::string::npos)
          << flag << " is missing from docs/tools.md";
    }
  }
  EXPECT_GE(flags_seen, 58u);
}

TEST(CliErrorsTest, UnknownSyntheticWorkload) {
  ExpectUsageError("--synthetic=bogus --points=100",
                   "unknown synthetic workload");
}

TEST(CliErrorsTest, RecoverRequiresCheckpointDir) {
  ExpectUsageError("--synthetic=syndrift --points=100 --recover",
                   "--recover requires --checkpoint-dir");
}

TEST(CliErrorsTest, CheckpointCadenceRequiresCheckpointDir) {
  ExpectUsageError(
      "--synthetic=syndrift --points=100 --checkpoint-every=50",
      "require --checkpoint-dir");
}

TEST(CliErrorsTest, CheckpointingRefusesBaselineAlgorithms) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--algorithm=clustream --checkpoint-dir=" +
                       testing::TempDir() + "/cli_ckpt",
                   "--checkpoint-dir requires --algorithm=umicro");
}

TEST(CliErrorsTest, DegradeRequiresThreads) {
  ExpectUsageError("--synthetic=syndrift --points=100 --degrade",
                   "--degrade requires --threads");
}

TEST(CliErrorsTest, QuarantineOutRequiresPolicy) {
  ExpectUsageError("--synthetic=syndrift --points=100 --quarantine-out=" +
                       testing::TempDir() + "/cli_quarantine.csv",
                   "--quarantine-out requires --bad-record-policy");
}

TEST(CliErrorsTest, InjectFaultsRequiresPolicy) {
  ExpectUsageError(
      "--synthetic=syndrift --points=100 --inject-faults=corrupt=0.1",
      "--inject-faults requires --bad-record-policy");
}

TEST(CliErrorsTest, UnknownBadRecordPolicy) {
  ExpectUsageError(
      "--synthetic=syndrift --points=100 --bad-record-policy=explode",
      "unknown --bad-record-policy");
}

TEST(CliErrorsTest, MalformedFaultSpec) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--bad-record-policy=repair "
                   "--inject-faults=corrupt=2.0",
                   "malformed --inject-faults spec");
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--bad-record-policy=repair "
                   "--inject-faults=frobnicate=0.1",
                   "malformed --inject-faults spec");
}

TEST(CliErrorsTest, StandbyRequiresLeafRole) {
  ExpectUsageError("--role=agg --listen=127.0.0.1:0 --dims=4 "
                   "--standby=127.0.0.1:9100",
                   "--standby requires --role=leaf");
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--standby=127.0.0.1:9100",
                   "--standby requires --role=leaf");
}

TEST(CliErrorsTest, LeafOnlyShardingFlagsRejectOtherRoles) {
  ExpectUsageError("--role=agg --listen=127.0.0.1:0 --dims=4 "
                   "--delta-every=100",
                   "require --role=leaf");
  ExpectUsageError("--role=query --connect=127.0.0.1:9100 --stride=2",
                   "require --role=leaf");
  ExpectUsageError("--synthetic=syndrift --points=100 --offset=1",
                   "require --role=leaf");
}

TEST(CliErrorsTest, StartAsStandbyRequiresAggRole) {
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 --start-as-standby",
                   "--start-as-standby requires --role=agg");
}

TEST(CliErrorsTest, StaleAfterRequiresAggRole) {
  ExpectUsageError("--role=query --connect=127.0.0.1:9100 "
                   "--stale-after=2",
                   "--stale-after requires --role=agg");
}

TEST(CliErrorsTest, NegativeStaleAfter) {
  ExpectUsageError("--role=agg --listen=127.0.0.1:0 --dims=4 "
                   "--stale-after=-1",
                   "--stale-after must be >= 0");
}

TEST(CliErrorsTest, NetChaosRequiresDistRole) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--net-chaos=drop=0.1",
                   "--net-chaos requires --role=leaf or --role=agg");
  ExpectUsageError("--role=query --connect=127.0.0.1:9100 "
                   "--net-chaos=drop=0.1",
                   "--net-chaos requires --role=leaf or --role=agg");
}

TEST(CliErrorsTest, MalformedNetChaosSpec) {
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 "
                   "--net-chaos=frob=1",
                   "malformed --net-chaos spec");
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 "
                   "--net-chaos=drop=1.5",
                   "malformed --net-chaos spec");
}

TEST(CliErrorsTest, MalformedStandbyList) {
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 "
                   "--standby=nonsense",
                   "malformed --standby list");
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 "
                   "--standby=127.0.0.1:9100,,127.0.0.1:9101",
                   "malformed --standby list");
}

TEST(CliErrorsTest, UnknownSnapshotStoreMode) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--snapshot-store=bogus",
                   "unknown --snapshot-store");
}

TEST(CliErrorsTest, SnapshotBudgetRequiresTieredStore) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--snapshot-budget-mb=8",
                   "require --snapshot-store=tiered");
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--snapshot-store=delta --snapshot-budget-mb=8",
                   "require --snapshot-store=tiered");
  ExpectUsageError("--synthetic=syndrift --points=100 --snapshot-spill-dir=" +
                       testing::TempDir() + "/cli_spill",
                   "require --snapshot-store=tiered");
}

TEST(CliErrorsTest, UnusableSnapshotSpillDir) {
  const std::string blocker = testing::TempDir() + "/cli_spill_blocker";
  std::ofstream(blocker) << "x";
  ExpectEnvironmentError("--synthetic=syndrift --points=100 "
                         "--snapshot-store=tiered --snapshot-spill-dir=" +
                             blocker + "/nested",
                         "cannot create --snapshot-spill-dir");
  std::remove(blocker.c_str());
}

TEST(CliErrorsTest, MissingInputFile) {
  ExpectEnvironmentError("--input=/no/such/file.csv",
                         "input file not found");
}

TEST(CliErrorsTest, UnwritableMetricsOut) {
  ExpectEnvironmentError("--synthetic=syndrift --points=100 "
                         "--metrics-out=/no/such/dir/metrics",
                         "--metrics-out is not writable");
}

TEST(CliErrorsTest, UnwritableCentroidsOut) {
  ExpectEnvironmentError("--synthetic=syndrift --points=100 "
                         "--centroids-out=/no/such/dir/centroids.csv",
                         "--centroids-out is not writable");
}

TEST(CliErrorsTest, UnusableCheckpointDir) {
  // A checkpoint "directory" nested under a regular file can never be
  // created.
  const std::string blocker = testing::TempDir() + "/cli_blocker_file";
  std::ofstream(blocker) << "x";
  ExpectEnvironmentError("--synthetic=syndrift --points=100 "
                         "--checkpoint-dir=" +
                             blocker + "/nested",
                         "--checkpoint-dir is not usable");
  std::remove(blocker.c_str());
}

TEST(CliErrorsTest, NonNumericFlagValues) {
  // Text, trailing junk, empty values and non-finite reals are rejected
  // instead of silently reading as 0.
  ExpectUsageError("--synthetic=syndrift --points=abc",
                   "invalid --points=abc");
  ExpectUsageError("--synthetic=syndrift --snapshot-every=abc",
                   "invalid --snapshot-every=abc");
  ExpectUsageError("--synthetic=syndrift --points=100x",
                   "invalid --points=100x");
  ExpectUsageError("--synthetic=syndrift --points=", "invalid --points=");
  ExpectUsageError("--synthetic=syndrift --boundary=3.0.1",
                   "invalid --boundary=3.0.1");
  ExpectUsageError("--synthetic=syndrift --decay=nan", "invalid --decay=nan");
  ExpectUsageError("--synthetic=syndrift --fault-seed=0xzz",
                   "invalid --fault-seed=0xzz");
}

TEST(CliErrorsTest, NegativeCounts) {
  // strtoull would wrap "-1" to 2^64 - 1.
  ExpectUsageError("--synthetic=syndrift --points=-1", "invalid --points=-1");
  ExpectUsageError("--synthetic=syndrift --nmicro=-5", "invalid --nmicro=-5");
  ExpectUsageError("--synthetic=syndrift --threads=+2",
                   "invalid --threads=+2");
}

TEST(CliErrorsTest, ValuesTheEngineWouldAbortOn) {
  // Each of these would trip a library CHECK (an abort) if it reached
  // the engine.
  ExpectUsageError("--synthetic=syndrift --points=100 --nmicro=0",
                   "--nmicro");
  ExpectUsageError("--synthetic=syndrift --points=100 --boundary=-1",
                   "--boundary");
  ExpectUsageError("--synthetic=syndrift --points=100 --boundary=0",
                   "--boundary");
  ExpectUsageError("--synthetic=syndrift --points=100 --thresh=0",
                   "--thresh");
  ExpectUsageError("--synthetic=syndrift --points=100 --decay=-0.5",
                   "--decay");
  ExpectUsageError("--synthetic=syndrift --points=100 --eta=-1", "--eta");
  ExpectUsageError("--synthetic=syndrift --points=100 --sample-interval=0",
                   "--sample-interval");
  ExpectUsageError(
      "--synthetic=syndrift --points=100 --threads=2 --queue-capacity=0",
      "--queue-capacity");
}

TEST(CliErrorsTest, UnknownAssignIndex) {
  // The index kinds are flat, kdtree and auto.
  ExpectUsageError("--synthetic=syndrift --points=100 --similarity=distance "
                   "--assign-index=coarse",
                   "unknown assign index: coarse");
}

TEST(CliErrorsTest, BadValuesFailBeforeTheInputIsRead) {
  // Usage errors win over environment errors: a missing input file is
  // never looked at when a flag value is already wrong.
  ExpectUsageError("--input=/no/such.csv --assign-index=bogus",
                   "unknown assign index: bogus");
  ExpectUsageError("--input=/no/such.csv --similarity=bogus",
                   "unknown similarity: bogus");
  ExpectUsageError("--input=/no/such.csv --backpressure=bogus",
                   "unknown backpressure policy: bogus");
  ExpectUsageError("--input=/no/such.csv --algorithm=bogus",
                   "unknown algorithm: bogus");
  ExpectUsageError("--input=/no/such.csv --algorithm=clustream "
                   "--metrics-out=" +
                       testing::TempDir() + "/cli_metrics",
                   "--metrics-out requires --algorithm=umicro");
}

TEST(CliErrorsTest, FlagsOutsideTheirRunModeAreRejected) {
  // A flag the run's mode would never read is an error, not a silent
  // no-op.
  ExpectUsageError("--synthetic=syndrift --points=100 --tenants=2 "
                   "--snapshot-every=7",
                   "--snapshot-every requires");
  ExpectUsageError("--synthetic=syndrift --points=100 --tenants=2 --batch=9",
                   "--batch requires");
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--listen=127.0.0.1:1",
                   "--listen requires --role=agg");
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 --batch=4",
                   "--batch requires");
}

TEST(CliErrorsTest, ValidNumericFormsStillParse) {
  // Hex seeds, exponents and explicit zeros remain accepted.
  const CliResult result =
      RunCli("--synthetic=syndrift --points=200 --decay=1e-3 "
             "--boundary=2.5 --fault-seed=0x10 --metrics-every=0");
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
}

}  // namespace
