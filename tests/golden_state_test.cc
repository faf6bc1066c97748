// Cross-version golden test: reruns the umicro_cli grid listed in
// tests/data/golden/MANIFEST and byte-compares each run's micro-cluster
// dump (--state-out) and final checkpoint against files an earlier build
// wrote. A refactor that keeps behaviour passes unchanged; one that
// alters a single bit of clustering state fails here.
//
// Runs pin the scalar kernel tier (UMICRO_KERNEL=scalar), the tier the
// goldens were written on. Regenerate the files with
// tests/data/golden/regenerate.sh only for an intended behaviour change.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

namespace fs = std::filesystem;

struct ManifestLine {
  std::string stem;
  std::string flags;
};

struct Manifest {
  std::vector<ManifestLine> runs;
  /// Stems whose <stem>.resume.uckpt must resume into <stem>.state.
  std::vector<std::string> resumes;
};

Manifest ReadManifest() {
  Manifest manifest;
  std::ifstream in(std::string(UMICRO_GOLDEN_DIR) + "/MANIFEST");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    ManifestLine entry;
    fields >> entry.stem;
    std::getline(fields >> std::ws, entry.flags);
    if (entry.stem == "resume") {
      manifest.resumes.push_back(entry.flags);
    } else {
      manifest.runs.push_back(entry);
    }
  }
  return manifest;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A fresh, empty scratch directory for one run.
fs::path ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("golden_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Runs the CLI on the scalar tier with `flags` plus `extra`; returns the
/// exit status.
int RunCli(const std::string& flags, const std::string& extra) {
  const std::string command = "UMICRO_KERNEL=scalar " +
                              std::string(UMICRO_CLI_PATH) + " " + flags +
                              " " + extra + " >/dev/null";
  return std::system(command.c_str());
}

/// Byte comparison with a short, readable failure message (the files are
/// tens of kilobytes; dumping them helps nobody).
void ExpectSameBytes(const fs::path& actual, const fs::path& golden) {
  const std::string a = ReadFile(actual);
  const std::string g = ReadFile(golden);
  ASSERT_FALSE(g.empty()) << "missing golden file " << golden;
  if (a == g) return;
  std::size_t at = 0;
  while (at < a.size() && at < g.size() && a[at] == g[at]) ++at;
  ADD_FAILURE() << actual.filename() << " differs from " << golden
                << " at byte " << at << " (sizes " << a.size() << " vs "
                << g.size() << ")";
}

TEST(GoldenStateTest, GridMatchesGoldenFiles) {
  const Manifest manifest = ReadManifest();
  ASSERT_FALSE(manifest.runs.empty());
  const fs::path golden(UMICRO_GOLDEN_DIR);
  for (std::size_t i = 0; i < manifest.runs.size(); ++i) {
    const ManifestLine& run = manifest.runs[i];
    SCOPED_TRACE(run.stem + " " + run.flags);
    const fs::path dir = ScratchDir("run" + std::to_string(i));
    ASSERT_EQ(RunCli(run.flags, "--state-out=" + (dir / "state").string() +
                                    " --checkpoint-dir=" +
                                    (dir / "ckpt").string()),
              0);
    ExpectSameBytes(dir / "state", golden / (run.stem + ".state"));
    ExpectSameBytes(dir / "ckpt" / "checkpoint-00000001.uckpt",
                    golden / (run.stem + ".uckpt"));
    fs::remove_all(dir);
  }
}

TEST(GoldenStateTest, GoldenCheckpointResumesBitIdentically) {
  const Manifest manifest = ReadManifest();
  ASSERT_FALSE(manifest.resumes.empty());
  const fs::path golden(UMICRO_GOLDEN_DIR);
  for (const std::string& stem : manifest.resumes) {
    SCOPED_TRACE(stem);
    const ManifestLine* first = nullptr;
    for (const ManifestLine& run : manifest.runs) {
      if (run.stem == stem) {
        first = &run;
        break;
      }
    }
    ASSERT_NE(first, nullptr) << "resume line names an unknown stem";
    const fs::path dir = ScratchDir("resume_" + stem);
    fs::create_directories(dir / "ckpt");
    fs::copy_file(golden / (stem + ".resume.uckpt"),
                  dir / "ckpt" / "checkpoint-00000001.uckpt");
    ASSERT_EQ(RunCli(first->flags,
                     "--recover --checkpoint-dir=" + (dir / "ckpt").string() +
                         " --state-out=" + (dir / "state").string()),
              0);
    ExpectSameBytes(dir / "state", golden / (stem + ".state"));
    fs::remove_all(dir);
  }
}

}  // namespace
