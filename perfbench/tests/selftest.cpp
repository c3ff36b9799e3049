// The benchmark's own checks: seeded inputs are reproducible, vary with
// the seed and survive a .bench round trip; the output check rejects a
// corrupted reference.  Run from the checkout root (perfbench/run.py
// --selftest does), where tests/data/mult8.bench lives.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "perfbench/src/check.hpp"
#include "perfbench/src/inputs.hpp"
#include "src/netlist/library.hpp"
#include "src/parsers/bench_format.hpp"

namespace perfbench {
namespace {

std::string mult8_fixture() {
  std::ifstream in("tests/data/mult8.bench", std::ios::binary);
  EXPECT_TRUE(in.good()) << "run from the checkout root";
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(Inputs, SameSeedGivesIdenticalFiles) {
  const std::string mult8 = mult8_fixture();
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 7, mult8);
    const Workload b = make_workload(name, 7, mult8);
    EXPECT_EQ(a.files, b.files) << name;
    ASSERT_EQ(a.catalog.size(), b.catalog.size()) << name;
    for (std::size_t i = 0; i < a.catalog.size(); ++i) {
      EXPECT_EQ(a.catalog[i].args, b.catalog[i].args) << name;
    }
  }
}

TEST(Inputs, DifferentSeedGivesDifferentFiles) {
  const std::string mult8 = mult8_fixture();
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 7, mult8);
    const Workload b = make_workload(name, 8, mult8);
    ASSERT_EQ(a.files.size(), b.files.size()) << name;
    EXPECT_NE(a.files, b.files) << name;
    // The stimuli carry the seed; the netlists are fixed generator outputs.
    for (const auto& [file, bytes] : a.files) {
      if (file.ends_with(".stim") && file != "mult8_var.stim") {
        EXPECT_NE(bytes, b.files.at(file)) << name << " " << file;
      }
    }
  }
}

TEST(Inputs, RequestWorkloadsShareInputsAndStreams) {
  const std::string mult8 = mult8_fixture();
  const Workload cold = make_workload("cold_requests", 3, mult8);
  const Workload daemon = make_workload("daemon_requests", 3, mult8);
  EXPECT_EQ(cold.files, daemon.files);
  for (int client = 0; client < 2; ++client) {
    OpStream a(cold, 3, client);
    OpStream b(daemon, 3, client);
    for (int i = 0; i < 200; ++i) EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Inputs, EveryBenchRoundTrips) {
  const halotis::Library lib = halotis::Library::default_u6();
  const std::string mult8 = mult8_fixture();
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 11, mult8);
    for (const auto& [file, bytes] : w.files) {
      if (file.size() < 6 || file.substr(file.size() - 6) != ".bench") continue;
      if (bytes == mult8) continue;  // the fixture carries a comment header
      EXPECT_EQ(halotis::write_bench(halotis::read_bench(bytes, lib)), bytes) << file;
    }
  }
}

TEST(OutputCheck, CorruptedReferenceIsAFailure) {
  const std::filesystem::path dir =
      std::filesystem::path(".bench_work") / ("selftest-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir / "inputs");
  std::filesystem::create_directories(dir / "run");
  const Workload w = make_workload("cold_requests", 5, mult8_fixture());
  for (const auto& [file, bytes] : w.files) {
    std::ofstream(dir / "inputs" / file, std::ios::binary) << bytes;
  }
  for (const Op& op : w.catalog) {
    const Expected expected = reference_run(op, dir / "run");
    ASSERT_EQ(expected.exit_code, 0) << op.args[0];
    const Expected again = reference_run(op, dir / "run");
    EXPECT_TRUE(output_matches(op, expected, again.exit_code, again.out, again.vcd));

    Expected corrupt = expected;
    corrupt.out.back() ^= 0x01;
    EXPECT_FALSE(output_matches(op, corrupt, again.exit_code, again.out, again.vcd));
    EXPECT_FALSE(output_matches(op, expected, 1, again.out, again.vcd));
    if (!op.vcd.empty()) {
      corrupt = expected;
      corrupt.vcd[corrupt.vcd.size() / 2] ^= 0x01;
      EXPECT_FALSE(output_matches(op, corrupt, again.exit_code, again.out, again.vcd));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(OutputCheck, FaultTimingIsMasked) {
  const std::string a =
      "stuck-at coverage: 1 / 2 (50%) under X\ncampaign: 4 threads, 10 events, 0.5 s (4 faults/sec)\n";
  const std::string b =
      "stuck-at coverage: 1 / 2 (50%) under X\ncampaign: 4 threads, 10 events, 0.7 s (3 faults/sec)\n";
  const std::string c =
      "stuck-at coverage: 1 / 2 (50%) under X\ncampaign: 4 threads, 11 events, 0.5 s (4 faults/sec)\n";
  EXPECT_EQ(normalize_stdout("fault", a), normalize_stdout("fault", b));
  EXPECT_NE(normalize_stdout("fault", a), normalize_stdout("fault", c));
  EXPECT_EQ(normalize_stdout("sim", a), a);
}

}  // namespace
}  // namespace perfbench
