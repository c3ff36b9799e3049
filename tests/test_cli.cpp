// Tests for the command-line driver (run through the library entry point;
// files go to a per-test temp directory).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "src/tools/cli.hpp"

namespace halotis {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("halotis_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << content;
    return path;
  }

  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  std::filesystem::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;

  static constexpr const char* kBench = R"(INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
)";
  static constexpr const char* kStim = R"(slew 0.4
init a 0
init b 1
edge a 5.0 1
edge a 10.0 0
)";
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(out_.str().find("usage"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}), 2);
}

TEST_F(CliTest, SimProducesStatsAndFinalValues) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--model", "ddm"}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("HALOTIS-DDM"), std::string::npos);
  EXPECT_NE(text.find("events: processed"), std::string::npos);
  EXPECT_NE(text.find("y = 0"), std::string::npos);  // a falls back to 0
}

TEST_F(CliTest, SimThreadsRunsPartitionedKernel) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--threads", "2",
                 "--partitions", "2"}),
            0);
  const std::string parallel = out_.str();
  EXPECT_NE(parallel.find("partitions: 2"), std::string::npos);
  EXPECT_NE(parallel.find("events: processed"), std::string::npos);

  // The serial run reports the same event counts and final values.
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim}), 0);
  const std::string serial = out_.str();
  const auto line = [](const std::string& text, const char* prefix) {
    const std::size_t at = text.find(prefix);
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(line(parallel, "events:"), line(serial, "events:"));
  EXPECT_EQ(line(parallel, "finished at"), line(serial, "finished at"));
  EXPECT_EQ(line(parallel, "y ="), line(serial, "y ="));

  // The serial-only activity report is a usage error under --threads.
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--threads", "2",
                 "--report"}),
            2);
  EXPECT_NE(err_.str().find("--threads 1"), std::string::npos);
  // The VCD export needs the serial kernel too; that fails the run.
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--threads", "2", "--vcd",
                 (dir_ / "out.vcd").string()}),
            1);
  EXPECT_NE(err_.str().find("--vcd requires the serial kernel (--threads 1)"),
            std::string::npos);
}

TEST_F(CliTest, SimWritesVcd) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string vcd = (dir_ / "out.vcd").string();
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 0);
  std::ifstream file(vcd);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("$enddefinitions"), std::string::npos);
  EXPECT_NE(content.str().find("$var wire 1"), std::string::npos);
}

TEST_F(CliTest, SimReportAndWaves) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--report", "--waves"}), 0);
  EXPECT_NE(out_.str().find("TOTAL"), std::string::npos);
  EXPECT_NE(out_.str().find("t (ns)"), std::string::npos);
}

TEST_F(CliTest, StaPrintsCriticalPath) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"sta", "--netlist", netlist}), 0);
  EXPECT_NE(out_.str().find("critical delay"), std::string::npos);
  EXPECT_NE(out_.str().find("g_y"), std::string::npos);
}

TEST_F(CliTest, FaultReportsCoverage) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"fault", "--netlist", netlist, "--stim", stim}), 0);
  EXPECT_NE(out_.str().find("stuck-at coverage"), std::string::npos);
}

TEST_F(CliTest, FaultWithoutStimulusIsAUsageError) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"fault", "--netlist", netlist}), 2);
  EXPECT_NE(err_.str().find("usage error: fault needs --stim F (or --atpg)\n"),
            std::string::npos)
      << err_.str();
  EXPECT_EQ(out_.str(), "");

  // A stimulus file without a single edge is an input error naming the file.
  const std::string quiet = write("quiet.stim", "slew 0.4\ninit a 1\ninit b 1\n");
  EXPECT_EQ(run({"fault", "--netlist", netlist, "--stim", quiet}), 1);
  EXPECT_EQ(err_.str(), "error: stimulus file '" + quiet + "' has no edges to fault-simulate\n");
  EXPECT_EQ(out_.str(), "");
}

TEST_F(CliTest, FaultCampaignRunsAndSerialEngineIsGone) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);

  EXPECT_EQ(run({"fault", "--netlist", netlist, "--stim", stim, "--threads", "2"}), 0);
  const std::string campaign_out = out_.str();
  EXPECT_NE(campaign_out.find("campaign: 2 threads"), std::string::npos);
  const std::string coverage =
      campaign_out.substr(0, campaign_out.find(") under") + 1);
  EXPECT_NE(coverage.find("stuck-at coverage"), std::string::npos);

  // The campaign is the one fault engine, always with early exit;
  // test_campaign pins its verdicts fault for fault against the
  // netlist-rewiring oracle.
  EXPECT_EQ(run({"fault", "--netlist", netlist, "--stim", stim, "--serial"}), 2);
  EXPECT_NE(err_.str().find("unknown flag --serial for fault"), std::string::npos)
      << err_.str();
  EXPECT_EQ(run({"fault", "--netlist", netlist, "--stim", stim, "--no-early-exit"}), 2);
  EXPECT_NE(err_.str().find("unknown flag --no-early-exit for fault"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, FaultAtpgGeneratesVectors) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"fault", "--netlist", netlist, "--atpg", "--candidates", "40",
                 "--seed", "5"}), 0);
  EXPECT_NE(out_.str().find("ATPG:"), std::string::npos);
  EXPECT_NE(out_.str().find("vectors (hex"), std::string::npos);
  EXPECT_NE(out_.str().find("100%"), std::string::npos);  // tiny circuit: full coverage
}

TEST_F(CliTest, FaultAtpgRejectsUnencodablePrimaryInputCounts) {
  // One test word bit per primary input: a netlist without inputs has no
  // word to generate, one with more than 64 has no word that fits.
  std::string wide;
  for (int i = 0; i < 65; ++i) wide += "INPUT(i" + std::to_string(i) + ")\n";
  wide += "OUTPUT(y)\ny = NOT(i0)\n";
  struct Case {
    const char* name;
    std::string bench;
    const char* count;
  };
  for (const Case& c : {Case{"empty.bench", "", "has 0"}, Case{"wide.bench", wide, "has 65"}}) {
    EXPECT_EQ(run({"fault", "--netlist", write(c.name, c.bench), "--atpg"}), 1) << c.name;
    EXPECT_NE(err_.str().find("ATPG needs 1 to 64 primary inputs, the netlist " +
                              std::string(c.count)),
              std::string::npos)
        << err_.str();
    EXPECT_EQ(out_.str(), "") << c.name;
  }
}

TEST_F(CliTest, ConvertToSdf) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"convert", "--netlist", netlist, "--to", "sdf"}), 0);
  EXPECT_NE(out_.str().find("(DELAYFILE"), std::string::npos);
  EXPECT_NE(out_.str().find("(IOPATH A Y"), std::string::npos);
}

TEST_F(CliTest, ConvertRoundTripsFormats) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string verilog_path = (dir_ / "and2.v").string();
  EXPECT_EQ(run({"convert", "--netlist", netlist, "--to", "verilog", "--out",
                 verilog_path}), 0);
  // And simulate the converted file.
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", verilog_path, "--stim", stim}), 0);
  EXPECT_NE(out_.str().find("y = 0"), std::string::npos);
}

TEST_F(CliTest, ConvertToNativePrintsToStdout) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"convert", "--netlist", netlist, "--to", "native"}), 0);
  EXPECT_NE(out_.str().find("gate g_y"), std::string::npos);
}

TEST_F(CliTest, AnalogRunsAndWritesCsv) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string csv = (dir_ / "trace.csv").string();
  EXPECT_EQ(run({"analog", "--netlist", netlist, "--stim", stim, "--t-end", "12",
                 "--csv", csv}), 0);
  EXPECT_NE(out_.str().find("stage evaluations"), std::string::npos);
  std::ifstream file(csv);
  ASSERT_TRUE(file.good());
  std::string header;
  std::getline(file, header);
  EXPECT_EQ(header, "t_ns,y");
}

TEST_F(CliTest, ErrorsAreReportedNotThrown) {
  EXPECT_EQ(run({"sim", "--netlist", "/nonexistent/file.bench"}), 1);
  EXPECT_NE(err_.str().find("error:"), std::string::npos);
  const std::string netlist = write("and2.bench", kBench);
  // Flag problems are usage errors (exit 2), input problems exit 1.
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--model", "bogus"}), 2);
  EXPECT_NE(err_.str().find("--model expects ddm|cdm|cdm-classical|transport, got 'bogus'"),
            std::string::npos);
  EXPECT_EQ(run({"convert", "--netlist", netlist, "--to", "pdf"}), 2);
  EXPECT_NE(err_.str().find("--to expects"), std::string::npos);
  EXPECT_EQ(run({"sim"}), 2);
  EXPECT_NE(err_.str().find("missing required flag --netlist"), std::string::npos);
  // Out-of-range stimulus numbers fail at the reader, naming the line.
  for (const char* stim : {"init a 0\nslew 0\n", "init a 0\nslew -1\n",
                           "init a 0\nslew nan\n", "init a 0\nslew inf\n",
                           "init a 0\nedge a inf 1\n"}) {
    EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", write("bad.stim", stim)}), 1)
        << stim;
    EXPECT_NE(err_.str().find("stimulus line 2: "), std::string::npos) << err_.str();
  }
}

/// Every flag problem is a usage error: exit 2 with a message naming the
/// flag and the usage text -- never a silently dropped flag, nor a silent
/// clamp of `--samples 0` to a default or of `1.5` through a double
/// round-trip.
TEST_F(CliTest, MalformedFlagsExitTwoWithUsage) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);

  const auto expect_usage = [&](const std::vector<std::string>& args,
                                const std::string& needle) {
    EXPECT_EQ(run(args), 2) << needle;
    EXPECT_NE(err_.str().find("usage error:"), std::string::npos) << needle;
    EXPECT_NE(err_.str().find(needle), std::string::npos) << err_.str();
    EXPECT_NE(err_.str().find("usage: halotis"), std::string::npos) << needle;
  };

  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--samples", "0"},
               "--samples must be >= 1");
  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--samples", "1.5"},
               "--samples expects an unsigned integer");
  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--seed", "banana"},
               "--seed expects an unsigned integer");
  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--seed", "12x"},
               "--seed expects an unsigned integer");
  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--sigma", "-0.5"},
               "--sigma must be >= 0");
  // Derating factors exp(sigma * z) stay finite only up to sigma 10.
  for (const char* sigma : {"1000", "10.5"}) {
    expect_usage({"variation", "--netlist", netlist, "--stim", stim, "--sigma", sigma},
                 "--sigma must be <= 10");
  }

  expect_usage({"sim", "--netlist", netlist, "--stim", stim, "--replay"},
               "sim --replay needs --sdf");
  expect_usage({"sim", "--netlist", netlist, "--stim", stim,
                "--sdf", "x.sdf", "--replay", "--threads", "2"},
               "sim --replay requires the serial kernel");
  expect_usage({"sim", "--netlist", netlist, "--stim", stim,
                "--sdf", "x.sdf", "--replay", "--vcd",
                (dir_ / "w.vcd").string()},
               "drop --report/--vcd/--waves");

  // Hex seeds are NOT usage errors: 0x-prefixed values parse.
  EXPECT_EQ(run({"variation", "--netlist", netlist, "--stim", stim,
                 "--samples", "2", "--seed", "0xBEEF"}),
            0);

  // Everything else the flag table catches, each naming the flag; none of
  // these reaches a command (or a file).  Appended to a valid sim line:
  const std::vector<std::string> sim{"sim", "--netlist", netlist, "--stim", stim};
  const std::vector<std::pair<std::vector<std::string>, std::string>> sim_cases{
      {{"--modle", "cdm"}, "unknown flag --modle for sim (did you mean --model?)"},
      {{"--hassh"}, "unknown flag --hassh for sim (did you mean --hash?)"},
      {{"--frobnicate"}, "unknown flag --frobnicate for sim\n"},
      {{"--t-end", "nan"}, "--t-end expects a finite number, got 'nan'"},
      {{"--t-end", "inf"}, "--t-end expects a finite number, got 'inf'"},
      {{"--t-end", "1e400"}, "--t-end expects a finite number, got '1e400'"},
      {{"--t-end", "-3"}, "--t-end must be >= 0, got '-3'"},
      {{"--t-end", "5ns"}, "--t-end expects a finite number, got '5ns'"},
      {{"--deadline-s", "nan"}, "--deadline-s expects a finite number"},
      {{"--budget-events", "-1"}, "--budget-events expects an unsigned integer, got '-1'"},
      {{"--budget-mem-mb", "-1"}, "--budget-mem-mb must be >= 0"},
      {{"--threads", "1.7"}, "--threads expects an unsigned integer, got '1.7'"},
      {{"--threads", "-1"}, "--threads expects an unsigned integer, got '-1'"},
      {{"--threads", "3000000000"}, "--threads must be <= 2147483647, got '3000000000'"},
      {{"--partitions", "0x100000000"}, "--partitions must be <= 4294967295"},
      {{"--hash", "yes"}, "--hash takes no value, got 'yes'"},
      {{"--vcd"}, "--vcd needs a value"},
      {{"--vcd", "--hash"}, "--vcd needs a value"},
      {{"--vcd", ""}, "--vcd needs a value"},
      {{"stray"}, "unexpected argument 'stray'"},
      {{"--format", "edif"}, "--format expects bench|verilog|native, got 'edif'"},
      {{"--threads", "2", "--report"}, "--report requires the serial kernel (--threads 1)"},
      {{"--sdf", ",", "--replay"}, "--sdf lists no corner files"},
  };
  for (const auto& [extra, needle] : sim_cases) {
    std::vector<std::string> args = sim;
    args.insert(args.end(), extra.begin(), extra.end());
    expect_usage(args, "usage error: " + needle);
  }
  // A bare trailing --stim no longer reads a file named "1".
  expect_usage({"sim", "--netlist", netlist, "--stim"}, "--stim needs a value");
  expect_usage({"lint", netlist, "--netlist-format", "edif"}, "--netlist-format expects");
  expect_usage({"lint", netlist, "--format", "xml"}, "--format expects text|json, got 'xml'");
  expect_usage({"lint", netlist, "--fail-on", "often"},
               "--fail-on expects error|warn|warning|none");
  expect_usage({"lint", "--format", "json", netlist}, "unexpected argument");
  expect_usage({"lint", ""}, "--netlist needs a value");
  expect_usage({"convert", "--netlist", netlist}, "missing required flag --to");
  expect_usage({"sta", "--netlist", netlist, "--slew", "0"}, "--slew must be > 0, got '0'");
  expect_usage({"fault", "--netlist", netlist, "--period", "-1"}, "--period must be > 0.1");
  // Samples sit 0.1 ns before each settled instant, so a period must exceed
  // that; the bound prints in shortest round-trip form.
  expect_usage({"fault", "--netlist", netlist, "--stim", stim, "--period", "0.1"},
               "usage error: --period must be > 0.1, got '0.1'\n");
  expect_usage({"fault", "--netlist", netlist, "--atpg", "--period", "0.05"},
               "usage error: --period must be > 0.1, got '0.05'\n");
  expect_usage({"fault", "--netlist", netlist, "--atpg", "--candidates", "0"},
               "--candidates must be >= 1");
  expect_usage({"variation", "--netlist", netlist, "--budget-mem-mb", "inf"},
               "--budget-mem-mb expects a finite number");
  expect_usage({"analog", "--netlist", netlist, "--budget-events", "1"},
               "unknown flag --budget-events for analog");
  expect_usage({"serve", "--socket", (dir_ / "s.sock").string(), "--cache-mb", "0"},
               "--cache-mb must be > 0");
  expect_usage({"serve"}, "missing required flag --socket");
  expect_usage({"repro", "--only", ","}, "--only needs at least one experiment id");
}

/// The README's CLI table documents exactly the flags of the flag table,
/// as `halotis help` renders it: "  CMD -- summary" heads each command's
/// own flags ("    --flag ..."), and each shared group follows under the
/// list of commands that take it ("sim, sta and fault:").  Every README
/// row lists the command's own flags; the two sentences after the table
/// name the commands that take the shared groups.
TEST_F(CliTest, ReadmeFlagTableMatchesSpec) {
  std::map<std::string, std::set<std::string>> own;     // command -> flags
  std::map<std::string, std::set<std::string>> shared;  // flag -> commands
  std::string command;
  std::vector<std::string> group;
  std::istringstream usage(cli_usage());
  for (std::string line; std::getline(usage, line);) {
    if (line.rfind("    --", 0) == 0) {
      const std::string flag = line.substr(6, line.find(' ', 6) - 6);
      if (!command.empty()) {
        EXPECT_TRUE(own[command].insert(flag).second) << command << " lists --" << flag;
      }
      for (const std::string& name : group) shared[flag].insert(name);
    } else if (line.rfind("  ", 0) == 0 && line.find(" -- ") != std::string::npos) {
      command = line.substr(2, line.find(' ', 2) - 2);
      own[command];
    } else if (!line.empty() && line.back() == ':' && line != "commands:") {
      command.clear();
      group.clear();
      std::string names = std::regex_replace(line.substr(0, line.size() - 1),
                                             std::regex(" and "), ", ");
      for (std::size_t at = 0; at != std::string::npos;) {
        const std::size_t comma = names.find(", ", at);
        group.push_back(names.substr(at, comma - at));
        at = comma == std::string::npos ? comma : comma + 2;
      }
    }
  }
  ASSERT_TRUE(own.count("sim") == 1 && own.count("serve") == 1) << cli_usage();

  std::ifstream file(std::string(HALOTIS_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string readme = buffer.str();
  const std::regex flag_pattern("--[a-z][a-z-]*");
  for (const auto& [name, flags] : own) {
    const std::string row_start = "\n| `" + name + "` | ";
    const std::size_t row = readme.find(row_start);
    ASSERT_NE(row, std::string::npos) << "README has no row for " << name;
    // The flags column: after the second cell separator, to the line end.
    const std::size_t column = readme.find(" | ", row + row_start.size());
    const std::string cells = readme.substr(column, readme.find('\n', row + 1) - column);
    std::set<std::string> documented;
    for (auto it = std::sregex_iterator(cells.begin(), cells.end(), flag_pattern);
         it != std::sregex_iterator(); ++it) {
      documented.insert(it->str().substr(2));
    }
    EXPECT_EQ(documented, flags) << "README row of " << name;
  }
  // The backticked command names of the README paragraph holding `anchor`.
  const auto commands_before = [&](const std::string& anchor) {
    const std::size_t at = readme.find(anchor);
    EXPECT_NE(at, std::string::npos) << anchor;
    const std::size_t start = readme.rfind("\n\n", at);
    const std::string text = readme.substr(start, at - start);
    const std::regex name_pattern("`([a-z]+)`");
    std::set<std::string> names;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), name_pattern);
         it != std::sregex_iterator(); ++it) {
      names.insert((*it)[1]);
    }
    return names;
  };
  EXPECT_EQ(commands_before("additionally take the shared supervision"),
            shared["budget-events"]);
  EXPECT_EQ(commands_before("also take `--connect PATH`"), shared["connect"]);
  EXPECT_EQ(shared["failpoints"].size(), own.size());  // "Every command takes"
}

TEST_F(CliTest, ModelVariantsAllRun) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  for (const char* model : {"ddm", "cdm", "cdm-classical", "transport"}) {
    EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--model", model}), 0)
        << model;
  }
}

TEST_F(CliTest, SimWithSdfBackAnnotationRoundTrip) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string sdf = (dir_ / "and2.sdf").string();
  ASSERT_EQ(run({"convert", "--netlist", netlist, "--to", "sdf", "--out", sdf}), 0);
  ASSERT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--sdf", sdf}), 0);
  EXPECT_NE(out_.str().find("annotated 3 IOPATH records"), std::string::npos);
  EXPECT_NE(out_.str().find("y = 0"), std::string::npos);
}

TEST_F(CliTest, SimWithThirdPartySdfFixture) {
  // The committed vendor-style fixture: (min:typ:max) triples, 100 ps
  // timescale, extra header entries -- simulated end to end.
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string fixture =
      std::string(HALOTIS_SOURCE_DIR) + "/tests/sdf/and2_thirdparty.sdf";
  ASSERT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--sdf", fixture}), 0);
  EXPECT_NE(out_.str().find("annotated 3 IOPATH records"), std::string::npos);
  EXPECT_NE(out_.str().find("design \"and2_from_vendor_flow\""), std::string::npos);
  EXPECT_NE(out_.str().find("y = 0"), std::string::npos);
  // STA over the same annotated database.
  ASSERT_EQ(run({"sta", "--netlist", netlist, "--sdf", fixture}), 0);
  EXPECT_NE(out_.str().find("critical delay"), std::string::npos);
}

TEST_F(CliTest, StaPerArcDumpsTimingGraph) {
  const std::string netlist = write("and2.bench", kBench);
  ASSERT_EQ(run({"sta", "--netlist", netlist, "--per-arc"}), 0);
  EXPECT_NE(out_.str().find("timing graph: 2 gates, 6 arcs"), std::string::npos);
  EXPECT_NE(out_.str().find("g_n1"), std::string::npos);
  EXPECT_NE(out_.str().find("NAND2_X1"), std::string::npos);
}

TEST_F(CliTest, MalformedSdfFailsWithLineNumber) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string bad = write("bad.sdf", "(DELAYFILE\n(CELL (INSTANCE g_y)\n"
                                           "(DELAY (ABSOLUTE (IOPATH A Y (1) (1))))))\n");
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--sdf", bad}), 1);
  EXPECT_NE(err_.str().find("sdf line 3"), std::string::npos);
  // Non-finite delays and timescales stop at the reader too (exit 1, line).
  const std::string cell = "(CELL (CELLTYPE \"INV_X1\") (INSTANCE g_y)\n(DELAY (ABSOLUTE ";
  const std::vector<std::pair<std::string, std::string>> cases{
      {"(DELAYFILE\n" + cell + "(IOPATH A Y (inf::inf) (1))))))\n", "sdf line 3: non-finite"},
      {"(DELAYFILE\n" + cell + "(IOPATH A Y (nan::nan) (nan))))))\n", "sdf line 3: non-finite"},
      {"(DELAYFILE\n(TIMESCALE 0ns)\n" + cell + "(IOPATH A Y (1) (1))))))\n",
       "sdf line 2: TIMESCALE must be finite and positive"},
  };
  for (const auto& [body, needle] : cases) {
    EXPECT_EQ(run({"sim", "--netlist", netlist, "--sdf", write("nonfinite.sdf", body)}), 1);
    EXPECT_NE(err_.str().find(needle), std::string::npos) << err_.str();
  }
}

}  // namespace
}  // namespace halotis
