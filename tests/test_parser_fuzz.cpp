// Truncated-input fuzz for the text parsers (PR 7 acceptance): every
// prefix of a valid input must either parse or throw ContractViolation
// with a message -- never crash, loop, or leak (CI runs this suite under
// ASan/UBSan).  Truncation is the exact corruption the crash-safe
// artifact writers exist to prevent; the parsers must hold up when some
// OTHER tool hands us a torn file anyway.  Value-level fuzz swaps each
// number for a hostile one (NaN, Inf, negative, zero, overflowing): the
// result is all-finite or a diagnostic naming the line.
//
// Small fixtures are truncated per character, the committed mult8.bench
// per line (12k chars would dominate the suite's runtime for no extra
// coverage: bench files are line-oriented past the first few bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/check.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/sdf.hpp"
#include "src/parsers/stimulus_file.hpp"

namespace halotis {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::filesystem::path fixture(const char* relative) {
  return std::filesystem::path(HALOTIS_SOURCE_DIR) / relative;
}

constexpr const char* kAnd2Bench = R"(INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
)";

constexpr const char* kAnd2Stim = R"(slew 0.4
init a 0
init b 1
edge a 5.0 1
edge a 10.0 0
)";

/// Runs `parse` on every prefix of `text` at the given cut points.  The
/// contract under truncation: return normally or throw ContractViolation
/// carrying a message; anything else (another exception type, a crash, a
/// hang) fails the test.
template <class ParseFn>
void fuzz_prefixes(std::string_view text, const std::vector<std::size_t>& cuts,
                   const ParseFn& parse) {
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("prefix length " + std::to_string(cut));
    const std::string_view prefix = text.substr(0, cut);
    try {
      parse(prefix);
    } catch (const ContractViolation& e) {
      EXPECT_STRNE(e.what(), "") << "diagnostic must carry a message";
    }
    // Any other exception type escapes and fails the test with its own
    // what(): exactly the diagnostic we want from a fuzz failure.
  }
}

std::vector<std::size_t> every_char(std::string_view text) {
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i <= text.size(); ++i) cuts.push_back(i);
  return cuts;
}

std::vector<std::size_t> every_line(std::string_view text) {
  std::vector<std::size_t> cuts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') cuts.push_back(i + 1);
    // Also cut mid-line, right before the newline: a torn last line.
    if (text[i] == '\n' && i > 0) cuts.push_back(i);
  }
  cuts.push_back(text.size());
  return cuts;
}

TEST(ParserFuzzTest, BenchPrefixesNeverCrash) {
  const Library lib = Library::default_u6();
  fuzz_prefixes(kAnd2Bench, every_char(kAnd2Bench),
                [&](std::string_view prefix) { (void)read_bench(prefix, lib); });
}

TEST(ParserFuzzTest, CommittedMult8BenchLinePrefixesNeverCrash) {
  const Library lib = Library::default_u6();
  const std::string text = slurp(fixture("tests/data/mult8.bench"));
  ASSERT_FALSE(text.empty());
  fuzz_prefixes(text, every_line(text),
                [&](std::string_view prefix) { (void)read_bench(prefix, lib); });
}

TEST(ParserFuzzTest, SdfPrefixesNeverCrash) {
  const std::string text = slurp(fixture("tests/sdf/and2_thirdparty.sdf"));
  ASSERT_FALSE(text.empty());
  fuzz_prefixes(text, every_char(text),
                [](std::string_view prefix) { (void)read_sdf(prefix); });
}

TEST(ParserFuzzTest, StimulusPrefixesNeverCrash) {
  const Library lib = Library::default_u6();
  const Netlist netlist = read_bench(kAnd2Bench, lib);
  fuzz_prefixes(kAnd2Stim, every_char(kAnd2Stim), [&](std::string_view prefix) {
    (void)read_stimulus(prefix, netlist);
  });
}

/// Replaces each numeric token of `text` in turn with each hostile value.
/// A mutant must parse to a result `all_finite` accepts, or throw
/// ContractViolation naming the mutated line ("line N").
template <class ParseFn, class CheckFn>
void fuzz_values(std::string_view text, const ParseFn& parse, const CheckFn& all_finite) {
  const auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.';
  };
  int mutated = 0;
  for (std::size_t at = 0; at < text.size(); ++at) {
    if (std::isdigit(static_cast<unsigned char>(text[at])) == 0) continue;
    if (at > 0 && is_word(text[at - 1])) continue;  // inside a name like NAND2_X1
    std::size_t end = at;
    while (end < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[end])) != 0 || text[end] == '.')) {
      ++end;
    }
    const std::size_t line = 1 + static_cast<std::size_t>(
                                     std::count(text.begin(), text.begin() + at, '\n'));
    for (const char* value : {"nan", "inf", "-inf", "-1", "0", "1e400"}) {
      const std::string mutant =
          std::string(text.substr(0, at)) + value + std::string(text.substr(end));
      SCOPED_TRACE("line " + std::to_string(line) + " value " + value + ":\n" + mutant);
      ++mutated;
      try {
        EXPECT_TRUE(all_finite(parse(mutant)));
      } catch (const ContractViolation& e) {
        const std::string what = e.what();
        const std::string needle = "line " + std::to_string(line);
        const std::size_t found = what.find(needle);
        ASSERT_NE(found, std::string::npos) << what;
        const std::size_t after = found + needle.size();
        EXPECT_TRUE(after == what.size() ||
                    std::isdigit(static_cast<unsigned char>(what[after])) == 0)
            << what;
      }
    }
    at = end;
  }
  EXPECT_GT(mutated, 0) << "no numeric token to mutate";
}

TEST(ParserFuzzTest, StimulusValueMutationsAreFiniteOrNameTheLine) {
  const Library lib = Library::default_u6();
  const Netlist netlist = read_bench(kAnd2Bench, lib);
  fuzz_values(
      kAnd2Stim, [&](const std::string& text) { return read_stimulus(text, netlist); },
      [&](const Stimulus& stimulus) {
        bool finite = std::isfinite(stimulus.default_slew());
        for (const SignalId input : netlist.primary_inputs()) {
          for (const StimulusEdge& edge : stimulus.edges(input)) {
            finite = finite && std::isfinite(edge.time) && std::isfinite(edge.tau);
          }
        }
        return finite;
      });
}

TEST(ParserFuzzTest, GeneratedSdfValueMutationsAreFiniteOrNameTheLine) {
  const Library lib = Library::default_u6();
  const std::string sdf = write_sdf(read_bench(kAnd2Bench, lib));
  fuzz_values(
      sdf, [](const std::string& text) { return read_sdf(text); },
      [](const SdfFile& file) {
        bool finite = std::isfinite(file.timescale_ns);
        for (const SdfIopath& iopath : file.iopaths) {
          finite = finite && std::isfinite(iopath.rise) && std::isfinite(iopath.fall);
        }
        return finite;
      });
}

/// Same-time edges follow Stimulus::add_edge: an edge to the value the
/// input already has is dropped, two opposite edges form a zero-width pulse.
TEST(ParserFuzzTest, DuplicateSameTimeEdgesFollowTheStimulusApi) {
  const Library lib = Library::default_u6();
  const Netlist netlist = read_bench(kAnd2Bench, lib);
  const SignalId a = *netlist.find_signal("a");
  const Stimulus repeated = read_stimulus("init a 0\nedge a 2 1\nedge a 2 1\n", netlist);
  ASSERT_EQ(repeated.edges(a).size(), 1u);
  EXPECT_EQ(repeated.edges(a)[0].time, 2.0);
  EXPECT_TRUE(repeated.edges(a)[0].value);

  const Stimulus pulse = read_stimulus("init a 0\nedge a 2 1\nedge a 2 0\n", netlist);
  ASSERT_EQ(pulse.edges(a).size(), 2u);
  EXPECT_EQ(pulse.edges(a)[0].time, 2.0);
  EXPECT_TRUE(pulse.edges(a)[0].value);
  EXPECT_EQ(pulse.edges(a)[1].time, 2.0);
  EXPECT_FALSE(pulse.edges(a)[1].value);
}

TEST(ParserFuzzTest, TruncatedBenchDiagnosticNamesTheLine) {
  const Library lib = Library::default_u6();
  // Cut mid-statement on line 4: the diagnostic must locate the damage.
  const std::string_view torn = std::string_view(kAnd2Bench).substr(0, 40);
  try {
    (void)read_bench(torn, lib);
    FAIL() << "expected ContractViolation for a torn gate statement";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace halotis
