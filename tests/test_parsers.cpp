// Tests for the ISCAS bench reader/writer, the Verilog subset, the native
// netlist format and the stimulus file format.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/base/rng.hpp"
#include "src/circuits/generators.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/netlist_io.hpp"
#include "src/parsers/stimulus_file.hpp"
#include "src/parsers/verilog.hpp"

namespace halotis {
namespace {

class ParsersTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();

  std::vector<bool> steady(const Netlist& nl, std::vector<bool> pi_values) {
    std::unique_ptr<bool[]> buffer(new bool[pi_values.size()]);
    for (std::size_t i = 0; i < pi_values.size(); ++i) buffer[i] = pi_values[i];
    return nl.steady_state(std::span<const bool>(buffer.get(), pi_values.size()));
  }
};

/// read_stimulus must reject `text` with a diagnostic containing `message`.
void expect_stimulus_error(const char* text, const Netlist& netlist, const char* message) {
  try {
    (void)read_stimulus(text, netlist);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << "input: " << text << "\ndiagnostic: " << e.what();
  }
}

TEST_F(ParsersTest, C17BenchMatchesGeneratedC17) {
  const Netlist parsed = read_bench(c17_bench_text(), lib_);
  EXPECT_EQ(parsed.num_gates(), 6u);
  EXPECT_EQ(parsed.primary_inputs().size(), 5u);
  EXPECT_EQ(parsed.primary_outputs().size(), 2u);

  C17Circuit reference = make_c17(lib_);
  for (unsigned pattern = 0; pattern < 32; ++pattern) {
    std::vector<bool> pis;
    for (int b = 0; b < 5; ++b) pis.push_back(((pattern >> b) & 1u) != 0);
    const auto got = steady(parsed, pis);
    const auto want = steady(reference.netlist, pis);
    for (int o = 0; o < 2; ++o) {
      ASSERT_EQ(got[parsed.primary_outputs()[o].value()],
                want[reference.outputs[static_cast<std::size_t>(o)].value()])
          << pattern;
    }
  }
}

TEST_F(ParsersTest, BenchRoundTrip) {
  C17Circuit c17 = make_c17(lib_);
  const std::string text = write_bench(c17.netlist);
  const Netlist reparsed = read_bench(text, lib_);
  EXPECT_EQ(reparsed.num_gates(), c17.netlist.num_gates());
  EXPECT_EQ(reparsed.primary_inputs().size(), c17.netlist.primary_inputs().size());
  for (unsigned pattern = 0; pattern < 32; ++pattern) {
    std::vector<bool> pis;
    for (int b = 0; b < 5; ++b) pis.push_back(((pattern >> b) & 1u) != 0);
    const auto got = steady(reparsed, pis);
    const auto want = steady(c17.netlist, pis);
    for (std::size_t o = 0; o < 2; ++o) {
      ASSERT_EQ(got[reparsed.primary_outputs()[o].value()],
                want[c17.netlist.primary_outputs()[o].value()]);
    }
  }
}

TEST_F(ParsersTest, WideGatesDecomposeToTrees) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
OUTPUT(y)
y = NAND(a, b, c, d, e, f)
)";
  const Netlist nl = read_bench(text, lib_);
  EXPECT_GT(nl.num_gates(), 1u);  // decomposed
  // Function check: NAND of six inputs.
  for (unsigned pattern = 0; pattern < 64; ++pattern) {
    std::vector<bool> pis;
    bool all = true;
    for (int b = 0; b < 6; ++b) {
      const bool bit = ((pattern >> b) & 1u) != 0;
      pis.push_back(bit);
      all = all && bit;
    }
    const auto values = steady(nl, pis);
    ASSERT_EQ(values[nl.primary_outputs()[0].value()], !all) << pattern;
  }
}

TEST_F(ParsersTest, WideXorKeepsParity) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
y = XOR(a, b, c, d, e)
)";
  const Netlist nl = read_bench(text, lib_);
  for (unsigned pattern = 0; pattern < 32; ++pattern) {
    std::vector<bool> pis;
    int ones = 0;
    for (int b = 0; b < 5; ++b) {
      const bool bit = ((pattern >> b) & 1u) != 0;
      pis.push_back(bit);
      ones += bit ? 1 : 0;
    }
    const auto values = steady(nl, pis);
    ASSERT_EQ(values[nl.primary_outputs()[0].value()], ones % 2 == 1) << pattern;
  }
}

TEST_F(ParsersTest, BenchErrors) {
  EXPECT_THROW((void)read_bench("INPUT(a)\nq = DFF(a)\n", lib_), ContractViolation);
  EXPECT_THROW((void)read_bench("y = FROB(a)\nINPUT(a)\n", lib_), ContractViolation);
  EXPECT_THROW((void)read_bench("INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n", lib_),
               ContractViolation);
  EXPECT_THROW((void)read_bench("INPUT(a)\ny NOT(a)\n", lib_), ContractViolation);
  // Comments and blank lines are fine.
  EXPECT_NO_THROW((void)read_bench("# nothing\n\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)  # inv\n",
                                   lib_));
}

/// Asserts that parsing `text` raises a ContractViolation whose message
/// carries the offending source line (`"line <n>"`) -- a parser that dies
/// with an internal netlist assertion, or accepts the deck silently, fails.
void expect_bench_error_on_line(const std::string& text, int line,
                                const Library& lib) {
  try {
    (void)read_bench(text, lib);
    FAIL() << "accepted malformed deck:\n" << text;
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << "message lacks 'line " << line << "': " << e.what();
  }
}

TEST_F(ParsersTest, BenchMalformedDecksRaiseLineNumberedErrors) {
  // Duplicate gate definition: the second assignment is the error.
  expect_bench_error_on_line(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n", 5, lib_);
  // Undeclared fanin: neither an INPUT nor any gate's output.
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", 3, lib_);
  // Cyclic definition (two-gate loop and direct self-loop).
  expect_bench_error_on_line(
      "INPUT(a)\nOUTPUT(y)\nu = AND(a, v)\nv = AND(a, u)\ny = AND(u, v)\n", 3,
      lib_);
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n", 3, lib_);
  // A gate may not drive a declared primary input.
  expect_bench_error_on_line(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = AND(b, b)\ny = NOT(a)\n", 4, lib_);
  // Duplicate INPUT declaration.
  expect_bench_error_on_line("INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", 2,
                             lib_);
  // Unbalanced parenthesis and empty operand.
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(y)\ny = NOT(a\n", 3, lib_);
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n", 3, lib_);
  // An INPUT declared after the gate that drives it names both lines.
  for (const int line : {2, 3}) {
    expect_bench_error_on_line("INPUT(a)\ny = NOT(a)\nINPUT(y)\n", line, lib_);
  }
  // An OUTPUT that nothing defines names its own line.
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n", 2, lib_);
}

/// The exact text of every `.bench` diagnostic, one deck per message.  A
/// deck with several faults reports the first in the reader's check order:
/// line by line, then fanins, then cycles, then instantiation, then OUTPUTs.
TEST_F(ParsersTest, BenchDiagnosticsAreExact) {
  const std::pair<const char*, const char*> cases[] = {
      {"INPUT(a\n", "bench: malformed port on line 1"},
      {"INPUT(a)\noutput(y\n", "bench: malformed port on line 2"},
      {"INPUT(a)\nINPUT( )\n", "bench: empty port name on line 2"},
      {"INPUT(a)\nInput(a)\n", "bench: duplicate INPUT 'a' on line 2"},
      {"INPUT(a)\ny NOT(a)\n", "bench: expected assignment on line 2"},
      {"INPUT (a)\n", "bench: expected assignment on line 1"},
      {"INPUT(a)\ny = NOT(a\n", "bench: malformed gate on line 2"},
      {"INPUT(a)\ny = NOT a)\n", "bench: malformed gate on line 2"},
      {"INPUT(a)\nq = DFF(a)\n",
       "bench: sequential element on line 2 (HALOTIS simulates combinational logic)"},
      {"INPUT(a)\nq = dffsr(a)\n",
       "bench: sequential element on line 2 (HALOTIS simulates combinational logic)"},
      {"INPUT(a)\ny = AND(a,,a)\n", "bench: empty operand on line 2"},
      {"INPUT(a)\ny = AND()\n", "bench: empty operand on line 2"},
      {"INPUT(a)\n = NOT(a)\n", "bench: empty gate output name on line 2"},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n",
       "bench: duplicate definition of 'y' on line 5 (first defined on line 4)"},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = AND(b, b)\ny = NOT(a)\n",
       "bench: gate on line 4 redefines INPUT 'a' (declared on line 1)"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "bench: undeclared fanin 'ghost' on line 3"},
      {"INPUT(a)\nOUTPUT(y)\nu = AND(a, v)\nv = AND(a, u)\ny = AND(u, v)\n",
       "bench: cyclic definition of 'u' on line 3 (reached again from 'v' on line 4)"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n",
       "bench: cyclic definition of 'y' on line 3 (reached again from 'y' on line 3)"},
      {"INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n", "bench: NOT takes one input (line 3)"},
      {"INPUT(a)\nINPUT(b)\ny = inv(a, b)\n", "bench: NOT takes one input (line 3)"},
      {"INPUT(a)\nINPUT(b)\ny = BUF(a, b)\n", "bench: BUFF takes one input (line 3)"},
      {"y = frob(a)\nINPUT(a)\n", "bench: unknown gate 'FROB' on line 1"},
      // Check order: an unknown operator is only met at instantiation, after
      // every fanin has been resolved.
      {"y = FROB(a)\nz = AND(a, ghost)\nINPUT(a)\n", "bench: undeclared fanin 'ghost' on line 2"},
      {"INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n", "bench: OUTPUT 'zz' on line 2 never defined"},
      {"INPUT(a)\ny = NOT(a)\nINPUT(y)\n",
       "bench: INPUT 'y' on line 3 is already defined by the gate on line 2"},
      // A user name that collides with the wide-gate decomposition's
      // synthetic nets is reported by the netlist.
      {"INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(bench_t0)\ny = AND(a, b, c, bench_t0, a)\n",
       "Netlist::add_signal(): duplicate signal name 'bench_t0'"},
  };
  for (const auto& [deck, message] : cases) {
    try {
      (void)read_bench(deck, lib_);
      ADD_FAILURE() << "accepted:\n" << deck;
    } catch (const ContractViolation& e) {
      EXPECT_STREQ(e.what(), message) << "deck:\n" << deck;
    }
  }
  try {
    (void)read_bench_file("/nonexistent/none.bench", lib_);
    ADD_FAILURE() << "opened a missing file";
  } catch (const ContractViolation& e) {
    EXPECT_STREQ(e.what(), "bench: cannot open file '/nonexistent/none.bench'");
  }
}

/// Signal and gate IDs, names and cells for a deck that exercises every
/// lexical form the reader accepts: lower- and mixed-case keywords, CRLF
/// line ends, comments, INPUTs after the gates that read them, gates used
/// before their definition, and 9-input NAND / XNOR trees.  History hashes
/// depend on this order.
TEST_F(ParsersTest, BenchIdOrderIsPinned) {
  const std::string deck =
      "# mixed deck\r\n"
      "input(a)\r\n"
      "INPUT(b)  # second input\r\n"
      "output(y)\r\n"
      "Output(z)\r\n"
      "OUTPUT(n1)\r\n"
      "n2 = nand(n1, c)\r\n"
      "   n1 = And( a , b )   \r\n"
      "\r\n"
      "INPUT(c)\r\n"
      "y = NAND(a, b, c, d, e, f, g, h, n2)\r\n"
      "z = xnor(h, g, f, e, d, c, b, a, n3)  # 9-input parity\r\n"
      "input(d)\r\ninput(e)\r\ninput(f)\r\ninput(g)\r\ninput(h)\r\n"
      "n3 = buff(n2)\r\n"
      "n4 = NOT(n3)";
  const Netlist nl = read_bench(deck, lib_);
  std::string dump;
  for (std::size_t s = 0; s < nl.num_signals(); ++s) {
    const Signal& sig = nl.signal(SignalId{static_cast<SignalId::underlying_type>(s)});
    dump += sig.name;
    dump += sig.is_primary_input ? "(pi)" : "";
    dump += sig.is_primary_output ? "(po)" : "";
    dump += ' ';
  }
  dump += '\n';
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    const GateId id{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = nl.gate(id);
    dump += gate.name + '=' + nl.cell_of(id).name + '(';
    for (const SignalId in : gate.inputs) dump += nl.signal(in).name + ',';
    dump += ")->" + nl.signal(gate.output).name + '\n';
  }
  EXPECT_EQ(dump,
            "a(pi) b(pi) c(pi) d(pi) e(pi) f(pi) g(pi) h(pi) n2 n1(po) y(po) z(po) n3 n4 "
            "bench_t0 bench_t1 bench_t2 bench_t3 bench_t4 bench_t5 bench_t6 bench_t7 "
            "bench_t8 bench_t9 bench_t10 bench_t11 bench_t12 bench_t13 \n"
            "g_n2=NAND2_X1(n1,c,)->n2\n"
            "g_n1=AND2_X1(a,b,)->n1\n"
            "bench_g0=AND2_X1(a,b,)->bench_t0\n"
            "bench_g1=AND2_X1(c,d,)->bench_t1\n"
            "bench_g2=AND2_X1(e,f,)->bench_t2\n"
            "bench_g3=AND2_X1(g,h,)->bench_t3\n"
            "bench_g4=AND2_X1(bench_t0,bench_t1,)->bench_t4\n"
            "bench_g5=AND2_X1(bench_t2,bench_t3,)->bench_t5\n"
            "bench_g6=AND2_X1(bench_t4,bench_t5,)->bench_t6\n"
            "g_y=NAND2_X1(bench_t6,n2,)->y\n"
            "bench_g7=XOR2_X1(h,g,)->bench_t7\n"
            "bench_g8=XOR2_X1(f,e,)->bench_t8\n"
            "bench_g9=XOR2_X1(d,c,)->bench_t9\n"
            "bench_g10=XOR2_X1(b,a,)->bench_t10\n"
            "bench_g11=XOR2_X1(bench_t7,bench_t8,)->bench_t11\n"
            "bench_g12=XOR2_X1(bench_t9,bench_t10,)->bench_t12\n"
            "bench_g13=XOR2_X1(bench_t11,bench_t12,)->bench_t13\n"
            "g_z=XNOR2_X1(bench_t13,n3,)->z\n"
            "g_n3=BUF_X1(n2,)->n3\n"
            "g_n4=INV_X1(n3,)->n4\n");
}

TEST_F(ParsersTest, BenchFixtureLoadsAndMatchesGenerator) {
  const std::string path =
      std::string(HALOTIS_SOURCE_DIR) + "/tests/data/mult8.bench";
  const Netlist parsed = read_bench_file(path, lib_);
  EXPECT_EQ(parsed.num_gates(), 384u);

  // Functional equivalence against the generator's multiplier, mapping
  // primary inputs and outputs by name (declaration order is not part of
  // the format's contract).
  MultiplierCircuit ref = make_multiplier(lib_, 8);
  const auto value_by_name = [](const Netlist& nl,
                                const std::vector<bool>& values,
                                const std::string& name) {
    for (SignalId po : nl.primary_outputs()) {
      if (nl.signal(po).name == name) return values[po.value()];
    }
    ADD_FAILURE() << "no output named " << name;
    return false;
  };
  for (const auto& [a, b] : std::vector<std::pair<unsigned, unsigned>>{
           {0u, 0u}, {1u, 1u}, {3u, 5u}, {85u, 170u}, {255u, 255u}, {200u, 131u}}) {
    const auto pi_vector = [&](const Netlist& nl) {
      std::vector<bool> pis;
      for (SignalId pi : nl.primary_inputs()) {
        const std::string& name = nl.signal(pi).name;
        bool v = false;
        if (name[0] == 'a') v = ((a >> (name[1] - '0')) & 1u) != 0;
        if (name[0] == 'b') v = ((b >> (name[1] - '0')) & 1u) != 0;
        pis.push_back(v);  // tie0 and friends stay 0
      }
      return pis;
    };
    const auto got = steady(parsed, pi_vector(parsed));
    const auto want = steady(ref.netlist, pi_vector(ref.netlist));
    ASSERT_EQ(parsed.primary_outputs().size(), ref.netlist.primary_outputs().size());
    for (SignalId po : ref.netlist.primary_outputs()) {
      const std::string& name = ref.netlist.signal(po).name;
      ASSERT_EQ(value_by_name(parsed, got, name), want[po.value()])
          << a << "*" << b << " output " << name;
    }
  }
}

/// Property fuzz: random mutations of a known-good deck must either parse
/// into a checked netlist or raise ContractViolation -- never crash, hang,
/// or accept an inconsistent circuit (read_bench runs Netlist::check()).
TEST_F(ParsersTest, BenchFuzzMutatedDecksNeverCrash) {
  const std::string base{c17_bench_text()};
  SplitMix64 rng(0xbe7cf);
  int parsed_ok = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = rng.next_below(static_cast<std::uint32_t>(text.size()));
      switch (rng.next_below(4)) {
        case 0:  // flip a byte to a random printable character
          text[pos] = static_cast<char>(' ' + rng.next_below(95));
          break;
        case 1:  // delete a byte
          text.erase(pos, 1);
          break;
        case 2:  // duplicate a random line somewhere
          text.insert(pos, "16 = NAND(2, 11)\n");
          break;
        case 3:  // truncate
          text.resize(pos);
          break;
      }
    }
    try {
      const Netlist nl = read_bench(text, lib_);
      EXPECT_LE(nl.num_gates(), 64u);
      ++parsed_ok;
    } catch (const ContractViolation&) {
      // Expected for most mutations.
    }
  }
  // Sanity: some mutants (e.g. comment-only edits) must still parse.
  EXPECT_GT(parsed_ok, 0);
}

TEST_F(ParsersTest, VerilogParseAndEvaluate) {
  const char* text = R"(
// half adder
module half_adder (a, b, s, c);
  input a, b;
  output s, c;
  /* no wires needed */
  xor gx (s, a, b);
  and ga (c, a, b);
endmodule
)";
  const Netlist nl = read_verilog(text, lib_);
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  for (unsigned pattern = 0; pattern < 4; ++pattern) {
    const bool a = (pattern & 1) != 0;
    const bool b = (pattern & 2) != 0;
    const auto values = steady(nl, {a, b});
    ASSERT_EQ(values[nl.find_signal("s")->value()], a != b);
    ASSERT_EQ(values[nl.find_signal("c")->value()], a && b);
  }
}

TEST_F(ParsersTest, VerilogRoundTrip) {
  ParityCircuit parity = make_parity_tree(lib_, 4);
  const std::string text = write_verilog(parity.netlist);
  const Netlist reparsed = read_verilog(text, lib_);
  EXPECT_EQ(reparsed.num_gates(), parity.netlist.num_gates());
  for (unsigned pattern = 0; pattern < 16; ++pattern) {
    std::vector<bool> pis;
    int ones = 0;
    for (int b = 0; b < 4; ++b) {
      const bool bit = ((pattern >> b) & 1u) != 0;
      pis.push_back(bit);
      ones += bit ? 1 : 0;
    }
    const auto values = steady(reparsed, pis);
    ASSERT_EQ(values[reparsed.primary_outputs()[0].value()], ones % 2 == 1);
  }
}

TEST_F(ParsersTest, VerilogRejectsBehavioural) {
  EXPECT_THROW((void)read_verilog("module m (a); input a; assign b = a; endmodule", lib_),
               ContractViolation);
  EXPECT_THROW((void)read_verilog("module m (a); input a[3:0]; endmodule", lib_),
               ContractViolation);
  EXPECT_THROW((void)read_verilog("no module here", lib_), ContractViolation);
}

TEST_F(ParsersTest, NativeNetlistRoundTripWithWireCaps) {
  Netlist original(lib_);
  const SignalId a = original.add_primary_input("a");
  const SignalId b = original.add_primary_input("b");
  const SignalId m = original.add_signal("m");
  const SignalId y = original.add_signal("y");
  original.mark_primary_output(y);
  original.set_wire_cap(m, 0.055);
  const std::array<SignalId, 3> aoi_in{a, b, a};
  (void)original.add_gate("g1", lib_.find("AOI21_X1"), aoi_in, m);
  const std::array<SignalId, 1> inv_in{m};
  (void)original.add_gate("g2", CellKind::kInv, inv_in, y);

  const std::string text = write_netlist(original);
  const Netlist reparsed = read_netlist(text, lib_);
  EXPECT_EQ(reparsed.num_gates(), 2u);
  EXPECT_NEAR(reparsed.signal(*reparsed.find_signal("m")).wire_cap, 0.055, 1e-12);
  EXPECT_EQ(reparsed.cell_of(*reparsed.find_gate("g1")).kind, CellKind::kAoi21);
  for (unsigned pattern = 0; pattern < 4; ++pattern) {
    const bool va = (pattern & 1) != 0;
    const bool vb = (pattern & 2) != 0;
    const auto got = steady(reparsed, {va, vb});
    const auto want = steady(original, {va, vb});
    ASSERT_EQ(got[reparsed.find_signal("y")->value()], want[y.value()]);
  }
}

TEST_F(ParsersTest, StimulusFileDirectives) {
  ChainCircuit chain = make_chain(lib_, 1);
  const char* text = R"(
# testbench
slew 0.25
init in 1
edge in 5.0 0
edge in 9.0 1 0.6
)";
  const Stimulus stim = read_stimulus(text, chain.netlist);
  EXPECT_DOUBLE_EQ(stim.default_slew(), 0.25);
  EXPECT_TRUE(stim.initial_value(chain.nodes[0]));
  const auto edges = stim.edges(chain.nodes[0]);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges[0].time, 5.0);
  EXPECT_FALSE(edges[0].value);
  EXPECT_DOUBLE_EQ(edges[1].tau, 0.6);
}

TEST_F(ParsersTest, StimulusSequenceWords) {
  MultiplierCircuit mult = make_multiplier(lib_, 2);
  // Inputs a1 a0 b1 b0 as MSB..LSB of the word.
  const std::string text = "seq a1 a0 b1 b0 start 5 period 5 words 0x0 0xF 0x5\n";
  const Stimulus stim = read_stimulus(text, mult.netlist);
  // Word 0xF at t=5: all four rise.
  for (const SignalId sig : {mult.a[0], mult.a[1], mult.b[0], mult.b[1]}) {
    EXPECT_FALSE(stim.initial_value(sig));
    const auto edges = stim.edges(sig);
    ASSERT_GE(edges.size(), 1u);
    EXPECT_DOUBLE_EQ(edges[0].time, 5.0);
    EXPECT_TRUE(edges[0].value);
  }
  // Word 0x5 = a1=0 a0=1 b1=0 b0=1 at t=10: a1 and b1 fall.
  EXPECT_EQ(stim.edges(mult.a[1]).size(), 2u);
  EXPECT_EQ(stim.edges(mult.a[0]).size(), 1u);
}

TEST_F(ParsersTest, StimulusErrors) {
  ChainCircuit chain = make_chain(lib_, 1);
  EXPECT_THROW((void)read_stimulus("edge nosuch 1 0\n", chain.netlist), ContractViolation);
  EXPECT_THROW((void)read_stimulus("edge n1 1 0\n", chain.netlist), ContractViolation);
  EXPECT_THROW((void)read_stimulus("bogus directive\n", chain.netlist), ContractViolation);
  EXPECT_THROW((void)read_stimulus("edge in abc 0\n", chain.netlist), ContractViolation);

  // Numeric fields are range-checked at the reader with the line number:
  // NaN and Inf never reach the kernel, and a non-positive slew no longer
  // fails deep inside the Simulator.
  const std::pair<const char*, const char*> bad_values[] = {
      {"init in 0\nslew 0\n", "stimulus line 2: slew must be finite and positive"},
      {"init in 0\nslew -1\n", "stimulus line 2: slew must be finite and positive"},
      {"init in 0\nslew nan\n", "stimulus line 2: slew must be finite and positive"},
      {"init in 0\nslew inf\n", "stimulus line 2: slew must be finite and positive"},
      {"slew x\n", "failed to parse number 'x' in stimulus line 1"},
      {"init in 0\nedge in inf 1\n", "stimulus line 2: edge time must be finite"},
      {"init in 0\nedge in nan 1\n", "stimulus line 2: edge time must be finite"},
      {"init in 0\nedge in -1 1\n", "stimulus line 2: edge time must be finite"},
      {"edge in 1 1 inf\n", "stimulus line 1: tau must be finite"},
      {"edge in 1 1 -0.5\n", "stimulus line 1: tau must be finite"},
  };
  for (const auto& [text, message] : bad_values) {
    expect_stimulus_error(text, chain.netlist, message);
  }
}

TEST_F(ParsersTest, StimulusHexWordEdgeCases) {
  MultiplierCircuit mult = make_multiplier(lib_, 2);
  // Regression: a bare "0x" token used to parse silently as 0 and an
  // over-long literal silently wrapped modulo 2^64; both must hit the
  // line-numbered error path instead.
  try {
    (void)read_stimulus("\nseq a1 a0 b1 b0 start 5 period 5 words 0x 0xF\n",
                        mult.netlist);
    FAIL() << "bare 0x accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("empty hex literal"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  try {
    (void)read_stimulus(
        "seq a1 a0 b1 b0 start 5 period 5 words 0x10000000000000000\n", mult.netlist);
    FAIL() << "65-bit hex literal accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("overflows 64 bits"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(
      (void)read_stimulus("seq a1 a0 b1 b0 start 5 period 5 words 0X\n", mult.netlist),
      ContractViolation);
  const std::pair<const char*, const char*> bad_timing[] = {
      {"seq a1 a0 b1 b0 start inf period 5 words 0x0 0xF\n",
       "stimulus line 1: seq start must be finite"},
      {"seq a1 a0 b1 b0 start nan period 5 words 0x0 0xF\n",
       "stimulus line 1: seq start must be finite"},
      {"seq a1 a0 b1 b0 start 5 period nan words 0x0 0xF\n",
       "stimulus line 1: seq period must be finite"},
      {"seq a1 a0 b1 b0 start 5 period inf words 0x0 0xF\n",
       "stimulus line 1: seq period must be finite"},
      {"seq a1 a0 b1 b0 start 5 period 0 words 0x0 0xF\n",
       "stimulus line 1: seq period must be finite"},
  };
  for (const auto& [text, message] : bad_timing) {
    expect_stimulus_error(text, mult.netlist, message);
  }
  // The full 64-bit range itself still parses (low 4 input bits all set).
  const Stimulus wide = read_stimulus(
      "seq a1 a0 b1 b0 start 5 period 5 words 0x0 0xFFFFFFFFFFFFFFFF\n", mult.netlist);
  EXPECT_EQ(wide.edges(mult.a[0]).size(), 1u);
  EXPECT_TRUE(wide.edges(mult.a[0])[0].value);
}

}  // namespace
}  // namespace halotis
