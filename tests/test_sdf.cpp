// Tests for the SDF delay-annotation writer and the strict reader.
#include <gtest/gtest.h>

#include "src/base/strings.hpp"
#include "src/circuits/generators.hpp"
#include "src/parsers/sdf.hpp"

namespace halotis {
namespace {

/// Expects `fn` to throw a ContractViolation whose message carries the
/// given line-numbered prefix.
template <class Fn>
void expect_sdf_error(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected ContractViolation containing '" << fragment << "'";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
  }
}

class SdfTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
};

TEST_F(SdfTest, HeaderAndStructure) {
  C17Circuit c17 = make_c17(lib_);
  const std::string sdf = write_sdf(c17.netlist);
  EXPECT_NE(sdf.find("(DELAYFILE"), std::string::npos);
  EXPECT_NE(sdf.find("(SDFVERSION \"2.1\")"), std::string::npos);
  EXPECT_NE(sdf.find("(TIMESCALE 1ns)"), std::string::npos);
  // One CELL per gate (count CELLTYPE: "(CELL" is a prefix of it).
  std::size_t cells = 0;
  std::size_t pos = 0;
  while ((pos = sdf.find("(CELLTYPE", pos)) != std::string::npos) {
    ++cells;
    pos += 9;
  }
  EXPECT_EQ(cells, c17.netlist.num_gates());
  EXPECT_NE(sdf.find("(CELLTYPE \"NAND2_X1\")"), std::string::npos);
  EXPECT_NE(sdf.find("(INSTANCE G22)"), std::string::npos);
}

TEST_F(SdfTest, IopathValuesMatchMacroModel) {
  ChainCircuit chain = make_chain(lib_, 1);
  chain.netlist.set_wire_cap(chain.nodes[1], 0.08);
  const TimeNs slew = 0.7;
  const std::string sdf = write_sdf(chain.netlist, slew);

  const Cell& inv = lib_.cell(lib_.by_kind(CellKind::kInv));
  const Farad cl = chain.netlist.load_of(chain.nodes[1]);
  const std::string rise = format_double(inv.pin(0).rise.tp0(cl, slew), 9);
  const std::string fall = format_double(inv.pin(0).fall.tp0(cl, slew), 9);
  EXPECT_NE(sdf.find("(IOPATH A Y (" + rise + "::" + rise + ") (" + fall +
                     "::" + fall + "))"),
            std::string::npos)
      << sdf;
}

TEST_F(SdfTest, MultiInputPortsAndPinOrder) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId b = nl.add_primary_input("b");
  const SignalId c = nl.add_primary_input("c");
  const SignalId y = nl.add_signal("y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 3> ins{a, b, c};
  (void)nl.add_gate("g", CellKind::kNand3, ins, y);
  const std::string sdf = write_sdf(nl);
  EXPECT_NE(sdf.find("(IOPATH A Y"), std::string::npos);
  EXPECT_NE(sdf.find("(IOPATH B Y"), std::string::npos);
  EXPECT_NE(sdf.find("(IOPATH C Y"), std::string::npos);
  EXPECT_EQ(sdf.find("(IOPATH D Y"), std::string::npos);
}

TEST_F(SdfTest, HierarchicalNamesEscaped) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId y = nl.add_signal("u0/y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 1> ins{a};
  (void)nl.add_gate("u0/g1", CellKind::kInv, ins, y);
  const std::string sdf = write_sdf(nl);
  EXPECT_NE(sdf.find("(INSTANCE u0.g1)"), std::string::npos);
  EXPECT_EQ(sdf.find("u0/g1"), std::string::npos);
}

TEST_F(SdfTest, PortNames) {
  EXPECT_EQ(sdf_port_name(0), "A");
  EXPECT_EQ(sdf_port_name(3), "D");
  EXPECT_THROW((void)sdf_port_name(26), ContractViolation);
  EXPECT_THROW((void)write_sdf(Netlist(lib_), 0.0), ContractViolation);
}

// ---- reader -----------------------------------------------------------------

TEST_F(SdfTest, ReaderParsesWriterOutput) {
  C17Circuit c17 = make_c17(lib_);
  const SdfFile sdf = read_sdf(write_sdf(c17.netlist, 0.5, "c17"));
  EXPECT_EQ(sdf.design, "c17");
  EXPECT_EQ(sdf.timescale_ns, 1.0);
  std::size_t pins = 0;
  for (std::size_t g = 0; g < c17.netlist.num_gates(); ++g) {
    pins += c17.netlist.gate(GateId{static_cast<GateId::underlying_type>(g)}).inputs.size();
  }
  EXPECT_EQ(sdf.iopaths.size(), pins);
  EXPECT_EQ(sdf.iopaths.front().celltype, "NAND2_X1");
  EXPECT_GT(sdf.iopaths.front().rise, 0.0);
}

TEST_F(SdfTest, ReaderHandlesTriplesAndTimescales) {
  const SdfFile sdf = read_sdf(R"((DELAYFILE
  (TIMESCALE 100 ps)
  (CELL (CELLTYPE "INV_X1") (INSTANCE u1)
    (DELAY (ABSOLUTE (IOPATH A Y (1.2:1.5:1.9) (0.9)))))
))");
  ASSERT_EQ(sdf.iopaths.size(), 1u);
  // typ field of the triple, converted from 100 ps units to ns.
  EXPECT_NEAR(sdf.iopaths[0].rise, 0.15, 1e-12);
  EXPECT_NEAR(sdf.iopaths[0].fall, 0.09, 1e-12);
  // Empty typ falls back to max.
  const SdfFile maxed = read_sdf(R"((DELAYFILE
  (CELL (CELLTYPE "INV_X1") (INSTANCE u1)
    (DELAY (ABSOLUTE (IOPATH A Y (1.2::1.9) (0.5::0.5)))))
))");
  EXPECT_NEAR(maxed.iopaths[0].rise, 1.9, 1e-12);
}

TEST_F(SdfTest, ReaderRejectsMalformedRecordsWithLineNumbers) {
  // CELL without CELLTYPE.
  expect_sdf_error(
      [] {
        (void)read_sdf("(DELAYFILE\n(CELL (INSTANCE u1)\n"
                       "(DELAY (ABSOLUTE (IOPATH A Y (1) (1))))))");
      },
      "sdf line 3: DELAY before CELLTYPE");
  // Bad input port.
  expect_sdf_error(
      [] {
        (void)read_sdf("(DELAYFILE (CELL (CELLTYPE \"X\") (INSTANCE u1)\n"
                       "(DELAY (ABSOLUTE (IOPATH AB Y (1) (1))))))");
      },
      "sdf line 2: bad IOPATH input port 'AB'");
  // Malformed delay triple.
  expect_sdf_error(
      [] {
        (void)read_sdf("(DELAYFILE (CELL (CELLTYPE \"X\") (INSTANCE u1)\n"
                       "(DELAY (ABSOLUTE (IOPATH A Y (1:2) (1))))))");
      },
      "sdf line 2: delay must be (v) or (min:typ:max)");
  // INCREMENT mode is unsupported, not silently treated as ABSOLUTE.
  expect_sdf_error(
      [] {
        (void)read_sdf("(DELAYFILE (CELL (CELLTYPE \"X\") (INSTANCE u1)\n"
                       "(DELAY (INCREMENT (IOPATH A Y (1) (1))))))");
      },
      "sdf line 2: INCREMENT delays are not supported");
  // Unbalanced parentheses.
  expect_sdf_error([] { (void)read_sdf("(DELAYFILE (CELL (CELLTYPE \"X\")"); },
                   "unexpected end of file");
  // Unknown top-level construct.
  expect_sdf_error([] { (void)read_sdf("(DELAYFILE\n(TIMINGCHECK))"); },
                   "sdf line 2: unsupported DELAYFILE entry 'TIMINGCHECK'");
  // TIMESCALE after a CELL would silently mis-scale the already-parsed
  // delays: rejected, not best-effort.
  expect_sdf_error(
      [] {
        (void)read_sdf("(DELAYFILE (CELL (CELLTYPE \"X\") (INSTANCE u1)\n"
                       "(DELAY (ABSOLUTE (IOPATH A Y (1) (1)))))\n"
                       "(TIMESCALE 100 ps))");
      },
      "sdf line 3: TIMESCALE after the first CELL is not supported");
  // Negative delay.
  expect_sdf_error(
      [] {
        (void)read_sdf("(DELAYFILE (CELL (CELLTYPE \"X\") (INSTANCE u1)\n"
                       "(DELAY (ABSOLUTE (IOPATH A Y (-1) (1))))))");
      },
      "sdf line 2: negative IOPATH delay");
  // Non-finite delays never reach the timing graph, NaN is not mistaken
  // for a negative delay, and an unused min/max field is checked too.
  const auto iopath = [](const std::string& rise) {
    return "(DELAYFILE (CELL (CELLTYPE \"X\") (INSTANCE u1)\n(DELAY (ABSOLUTE (IOPATH A Y " +
           rise + " (1))))))";
  };
  for (const char* rise : {"(inf::inf)", "(nan)", "(nan::nan)", "(-inf)", "(1:inf:2)", "(nan:1:2)"}) {
    expect_sdf_error([&] { (void)read_sdf(iopath(rise)); },
                     "sdf line 2: non-finite delay value");
  }
  expect_sdf_error([&] { (void)read_sdf(iopath("(1e400)")); },
                   "sdf line 2: bad delay value '1e400'");
  // A finite delay that overflows once scaled.
  expect_sdf_error(
      [] {
        (void)read_sdf("(DELAYFILE (TIMESCALE 1us) (CELL (CELLTYPE \"X\") (INSTANCE u1)\n"
                       "(DELAY (ABSOLUTE (IOPATH A Y (1e306) (1))))))");
      },
      "sdf line 2: IOPATH delay overflows after TIMESCALE");
  // A TIMESCALE must be finite and positive.
  for (const char* scale : {"0ns", "-1ns", "0 ps", "nanns", "inf ps", "1e308us"}) {
    expect_sdf_error(
        [&] { (void)read_sdf(std::string("(DELAYFILE\n(TIMESCALE ") + scale + "))"); },
        "sdf line 2: TIMESCALE must be finite and positive");
  }
}

TEST_F(SdfTest, ApplyRejectsUnmatchedRecords) {
  ChainCircuit chain = make_chain(lib_, 1);
  const TimingGraph reference = TimingGraph::build(chain.netlist, TimingPolicy{});
  const std::string gate_name = chain.netlist.gate(GateId{0}).name;

  // Unknown instance.
  {
    TimingGraph graph = reference;
    const SdfFile sdf = read_sdf("(DELAYFILE (CELL (CELLTYPE \"INV_X1\")\n"
                                 "(INSTANCE nosuch)\n"
                                 "(DELAY (ABSOLUTE (IOPATH A Y (1) (1))))))");
    expect_sdf_error([&] { (void)apply_sdf(graph, sdf); },
                     "INSTANCE 'nosuch' not found");
  }
  // CELLTYPE mismatch.
  {
    TimingGraph graph = reference;
    const SdfFile sdf =
        read_sdf("(DELAYFILE (CELL (CELLTYPE \"NAND2_X1\")\n(INSTANCE " + gate_name +
                 ")\n(DELAY (ABSOLUTE (IOPATH A Y (1) (1))))))");
    expect_sdf_error([&] { (void)apply_sdf(graph, sdf); }, "does not match instance");
  }
  // Port out of range for the instance's fan-in.
  {
    TimingGraph graph = reference;
    const SdfFile sdf =
        read_sdf("(DELAYFILE (CELL (CELLTYPE \"INV_X1\")\n(INSTANCE " + gate_name +
                 ")\n(DELAY (ABSOLUTE (IOPATH B Y (1) (1))))))");
    expect_sdf_error([&] { (void)apply_sdf(graph, sdf); }, "out of range");
  }
}

TEST_F(SdfTest, ApplyResolvesEscapedHierarchySeparators) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId y = nl.add_signal("u0/y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 1> ins{a};
  (void)nl.add_gate("u0/g1", CellKind::kInv, ins, y);

  // The writer escapes 'u0/g1' to 'u0.g1'; apply_sdf must find the gate.
  TimingGraph graph = TimingGraph::build(nl, TimingPolicy{});
  const SdfFile sdf = read_sdf(write_sdf(nl));
  EXPECT_EQ(apply_sdf(graph, sdf), 1u);
  EXPECT_EQ(graph.annotated_arcs(), 2u);
}

}  // namespace
}  // namespace halotis
