#include "src/parsers/bench_format.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

namespace {

constexpr std::size_t npos = std::string_view::npos;

/// One bench operator.  NOT/BUFF take exactly one input.  The n-ary ones
/// map 2-4 inputs to the library cell of that width when there is one (a
/// narrower kind marks a missing width) and decompose wider gates into a
/// balanced tree of `core` cells closed by the 2-input cell.  A 1-input
/// use of any operator is a BUF, or a NOT when it is inverting.
struct OpSpec {
  std::string_view name;
  std::array<CellKind, 3> by_width;  ///< 2-, 3- and 4-input cell
  CellKind core;                     ///< non-inverting 2-input tree stage
  bool inverting;
  bool unary;
};

using enum CellKind;
constexpr OpSpec kOps[] = {
    {"AND", {kAnd2, kAnd3, kAnd4}, kAnd2, false, false},
    {"NAND", {kNand2, kNand3, kNand4}, kAnd2, true, false},
    {"OR", {kOr2, kOr3, kOr4}, kOr2, false, false},
    {"NOR", {kNor2, kNor3, kNor4}, kOr2, true, false},
    {"XOR", {kXor2, kXor3, kXor2}, kXor2, false, false},
    {"XNOR", {kXnor2, kXnor2, kXnor2}, kXor2, true, false},
    {"NOT", {kInv, kInv, kInv}, kInv, true, true},
    {"INV", {kInv, kInv, kInv}, kInv, true, true},
    {"BUFF", {kBuf, kBuf, kBuf}, kBuf, false, true},
    {"BUF", {kBuf, kBuf, kBuf}, kBuf, false, true},
};

/// One distinct name of the deck: a view into the text plus what declares it.
struct Name {
  std::string_view text;
  int input_line = 0;  ///< line of its INPUT, 0 when none
  int gate = -1;       ///< index of the gate defining it, -1 when none
  SignalId id;         ///< assigned at instantiation
};

struct PendingGate {
  std::uint32_t output;       ///< name slot
  std::uint32_t first_fanin;  ///< into the flat fanin list
  std::uint32_t num_fanins;
  int line;
  const OpSpec* op;           ///< null for an unknown operator
  std::string_view op_text;   ///< as written, for the unknown-operator diagnostic
};

std::string on_line(std::string_view what, int line) {
  return "bench: " + std::string(what) + " on line " + std::to_string(line);
}

std::string quoted(std::string_view name) { return "'" + std::string(name) + "'"; }

}  // namespace

Netlist read_bench_file(const std::string& path, const Library& library) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), [&] { return "bench: cannot open file '" + path + "'"; });
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return read_bench(text, library);
}

Netlist read_bench(std::string_view text, const Library& library) {
  // Every name is interned once, into a hashed view -> slot table over the
  // text; the checks and the instantiation below work on slot indices.
  std::unordered_map<std::string_view, std::uint32_t> slots;
  std::vector<Name> names;
  const auto intern = [&](std::string_view name) {
    const auto [it, inserted] = slots.try_emplace(name, static_cast<std::uint32_t>(names.size()));
    if (inserted) names.push_back(Name{name, 0, -1, SignalId{}});
    return it->second;
  };
  std::vector<std::uint32_t> inputs;                   ///< INPUT slots, in order
  std::vector<std::pair<std::uint32_t, int>> outputs;  ///< OUTPUT slot and line
  std::vector<PendingGate> gates;
  std::vector<std::uint32_t> fanins;  ///< every gate's fanin slots, gate by gate

  int line = 0;
  for (std::size_t pos = 0, end = 0; pos < text.size(); pos = end + 1) {
    end = std::min(text.find('\n', pos), text.size());
    ++line;
    std::string_view view = text.substr(pos, end - pos);
    view = trim(view.substr(0, view.find('#')));
    if (view.empty()) continue;

    const bool is_input = istarts_with(view, "INPUT(");
    if (is_input || istarts_with(view, "OUTPUT(")) {
      const std::size_t open = view.find('(');
      const std::size_t close = view.rfind(')');
      require(close != npos && close > open, [&] { return on_line("malformed port", line); });
      const std::string_view name = trim(view.substr(open + 1, close - open - 1));
      require(!name.empty(), [&] { return on_line("empty port name", line); });
      const std::uint32_t slot = intern(name);
      if (!is_input) {
        outputs.emplace_back(slot, line);
        continue;
      }
      Name& n = names[slot];
      require(n.input_line == 0,
              [&] { return on_line("duplicate INPUT " + quoted(name), line); });
      require(n.gate < 0, [&] {
        return on_line("INPUT " + quoted(name), line) + " is already defined by the gate on line " +
               std::to_string(gates[static_cast<std::size_t>(n.gate)].line);
      });
      n.input_line = line;
      inputs.push_back(slot);
      continue;
    }

    const std::size_t eq = view.find('=');
    require(eq != npos, [&] { return on_line("expected assignment", line); });
    const std::string_view output = trim(view.substr(0, eq));
    const std::string_view rhs = trim(view.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    require(open != npos && close != npos && close > open,
            [&] { return on_line("malformed gate", line); });
    PendingGate gate{0, static_cast<std::uint32_t>(fanins.size()), 0, line, nullptr,
                     trim(rhs.substr(0, open))};
    require(!iequals(gate.op_text, "DFF") && !iequals(gate.op_text, "DFFSR"), [&] {
      return on_line("sequential element", line) +
             " (HALOTIS simulates combinational logic)";
    });
    for (const OpSpec& op : kOps) {
      if (iequals(gate.op_text, op.name)) gate.op = &op;
    }
    for (std::string_view list = rhs.substr(open + 1, close - open - 1);;) {
      const std::size_t comma = list.find(',');
      const std::string_view piece = trim(list.substr(0, comma));
      require(!piece.empty(), [&] { return on_line("empty operand", line); });
      fanins.push_back(intern(piece));
      ++gate.num_fanins;
      if (comma == npos) break;
      list.remove_prefix(comma + 1);
    }
    require(gate.num_fanins > 0, [&] { return on_line("gate without inputs", line); });
    require(!output.empty(), [&] { return on_line("empty gate output name", line); });
    gate.output = intern(output);
    Name& n = names[gate.output];
    require(n.gate < 0, [&] {
      return on_line("duplicate definition of " + quoted(output), line) +
             " (first defined on line " +
             std::to_string(gates[static_cast<std::size_t>(n.gate)].line) + ")";
    });
    require(n.input_line == 0, [&] {
      return "bench: gate on line " + std::to_string(line) + " redefines INPUT " +
             quoted(output) + " (declared on line " + std::to_string(n.input_line) + ")";
    });
    n.gate = static_cast<int>(gates.size());
    gates.push_back(gate);
  }
  const auto fanins_of = [&](const PendingGate& g) {
    return std::span<const std::uint32_t>(fanins).subspan(g.first_fanin, g.num_fanins);
  };

  // Every fanin must be an INPUT or some gate's output -- a silently
  // created undriven signal would only be diagnosed (nameless) much later.
  for (const PendingGate& g : gates) {
    for (const std::uint32_t slot : fanins_of(g)) {
      require(names[slot].input_line != 0 || names[slot].gate >= 0, [&] {
        return on_line("undeclared fanin " + quoted(names[slot].text), g.line);
      });
    }
  }

  // Cycle check over the pending gates (iterative DFS, three colours).  A
  // combinational deck must be acyclic; Netlist::check() cannot report the
  // offending source line, so detect it here.
  std::vector<std::uint8_t> colour(gates.size(), 0);  // 0 white, 1 grey, 2 black
  std::vector<std::pair<std::size_t, std::uint32_t>> stack;  // gate, next fanin
  for (std::size_t root = 0; root < gates.size(); ++root) {
    if (colour[root] != 0) continue;
    stack.emplace_back(root, 0);
    colour[root] = 1;
    while (!stack.empty()) {
      const std::size_t g = stack.back().first;
      std::uint32_t& next_in = stack.back().second;
      if (next_in == gates[g].num_fanins) {
        colour[g] = 2;
        stack.pop_back();
        continue;
      }
      const int dep = names[fanins_of(gates[g])[next_in++]].gate;
      if (dep < 0) continue;  // primary input
      std::uint8_t& dep_colour = colour[static_cast<std::size_t>(dep)];
      require(dep_colour != 1, [&] {
        const PendingGate& d = gates[static_cast<std::size_t>(dep)];
        return on_line("cyclic definition of " + quoted(names[d.output].text), d.line) +
               " (reached again from " + quoted(names[gates[g].output].text) + " on line " +
               std::to_string(gates[g].line) + ")";
      });
      if (dep_colour == 0) {
        dep_colour = 1;
        stack.emplace_back(dep, 0);
      }
    }
  }

  // Instantiate: INPUTs, then gate outputs, each in file order, so signal
  // ids do not depend on where a name is first used.
  Netlist netlist(library);
  netlist.reserve(inputs.size() + gates.size(), gates.size());
  for (const std::uint32_t slot : inputs) {
    names[slot].id = netlist.add_primary_input(std::string(names[slot].text));
  }
  for (const PendingGate& g : gates) {
    names[g.output].id = netlist.add_signal(std::string(names[g.output].text));
  }

  int synth_counter = 0;
  std::vector<SignalId> ins;
  for (const PendingGate& g : gates) {
    const SignalId out = names[g.output].id;
    ins.clear();
    for (const std::uint32_t slot : fanins_of(g)) ins.push_back(names[slot].id);
    std::string gate_name{"g_"};
    gate_name += names[g.output].text;

    require(g.op != nullptr,
            [&] { return on_line("unknown gate " + quoted(to_upper(g.op_text)), g.line); });
    const OpSpec& op = *g.op;
    require(!op.unary || ins.size() == 1, [&] {
      return std::string("bench: ") + (op.inverting ? "NOT" : "BUFF") +
             " takes one input (line " + std::to_string(g.line) + ")";
    });
    if (ins.size() == 1) {
      // Degenerate 1-input AND/OR = BUF; NAND/NOR = NOT (seen in some decks).
      (void)netlist.add_gate(std::move(gate_name), op.inverting ? kInv : kBuf, ins, out);
      continue;
    }
    const std::size_t width = ins.size();
    if (width <= 4 && num_inputs(op.by_width[width - 2]) == static_cast<int>(width)) {
      (void)netlist.add_gate(std::move(gate_name), op.by_width[width - 2], ins, out);
      continue;
    }

    // Wide gate: balanced tree of the non-inverting core kind, then a final
    // 2-input stage of the operator itself, which applies the complement if
    // needed.  XOR/XNOR chain by parity, AND/OR/NAND/NOR by conjunction or
    // disjunction.
    std::vector<SignalId> level = ins;
    while (level.size() > 2) {
      std::vector<SignalId> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        const std::string n = std::to_string(synth_counter++);
        next.push_back(netlist.add_signal("bench_t" + n));
        const std::array<SignalId, 2> pair{level[i], level[i + 1]};
        (void)netlist.add_gate("bench_g" + n, op.core, pair, next.back());
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
    }
    const std::array<SignalId, 2> pair{level[0], level[1]};
    (void)netlist.add_gate(std::move(gate_name), op.by_width[0], pair, out);
  }

  for (const auto& [slot, output_line] : outputs) {
    const Name& n = names[slot];
    require(n.input_line != 0 || n.gate >= 0, [&n, at = output_line] {
      return on_line("OUTPUT " + quoted(n.text), at) + " never defined";
    });
    netlist.mark_primary_output(n.id);
  }
  netlist.check();
  return netlist;
}

std::string write_bench(const Netlist& netlist) {
  std::ostringstream out;
  out << "# written by HALOTIS\n";
  for (SignalId pi : netlist.primary_inputs()) {
    out << "INPUT(" << netlist.signal(pi).name << ")\n";
  }
  for (SignalId po : netlist.primary_outputs()) {
    out << "OUTPUT(" << netlist.signal(po).name << ")\n";
  }
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist.gate(gid);
    const CellKind kind = netlist.cell_of(gid).kind;
    // The first operator with a cell of this kind: NOT for INV, BUFF for BUF.
    const OpSpec* op = std::find_if(std::begin(kOps), std::end(kOps), [&](const OpSpec& spec) {
      return std::ranges::find(spec.by_width, kind) != spec.by_width.end();
    });
    require(op != std::end(kOps), [&] {
      return "write_bench(): cell kind " + std::string(cell_kind_name(kind)) +
             " has no bench representation";
    });
    out << netlist.signal(gate.output).name << " = " << op->name << '(';
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (i > 0) out << ", ";
      out << netlist.signal(gate.inputs[i]).name;
    }
    out << ")\n";
  }
  return out.str();
}

std::string_view c17_bench_text() {
  return R"(# c17 ISCAS-85 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";
}

}  // namespace halotis
