// Extended arithmetic generators beyond the paper's carry-save array:
// a Wallace-tree multiplier and a carry-lookahead adder.  They share the
// operand/product port convention of make_multiplier()/make_ripple_adder().
// Reduction-tree multipliers have shorter, more balanced paths, which
// changes how far glitches travel and therefore how much the conventional
// model overestimates.
#pragma once

#include "src/circuits/generators.hpp"

namespace halotis {

/// N x N Wallace-tree multiplier: AND partial-product array, 3:2 / 2:2
/// counter reduction to two rows, final ripple adder.
[[nodiscard]] MultiplierCircuit make_wallace_multiplier(const Library& lib, int bits = 4);

/// N-bit carry-lookahead adder (single-level generate/propagate lookahead
/// over 4-bit groups, ripple between groups).  sum has n+1 bits.
[[nodiscard]] AdderCircuit make_cla_adder(const Library& lib, int bits);

/// log2(N)-to-N one-hot decoder with enable.
struct DecoderCircuit {
  Netlist netlist;
  std::vector<SignalId> select;  ///< address bits, LSB first
  SignalId enable;
  std::vector<SignalId> outputs;  ///< one-hot outputs

  explicit DecoderCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] DecoderCircuit make_decoder(const Library& lib, int select_bits);

/// N-bit equality comparator (XNOR reduce-AND tree).
struct ComparatorCircuit {
  Netlist netlist;
  std::vector<SignalId> a, b;
  SignalId equal;

  explicit ComparatorCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] ComparatorCircuit make_comparator(const Library& lib, int bits);

}  // namespace halotis
