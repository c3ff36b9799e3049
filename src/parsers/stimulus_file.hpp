// Stimulus (test-vector) file reader.
//
// Line-oriented format:
//   # comment
//   slew 0.4                     -- default ramp duration, ns
//   init  <signal> <0|1>         -- value before time zero
//   edge  <signal> <time> <0|1> [tau]
//   seq   <sig_msb..sig_lsb> start <t0> period <dt> words <w0> <w1> ...
// `seq` applies integer words (hex with 0x, else decimal) across the named
// signals, MSB first, at t0, t0+dt, ...; the first word sets initial values.
// Every number must be finite; slew and period must be positive, times and
// tau non-negative, and each input's edges in time order.  Anything else
// throws ContractViolation naming the line ("stimulus line N: ...").  A
// repeated edge to the value an input already has is dropped; two opposite
// edges at one instant are kept (a zero-width pulse), as Stimulus::add_edge
// defines.
#pragma once

#include <string_view>

#include "src/core/stimulus.hpp"
#include "src/netlist/netlist.hpp"

namespace halotis {

[[nodiscard]] Stimulus read_stimulus(std::string_view text, const Netlist& netlist);

}  // namespace halotis
