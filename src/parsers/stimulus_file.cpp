#include "src/parsers/stimulus_file.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

namespace {

std::uint64_t parse_word(const std::string& token, int line) {
  const std::string context = "stimulus line " + std::to_string(line);
  if (starts_with(token, "0x") || starts_with(token, "0X")) {
    require(token.size() > 2, "empty hex literal '" + token + "' in " + context);
    std::uint64_t value = 0;
    for (std::size_t i = 2; i < token.size(); ++i) {
      const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(token[i])));
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        require(false, "bad hex digit in " + context);
      }
      if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 16) {
        require(false, "hex literal '" + token + "' overflows 64 bits in " + context);
      }
      value = value * 16 + digit;
    }
    return value;
  }
  return parse_unsigned(token, context);
}

/// Parses a time or slew value that must be finite and non-negative (or
/// strictly positive): a NaN or Inf edge time would otherwise reach the
/// kernel, and a non-positive slew would fail there without a line number.
TimeNs parse_time(const std::string& token, const std::string& context,
                  std::string_view what, bool positive) {
  const double value = parse_double(token, context);
  if (!std::isfinite(value) || (positive ? value <= 0.0 : value < 0.0)) {
    require(false, context + ": " + std::string(what) + " must be finite and " +
                       (positive ? "positive" : "non-negative") + ", got '" + token + "'");
  }
  return value;
}

SignalId lookup(const Netlist& netlist, const std::string& name, int line) {
  const auto id = netlist.find_signal(name);
  require(id.has_value(), [&] {
    return "stimulus line " + std::to_string(line) + ": unknown signal '" + name + "'";
  });
  require(netlist.signal(*id).is_primary_input, [&] {
    return "stimulus line " + std::to_string(line) + ": '" + name + "' is not a primary input";
  });
  return *id;
}

}  // namespace

Stimulus read_stimulus(std::string_view text, const Netlist& netlist) {
  std::istringstream stream{std::string(text)};
  std::string line;
  int line_number = 0;
  TimeNs slew = 0.4;

  // First pass collects the default slew so its position in the file does
  // not matter; the Stimulus object is constructed with it.
  {
    std::istringstream first_pass{std::string(text)};
    std::string l;
    for (int n = 1; std::getline(first_pass, l); ++n) {
      const auto tokens = split_whitespace(l.substr(0, l.find('#')));
      if (tokens.size() == 2 && tokens[0] == "slew") {
        slew = parse_time(tokens[1], "stimulus line " + std::to_string(n), "slew",
                          /*positive=*/true);
      }
    }
  }
  Stimulus stimulus(slew);
  // Stimulus::add_edge requires time order per input; name the line that
  // breaks it.
  const auto check_order = [&](SignalId input, TimeNs time, const std::string& context) {
    const auto edges = stimulus.edges(input);
    if (!edges.empty() && time < edges.back().time) {
      require(false, context + ": edge at " + format_double(time, 6) +
                         " ns precedes the previous edge of '" + netlist.signal(input).name +
                         "'");
    }
  };

  while (std::getline(stream, line)) {
    ++line_number;
    const auto tokens = split_whitespace(line.substr(0, line.find('#')));
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];
    const std::string context = "stimulus line " + std::to_string(line_number);

    if (keyword == "slew") {
      require(tokens.size() == 2, [&] { return context + ": slew takes one value"; });
      continue;  // handled in the first pass
    }
    if (keyword == "init") {
      require(tokens.size() == 3, [&] { return context + ": init <signal> <0|1>"; });
      stimulus.set_initial(lookup(netlist, tokens[1], line_number),
                           parse_unsigned(tokens[2], context) != 0);
      continue;
    }
    if (keyword == "edge") {
      require(tokens.size() == 4 || tokens.size() == 5,
              [&] { return context + ": edge <signal> <time> <0|1> [tau]"; });
      const SignalId input = lookup(netlist, tokens[1], line_number);
      const TimeNs time = parse_time(tokens[2], context, "edge time", /*positive=*/false);
      const bool value = parse_unsigned(tokens[3], context) != 0;
      const TimeNs tau =
          tokens.size() == 5 ? parse_time(tokens[4], context, "tau", /*positive=*/false) : 0.0;
      check_order(input, time, context);
      stimulus.add_edge(input, time, value, tau);
      continue;
    }
    if (keyword == "seq") {
      // seq s3 s2 s1 s0 start 0 period 5 words 0x0 0x7 ...
      std::vector<SignalId> msb_first;
      std::size_t i = 1;
      while (i < tokens.size() && tokens[i] != "start") {
        msb_first.push_back(lookup(netlist, tokens[i], line_number));
        ++i;
      }
      require(!msb_first.empty(), [&] { return context + ": seq needs signals"; });
      require(i + 1 < tokens.size() && tokens[i] == "start",
              [&] { return context + ": expected 'start'"; });
      const TimeNs start = parse_time(tokens[i + 1], context, "seq start", /*positive=*/false);
      i += 2;
      require(i + 1 < tokens.size() && tokens[i] == "period",
              [&] { return context + ": expected 'period'"; });
      const TimeNs period = parse_time(tokens[i + 1], context, "seq period", /*positive=*/true);
      i += 2;
      require(i < tokens.size() && tokens[i] == "words",
              [&] { return context + ": expected 'words'"; });
      ++i;
      std::vector<std::uint64_t> words;
      for (; i < tokens.size(); ++i) words.push_back(parse_word(tokens[i], line_number));
      require(!words.empty(), [&] { return context + ": seq needs at least one word"; });

      for (const SignalId input : msb_first) check_order(input, start, context);
      std::vector<SignalId> lsb_first(msb_first.rbegin(), msb_first.rend());
      stimulus.apply_sequence(lsb_first, words, start, period);
      continue;
    }
    require(false, context + ": unknown directive '" + keyword + "'");
  }
  return stimulus;
}

}  // namespace halotis
