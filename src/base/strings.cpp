#include "src/base/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

#include "src/base/check.hpp"

namespace halotis {

namespace {
bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(trim(text.substr(start)));
      return pieces;
    }
    pieces.emplace_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> pieces;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t begin = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > begin) pieces.emplace_back(text.substr(begin, i - begin));
  }
  return pieces;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string to_upper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view text, std::string_view upper) {
  return std::equal(text.begin(), text.end(), upper.begin(), upper.end(), [](char c, char u) {
    return static_cast<char>(std::toupper(static_cast<unsigned char>(c))) == u;
  });
}

bool istarts_with(std::string_view text, std::string_view upper) {
  return text.size() >= upper.size() && iequals(text.substr(0, upper.size()), upper);
}

double parse_double(std::string_view text, std::string_view context) {
  const std::string_view trimmed = trim(text);
  double value = 0.0;
  const auto* begin = trimmed.data();
  const auto* end = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  require(ec == std::errc{} && ptr == end,
          std::string("failed to parse number '") + std::string(trimmed) + "' in " +
              std::string(context));
  return value;
}

unsigned long parse_unsigned(std::string_view text, std::string_view context) {
  const std::string_view trimmed = trim(text);
  unsigned long value = 0;
  const auto* begin = trimmed.data();
  const auto* end = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  require(ec == std::errc{} && ptr == end,
          std::string("failed to parse unsigned '") + std::string(trimmed) + "' in " +
              std::string(context));
  return value;
}

std::string format_double(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
  return buffer;
}

}  // namespace halotis
