// String utilities shared by the parsers and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace halotis {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Splits on `separator`, trimming each piece; empty pieces are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char separator);

/// Splits on any amount of ASCII whitespace; empty pieces are dropped.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view text);

/// ASCII lower-casing.
[[nodiscard]] std::string to_lower(std::string_view text);

/// ASCII upper-casing.
[[nodiscard]] std::string to_upper(std::string_view text);

/// True when `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// ASCII case-insensitive equality against an upper-case keyword: the
/// check of `to_upper(text) == upper` without building the copy.
[[nodiscard]] bool iequals(std::string_view text, std::string_view upper);

/// `starts_with`, ASCII case-insensitive against an upper-case prefix.
[[nodiscard]] bool istarts_with(std::string_view text, std::string_view upper);

/// Parses a double, throwing ContractViolation with `context` on failure.
[[nodiscard]] double parse_double(std::string_view text, std::string_view context);

/// Parses a non-negative integer, throwing ContractViolation on failure.
[[nodiscard]] unsigned long parse_unsigned(std::string_view text, std::string_view context);

/// printf-style %.*g formatting with a fixed precision, locale-independent.
[[nodiscard]] std::string format_double(double value, int precision = 6);

}  // namespace halotis
