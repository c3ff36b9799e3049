// Unit tests for src/base: fitting, strings, rng, ids, checks.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/ids.hpp"
#include "src/base/mathfit.hpp"
#include "src/base/rng.hpp"
#include "src/base/strings.hpp"

namespace halotis {
namespace {

TEST(Check, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "broken contract");
    FAIL() << "require(false) must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("broken contract"), std::string::npos);
  }
}

TEST(Ids, DefaultIsInvalid) {
  GateId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(GateId{3}.valid());
  EXPECT_EQ(GateId{3}, GateId{3});
  EXPECT_NE(GateId{3}, GateId{4});
  EXPECT_LT(GateId{3}, GateId{4});
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<GateId, SignalId>);
  static_assert(!std::is_same_v<TransitionId, EventId>);
}

TEST(MathFit, LineThroughExactPoints) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys{1.0, 3.0, 5.0, 7.0};
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(MathFit, LineWithNoise) {
  SplitMix64 rng(42);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = 0.1 * i;
    xs.push_back(x);
    ys.push_back(-0.5 * x + 4.0 + 0.01 * (rng.next_double() - 0.5));
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, -0.5, 1e-3);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-2);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(MathFit, LineRejectsDegenerateInput) {
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)fit_line(one, one), ContractViolation);
  const std::vector<double> same_x{2.0, 2.0};
  const std::vector<double> ys{1.0, 3.0};
  EXPECT_THROW((void)fit_line(same_x, ys), ContractViolation);
}

TEST(MathFit, LeastSquaresRecoversPlane) {
  // y = 2 + 3*a - 1.5*b over a small grid.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      rows.push_back({1.0, static_cast<double>(a), static_cast<double>(b)});
      y.push_back(2.0 + 3.0 * a - 1.5 * b);
    }
  }
  const std::vector<double> coeffs = fit_least_squares(rows, y);
  ASSERT_EQ(coeffs.size(), 3u);
  EXPECT_NEAR(coeffs[0], 2.0, 1e-9);
  EXPECT_NEAR(coeffs[1], 3.0, 1e-9);
  EXPECT_NEAR(coeffs[2], -1.5, 1e-9);
}

TEST(MathFit, SolveLinearSystemSingularThrows) {
  EXPECT_THROW((void)solve_linear_system({1.0, 2.0, 2.0, 4.0}, {1.0, 2.0}, 2),
               ContractViolation);
}

TEST(MathFit, MedianOddEven) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(MathFit, MeanAndStddev) {
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_DOUBLE_EQ(stddev(values), 2.0);
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
  const auto pieces = split("a, b ,c", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto pieces = split_whitespace("  one\t two  \n three ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "one");
  EXPECT_EQ(pieces[2], "three");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_lower("NaNd2"), "nand2");
  EXPECT_EQ(to_upper("NaNd2"), "NAND2");
  EXPECT_TRUE(iequals("NaNd2", "NAND2"));
  EXPECT_FALSE(iequals("nand", "NAND2"));
  EXPECT_FALSE(iequals("nand2", "nand2"));  // the keyword side is upper-case
  EXPECT_TRUE(istarts_with("Input(a)", "INPUT("));
  EXPECT_FALSE(istarts_with("Inpu", "INPUT("));
  EXPECT_FALSE(istarts_with("INPUT (a)", "INPUT("));
}

TEST(Strings, ParseNumbers) {
  EXPECT_DOUBLE_EQ(parse_double(" 2.5 ", "test"), 2.5);
  EXPECT_EQ(parse_unsigned("42", "test"), 42ul);
  EXPECT_THROW((void)parse_double("abc", "test"), ContractViolation);
  EXPECT_THROW((void)parse_unsigned("-1", "test"), ContractViolation);
  EXPECT_THROW((void)parse_double("1.5x", "test"), ContractViolation);
}

TEST(Rng, Deterministic) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundsRespected) {
  SplitMix64 rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double r = rng.next_double_in(-2.0, 3.0);
    EXPECT_GE(r, -2.0);
    EXPECT_LT(r, 3.0);
  }
}

TEST(Rng, RoughlyUniform) {
  SplitMix64 rng(99);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], n / 10, n / 100);
  }
}

}  // namespace
}  // namespace halotis
