// Tests for the support library: tables, RNG, dB helpers, errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/db.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"

namespace twiddc {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable t;
  t.header({"a", "long header"});
  t.row({"wide cell", "x"});
  const std::string s = t.str();
  // Every line has the same length.
  std::size_t len = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t nl = s.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    if (len == 0) len = nl - pos;
    EXPECT_EQ(nl - pos, len);
    pos = nl + 1;
  }
  EXPECT_NE(s.find("wide cell"), std::string::npos);
  EXPECT_NE(s.find("long header"), std::string::npos);
}

TEST(TextTableTest, RulesAndMissingCells) {
  TextTable t;
  t.header({"x", "y", "z"});
  t.row({"1"});
  t.rule();
  t.row({"2", "3", "4"});
  EXPECT_EQ(t.rows(), 3u);  // the rule counts as a body entry
  const std::string s = t.str();
  EXPECT_NE(s.find("|-"), std::string::npos);
}

TEST(TextTableTest, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(-1.0, 0), "-1");
  EXPECT_EQ(TextTable::num_unit(38.7, "mW"), "38.7 mW");
  EXPECT_EQ(TextTable::pct(6.25, 2), "6.25 %");
}

TEST(AsciiBarTest, ScalesAndClamps) {
  const std::string full = ascii_bar("x", 10.0, 10.0, 10);
  const std::string half = ascii_bar("x", 5.0, 10.0, 10);
  const std::string over = ascii_bar("x", 20.0, 10.0, 10);
  auto hashes = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '#');
  };
  EXPECT_EQ(hashes(full), 10);
  EXPECT_EQ(hashes(half), 5);
  EXPECT_EQ(hashes(over), 10);  // clamped
  EXPECT_EQ(hashes(ascii_bar("x", -1.0, 10.0, 10)), 0);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  Rng c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(DbTest, RoundTrips) {
  EXPECT_NEAR(power_db(10.0), 10.0, 1e-12);
  EXPECT_NEAR(power_db(0.5), -3.0103, 1e-3);
  EXPECT_NEAR(amplitude_db(10.0), 20.0, 1e-12);
  EXPECT_NEAR(db_to_power(power_db(0.123)), 0.123, 1e-12);
  EXPECT_NEAR(db_to_amplitude(amplitude_db(0.123)), 0.123, 1e-12);
  EXPECT_DOUBLE_EQ(power_db(0.0), -300.0);   // clamped, not -inf
  EXPECT_DOUBLE_EQ(power_db(-1.0), -300.0);
  EXPECT_DOUBLE_EQ(amplitude_db(-0.5), amplitude_db(0.5));  // |.|
}

TEST(ErrorTest, TypesAreDistinctAndCatchable) {
  EXPECT_THROW(throw ConfigError("bad config"), std::runtime_error);
  EXPECT_THROW(throw SimulationError("bad sim"), std::runtime_error);
  try {
    throw ConfigError("decimation must be in [1,4096]");
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("decimation"), std::string::npos);
  }
}

}  // namespace
}  // namespace twiddc
