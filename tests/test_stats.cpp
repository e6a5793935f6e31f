#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace beepkit::support {
namespace {

TEST(StatsTest, SummarizeEmpty) {
  const summary s = summarize({});
  EXPECT_EQ(s.count, 0U);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, SummarizeKnownSample) {
  const std::vector<double> values = {2, 4, 4, 4, 5, 5, 7, 9};
  const summary s = summarize(values);
  EXPECT_EQ(s.count, 8U);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> values = {0, 10};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.5);
  // Pinned bits on an input where a fused multiply-add rounds
  // differently: the library builds with -ffp-contract=off, so every
  // build (x86-64-v3 included) gives the unfused a*(1-f) + b*f.
  const std::vector<double> pair = {1.1, 1.3};
  EXPECT_EQ(quantile(pair, 0.3), 1.1600000000000001);
  EXPECT_NE(std::fma(1.1, 1.0 - 0.3, 1.3 * 0.3), 1.1600000000000001);
  EXPECT_NE(std::fma(1.3, 0.3, 1.1 * (1.0 - 0.3)), 1.1600000000000001);
}

TEST(StatsTest, QuantileClampsQ) {
  const std::vector<double> values = {1, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(values, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 2.0), 3.0);
}

TEST(StatsTest, QuantileUnsortedInput) {
  const std::vector<double> values = {9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 5.0);
}

TEST(StatsTest, RunningStatsMatchesDirect) {
  running_stats acc;
  const std::vector<double> values = {1.5, -2.0, 3.25, 0.0, 8.5};
  double sum = 0;
  for (double v : values) {
    acc.add(v);
    sum += v;
  }
  const double mean = sum / static_cast<double>(values.size());
  double ss = 0;
  for (double v : values) ss += (v - mean) * (v - mean);
  EXPECT_EQ(acc.count(), values.size());
  EXPECT_NEAR(acc.mean(), mean, 1e-12);
  EXPECT_NEAR(acc.variance(), ss / (static_cast<double>(values.size()) - 1),
              1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 8.5);
  // Pinned bits where fusing m2 += delta * (x - mean) into one fma
  // would round differently (the library builds with
  // -ffp-contract=off).
  running_stats pinned;
  double fused_mean = 0.0;
  double fused_m2 = 0.0;
  int fused_n = 0;
  for (const double v : {1.1, 2.2, 3.3, 4.4, 5.5}) {
    pinned.add(v);
    const double delta = v - fused_mean;
    fused_mean += delta / ++fused_n;
    fused_m2 = std::fma(delta, v - fused_mean, fused_m2);
  }
  EXPECT_EQ(pinned.variance(), 3.0250000000000004);
  EXPECT_NE(fused_m2 / 4.0, 3.0250000000000004);
}

TEST(StatsTest, RunningStatsFewSamples) {
  running_stats acc;
  EXPECT_EQ(acc.variance(), 0.0);
  acc.add(5.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.mean(), 5.0);
}

TEST(StatsTest, LinearFitRecoversExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 7.0);
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(StatsTest, LinearFitDegenerateInputs) {
  EXPECT_EQ(fit_linear({}, {}).slope, 0.0);
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_EQ(fit_linear(x, y).slope, 0.0);  // vertical data: no fit
}

TEST(StatsTest, LogLogFitRecoversExponent) {
  // y = 5 x^2.5
  std::vector<double> x, y;
  for (int i = 1; i <= 30; ++i) {
    x.push_back(i);
    y.push_back(5.0 * std::pow(i, 2.5));
  }
  const auto fit = fit_loglog(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 5.0, 1e-6);
}

TEST(StatsTest, LogLogFitSkipsNonPositive) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 4.0};
  const std::vector<double> y = {5.0, 1.0, 2.0, 4.0};
  const auto fit = fit_loglog(x, y);  // first point dropped
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
}

TEST(StatsTest, CorrelationSigns) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> up = {2, 4, 6, 8, 10};
  const std::vector<double> down = {5, 4, 3, 2, 1};
  EXPECT_NEAR(correlation(x, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, down), -1.0, 1e-12);
  const std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_EQ(correlation(x, flat), 0.0);
}

TEST(StatsTest, HistogramBinsAndClamping) {
  histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.5);    // bin 4
  h.add(-3.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.total(), 5U);
  EXPECT_EQ(h.bins[0], 2U);
  EXPECT_EQ(h.bins[2], 1U);
  EXPECT_EQ(h.bins[4], 2U);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
  EXPECT_DOUBLE_EQ(h.fraction(9), 0.0);  // out-of-range bin
}

}  // namespace
}  // namespace beepkit::support
