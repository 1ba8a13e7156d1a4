#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "sim/rng.h"

namespace prism::stats {
namespace {

TEST(HistogramTest, StartsEmpty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
  // Percentile returns a bucket representative within relative precision.
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 1000.0, 1000.0 / 64);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int i = 0; i <= 100; ++i) h.record(i);
  // Values below 2*64=128 land in exact unit buckets.
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(0.5), 50);
  EXPECT_EQ(h.percentile(1.0), 100);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, PercentileRelativeErrorBounded) {
  Histogram h;
  prism::sim::Rng rng(99);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 50000; ++i) {
    const auto v = rng.uniform_int(1, 10'000'000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const auto exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const auto approx = h.percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.04 + 2)
        << "q=" << q;
  }
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(60);
  EXPECT_DOUBLE_EQ(h.mean(), 30.0);
}

TEST(HistogramTest, RecordNCountsAll) {
  Histogram h;
  h.record_n(500, 10);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 500);
  EXPECT_EQ(h.max(), 500);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.record(100);
  a.record(200);
  b.record(300);
  b.record(50);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 50);
  EXPECT_EQ(a.max(), 300);
  EXPECT_DOUBLE_EQ(a.mean(), 162.5);
}

TEST(HistogramTest, MergeResolutionMismatchThrows) {
  Histogram a(6), b(8);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(HistogramTest, MergeEmptyIsIdentity) {
  // Merging an empty histogram must not disturb min/max/moments — the
  // windowed time-series merges many empty per-class cells.
  Histogram a, empty;
  a.record(100);
  a.record(300);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100);
  EXPECT_EQ(a.max(), 300);
  EXPECT_DOUBLE_EQ(a.mean(), 200.0);

  // Empty absorbing non-empty adopts its extrema instead of keeping the
  // zero-initialized min.
  Histogram b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 100);
  EXPECT_EQ(b.max(), 300);

  // Empty + empty stays well-defined everywhere.
  Histogram c, d;
  c.merge(d);
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.percentile(0.99), 0);
  EXPECT_DOUBLE_EQ(c.mean(), 0.0);
  EXPECT_EQ(c.buckets_held(), 0u);
}

TEST(HistogramTest, PercentileOutOfRangeQuantilesClamp) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(1.5), h.percentile(1.0));
}

TEST(HistogramTest, PercentileNaNIsSafeNotUndefined) {
  // NaN slips through ordered range checks (`q < 0` and `q > 1` are both
  // false), and ceil(NaN * count) cast to an unsigned is UB. The guard
  // must treat it as q=0 — on empty and non-empty histograms alike.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Histogram empty;
  EXPECT_EQ(empty.percentile(nan), 0);
  Histogram h;
  h.record(10);
  h.record(20);
  EXPECT_EQ(h.percentile(nan), h.percentile(0.0));
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(123);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(HistogramTest, PercentileIsMonotonic) {
  Histogram h;
  prism::sim::Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    h.record(rng.uniform_int(0, 1'000'000));
  }
  std::int64_t prev = -1;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const auto v = h.percentile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(HistogramTest, MaxPercentileCoversMax) {
  Histogram h;
  h.record(1'000'000);
  h.record(5);
  EXPECT_GE(h.percentile(1.0), 1'000'000);
}

TEST(HistogramTest, HugeValuesDoNotOverflow) {
  Histogram h;
  h.record(std::int64_t{1} << 46);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.percentile(1.0), (std::int64_t{1} << 46) - 1);
}

TEST(HistogramTest, SumSurvivesMergeAndWeightedRecords) {
  // {2,4,4,4,5,5,7,9} assembled from weighted records across two
  // histograms keeps the exact integer sum.
  Histogram a;
  a.record(2);
  a.record_n(4, 3);
  Histogram b;
  b.record_n(5, 2);
  b.record(7);
  b.record(9);
  a.merge(b);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(HistogramTest, ForEachBucketVisitsAllCounts) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(i * 997);
  std::uint64_t total = 0;
  h.for_each_bucket(
      [&](std::int64_t, std::uint64_t count) { total += count; });
  EXPECT_EQ(total, 1000u);
}

TEST(HistogramTest, InvalidResolutionThrows) {
  EXPECT_THROW(Histogram(0), std::invalid_argument);
  EXPECT_THROW(Histogram(17), std::invalid_argument);
}

// ------------------------------------------------ buckets held on demand

/// Buckets covering every value below 2^value_bits at `bits` sub-bucket
/// bits: the linear range plus one row of 2^bits per octave above it.
std::size_t buckets_below(int value_bits, int bits) {
  return static_cast<std::size_t>(value_bits - bits + 1) << bits;
}

/// `n` seeded values whose magnitudes spread evenly over [0, 2^max_bits).
std::vector<std::int64_t> spread_values(std::uint64_t seed, int n,
                                        int max_bits) {
  prism::sim::Rng rng(seed);
  std::vector<std::int64_t> out;
  for (int i = 0; i < n; ++i) {
    const auto bits = rng.uniform_int(0, max_bits);
    out.push_back(rng.uniform_int(0, (std::int64_t{1} << bits) - 1));
  }
  return out;
}

/// The full bucket table a histogram of `bits` covers, held densely from
/// construction, with values past the top clamped into the last bucket.
class DenseReference {
 public:
  explicit DenseReference(int bits)
      : bits_(bits),
        sub_(std::uint64_t{1} << bits),
        buckets_(buckets_below(48, bits), 0) {}

  void record(std::int64_t v) {
    ++buckets_[index(static_cast<std::uint64_t>(v))];
    ++count_;
  }

  void merge(const DenseReference& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  std::int64_t percentile(double q) const {
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    const std::uint64_t rank = std::max<std::uint64_t>(target, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return value(i);
    }
    return -1;
  }

  std::vector<std::pair<std::int64_t, std::uint64_t>> nonempty() const {
    std::vector<std::pair<std::int64_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] != 0) out.emplace_back(value(i), buckets_[i]);
    }
    return out;
  }

 private:
  std::size_t index(std::uint64_t v) const {
    if (v < 2 * sub_) return static_cast<std::size_t>(v);
    const int octave = static_cast<int>(std::bit_width(v)) - 1 - bits_;
    const auto i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(octave) + 1) * sub_ + (v >> octave) -
        sub_);
    return std::min(i, buckets_.size() - 1);
  }

  std::int64_t value(std::size_t i) const {
    const auto s = static_cast<std::int64_t>(sub_);
    const auto n = static_cast<std::int64_t>(i);
    if (n < 2 * s) return n;
    return ((n % s + s + 1) << (n / s - 1)) - 1;
  }

  int bits_;
  std::uint64_t sub_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

void expect_matches(const Histogram& h, const DenseReference& ref,
                    const char* what) {
  for (const double q :
       {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.percentile(q), ref.percentile(q)) << what << " q=" << q;
  }
  std::vector<std::pair<std::int64_t, std::uint64_t>> visited;
  h.for_each_bucket([&](std::int64_t value, std::uint64_t count) {
    visited.emplace_back(value, count);
  });
  EXPECT_EQ(visited, ref.nonempty()) << what;
}

TEST(HistogramTest, EmptyHoldsNoBucketsAndSubMillisecondValuesOneAllocation) {
  const auto below_1ms = spread_values(5, 1000, 20);
  for (const int bits : {4, 6}) {
    Histogram h(bits);
    EXPECT_EQ(h.buckets_held(), 0u);
    // The first record allocates the range below 2^20 ns, once.
    EXPECT_EQ(test::allocations_during([&] { h.record(0); }), 1u);
    EXPECT_EQ(h.buckets_held(), buckets_below(20, bits)) << "bits=" << bits;
    const std::uint64_t allocs = test::allocations_during([&] {
      for (const auto v : below_1ms) h.record(v);
      h.record((std::int64_t{1} << 20) - 1);
    });
    EXPECT_EQ(allocs, 0u) << "bits=" << bits;
    EXPECT_EQ(h.buckets_held(), buckets_below(20, bits));
  }
  // 960 buckets of 8 bytes at the default resolution, 272 at 4 bits.
  EXPECT_EQ(buckets_below(20, 6), 960u);
  EXPECT_EQ(buckets_below(20, 4), 272u);
}

TEST(HistogramTest, LargeValueGrowsToItsOctaveAndHugeValuesClamp) {
  Histogram h;
  h.record(100);
  h.record(std::int64_t{1} << 40);
  EXPECT_EQ(h.buckets_held(), buckets_below(41, 6));
  // Upper edge of 2^40's bucket: 65 steps of 2^34 in its octave.
  EXPECT_EQ(h.percentile(1.0), (std::int64_t{65} << 34) - 1);

  // 2^50 clamps into the last bucket of the full range, not of the held
  // one, whose representative is 2^48 - 1 as before.
  h.record(std::int64_t{1} << 50);
  EXPECT_EQ(h.buckets_held(), buckets_below(48, 6));
  EXPECT_EQ(h.buckets_held(), 2752u);
  EXPECT_EQ(h.max(), std::int64_t{1} << 50);
  EXPECT_EQ(h.percentile(1.0), (std::int64_t{1} << 48) - 1);
  h.record((std::int64_t{1} << 48) - 1);
  std::uint64_t last = 0;
  h.for_each_bucket([&](std::int64_t value, std::uint64_t count) {
    if (value == (std::int64_t{1} << 48) - 1) last = count;
  });
  EXPECT_EQ(last, 2u);

  // A first record past the top holds the full range too.
  Histogram g(4);
  g.record(std::int64_t{1} << 50);
  EXPECT_EQ(g.buckets_held(), buckets_below(48, 4));
  EXPECT_EQ(g.percentile(0.5), (std::int64_t{1} << 48) - 1);
}

TEST(HistogramTest, MatchesADenseReferenceOverTheWholeRange) {
  for (const int bits : {4, 6}) {
    // Below ~1 ms, and across the whole range and past its top.
    const auto small = spread_values(11, 5000, 20);
    const auto large = spread_values(12, 5000, 52);
    Histogram hs(bits), hl(bits);
    DenseReference rs(bits), rl(bits), both(bits);
    for (const auto v : small) {
      hs.record(v);
      rs.record(v);
      both.record(v);
    }
    for (const auto v : large) {
      hl.record(v);
      rl.record(v);
      both.record(v);
    }
    EXPECT_EQ(hs.buckets_held(), buckets_below(20, bits));
    EXPECT_EQ(hl.buckets_held(), buckets_below(48, bits));
    expect_matches(hs, rs, "small");
    expect_matches(hl, rl, "large");

    Histogram small_into_large = hl;
    small_into_large.merge(hs);
    expect_matches(small_into_large, both, "small into large");
    Histogram large_into_small = hs;
    large_into_small.merge(hl);
    EXPECT_EQ(large_into_small.buckets_held(), hl.buckets_held());
    expect_matches(large_into_small, both, "large into small");
    EXPECT_EQ(large_into_small.count(), small.size() + large.size());
    EXPECT_EQ(large_into_small.sum(), small_into_large.sum());
  }
}

TEST(HistogramTest, WarmResetAndReRecordAllocatesNothing) {
  const auto values = spread_values(3, 2000, 52);
  Histogram h;
  for (const auto v : values) h.record(v);
  const std::size_t held = h.buckets_held();
  Histogram other;
  other.record(1000);
  const std::uint64_t allocs = test::allocations_during([&] {
    for (int round = 0; round < 10; ++round) {
      h.reset();
      for (const auto v : values) h.record(v);
      h.merge(other);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(h.buckets_held(), held);
  EXPECT_EQ(h.count(), values.size() + 1);
}

// Property sweep: percentile(q) must always bracket the exact empirical
// quantile within the histogram's relative precision, across resolutions.
class HistogramPrecision : public ::testing::TestWithParam<int> {};

TEST_P(HistogramPrecision, RelativeErrorScalesWithResolution) {
  const int bits = GetParam();
  Histogram h(bits);
  prism::sim::Rng rng(1234);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform_int(100, 50'000'000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const double rel = 2.0 / static_cast<double>(1 << bits);
  for (double q : {0.5, 0.9, 0.99}) {
    const auto exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const auto approx = h.percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * rel + 2)
        << "bits=" << bits << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, HistogramPrecision,
                         ::testing::Values(4, 6, 8, 10));

}  // namespace
}  // namespace prism::stats
