// HDR-style latency histogram.
//
// Latency experiments need accurate tail percentiles over millions of
// samples without storing them all. This histogram uses logarithmic
// bucketing with linear sub-buckets (the HdrHistogram scheme): values are
// recorded with a bounded relative error set by the sub-bucket resolution
// (64 sub-buckets per octave -> <1.6% relative error), and memory does not
// grow with the sample count. It grows with the largest value instead: a
// histogram holds only the buckets up to the highest octave it has
// recorded. An empty one holds none, the first record allocates the range
// below 2^20 ns (~1 ms; 7.5 KiB at 6 bits, 2.1 KiB at 4 bits), and the
// full range up to 2^48 - 1 ns would take 21.5 KiB at 6 bits.
#pragma once

#include <cstdint>
#include <vector>

namespace prism::stats {

/// Fixed-resolution value histogram with percentile queries.
///
/// Values are non-negative 64-bit integers (in this codebase: durations in
/// nanoseconds). Negative values are clamped to zero, and values of 2^48 ns
/// (~78 hours) and above fall in the last bucket.
class Histogram {
 public:
  /// `sub_bucket_bits` controls relative precision: each power-of-two range
  /// is split into 2^sub_bucket_bits linear buckets. The default (6) keeps
  /// relative error under 1/64.
  explicit Histogram(int sub_bucket_bits = 6);

  /// Records one observation. Allocates only when the value lies above
  /// every bucket held so far (the first record, or a new top octave).
  void record(std::int64_t value);

  /// Records `count` identical observations.
  void record_n(std::int64_t value, std::uint64_t count);

  /// Merges another histogram (same sub_bucket_bits required), growing to
  /// its size.
  void merge(const Histogram& other);

  /// Total number of recorded observations.
  std::uint64_t count() const noexcept { return count_; }

  /// Smallest recorded value (0 if empty).
  std::int64_t min() const noexcept { return count_ == 0 ? 0 : min_; }

  /// Largest recorded value (0 if empty).
  std::int64_t max() const noexcept { return count_ == 0 ? 0 : max_; }

  /// Arithmetic mean of recorded values (0 if empty). Uses exact running
  /// sum, not bucket midpoints.
  double mean() const noexcept;

  /// Exact running sum of recorded values (0 if empty), kept as an integer
  /// and converted on read, so exact for totals below 2^53 ns — far beyond
  /// any simulated experiment.
  double sum() const noexcept { return static_cast<double>(sum_); }

  /// Value at quantile q in [0, 1]. Returns a bucket-representative value
  /// (upper edge of the containing bucket), so percentile(1.0) >= max()
  /// within bucket precision. Returns 0 when empty.
  std::int64_t percentile(double q) const noexcept;

  /// Convenience: percentile(0.5).
  std::int64_t median() const noexcept { return percentile(0.5); }

  /// Removes all observations, keeping the buckets held.
  void reset() noexcept;

  int sub_bucket_bits() const noexcept { return sub_bucket_bits_; }

  /// Buckets held (8 bytes each): 0 until the first record.
  std::size_t buckets_held() const noexcept { return buckets_.size(); }

  /// Iterates non-empty buckets as (representative value, count). Used by
  /// the CDF exporter.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] != 0) fn(bucket_value(i), buckets_[i]);
    }
  }

 private:
  std::size_t bucket_index(std::int64_t value) const noexcept;
  std::int64_t bucket_value(std::size_t index) const noexcept;
  /// Grows the held buckets to the end of `index`'s octave, and at least
  /// to the range below 2^20 ns (the first record's allocation).
  void grow(std::size_t index);
  /// record_n()'s rare path: grows to `value`'s octave, then records.
  void grow_and_record(std::int64_t value, std::uint64_t count);

  int sub_bucket_bits_;
  std::int64_t sub_bucket_count_;  // 2^sub_bucket_bits
  std::vector<std::uint64_t> buckets_;  // held prefix of the full range
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::int64_t sum_ = 0;
};

}  // namespace prism::stats
