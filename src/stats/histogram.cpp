#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace prism::stats {

namespace {

// Buckets cover values up to 2^48 - 1 ns (~78 hours), far beyond any
// simulated latency; larger values clamp into the last bucket. Above the
// linear range [0, 2*sub_bucket_count) that takes 47 - sub_bucket_bits
// octaves (41 at the default 6 bits, 2,752 buckets in all).
constexpr int kMaxValueBits = 48;
constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << kMaxValueBits) - 1;

// A histogram's first record allocates every bucket below 2^20 ns (~1 ms),
// where nearly all simulated latencies fall, so a warm datapath stops
// allocating after its first records.
constexpr int kFirstValueBits = 20;

}  // namespace

Histogram::Histogram(int sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits),
      sub_bucket_count_(std::int64_t{1} << sub_bucket_bits) {
  if (sub_bucket_bits < 1 || sub_bucket_bits > 16) {
    throw std::invalid_argument("Histogram: sub_bucket_bits out of range");
  }
}

std::size_t Histogram::bucket_index(std::int64_t value) const noexcept {
  auto v = static_cast<std::uint64_t>(value);
  // Values below 2*sub_bucket_count fall in the initial linear region.
  if (v < static_cast<std::uint64_t>(2 * sub_bucket_count_)) {
    return static_cast<std::size_t>(v);
  }
  // Otherwise: octave = position of the highest set bit relative to the
  // linear region; within the octave, the top sub_bucket_bits bits select
  // the linear sub-bucket. Values past the full range (not the held one)
  // clamp into its last bucket.
  v = std::min(v, kMaxValue);
  const int high_bit = 63 - std::countl_zero(v);
  const int octave = high_bit - sub_bucket_bits_;  // >= 1 here
  const auto sub =
      (v >> octave) - static_cast<std::uint64_t>(sub_bucket_count_);
  return static_cast<std::size_t>((octave + 1) * sub_bucket_count_ + sub);
}

std::int64_t Histogram::bucket_value(std::size_t index) const noexcept {
  const auto i = static_cast<std::int64_t>(index);
  if (i < 2 * sub_bucket_count_) return i;
  const std::int64_t octave = i / sub_bucket_count_ - 1;
  const std::int64_t sub = i % sub_bucket_count_ + sub_bucket_count_;
  // Upper edge of the bucket: representative value never under-reports.
  return ((sub + 1) << octave) - 1;
}

void Histogram::grow(std::size_t index) {
  const auto row = static_cast<std::size_t>(sub_bucket_count_);
  const std::size_t first =
      bucket_index((std::int64_t{1} << kFirstValueBits) - 1) + 1;
  const std::size_t size = std::max(first, (index / row + 1) * row);
  // reserve() first: resize() alone would round the capacity up.
  buckets_.reserve(size);
  buckets_.resize(size, 0);
}

// Out of line, so that record_n() calls nothing on its common path and
// saves no registers there.
[[gnu::noinline]] void Histogram::grow_and_record(std::int64_t value,
                                                  std::uint64_t count) {
  grow(bucket_index(value));
  record_n(value, count);
}

void Histogram::record(std::int64_t value) { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::uint64_t count) {
  if (count == 0) return;
  if (value < 0) value = 0;
  const std::size_t i = bucket_index(value);
  if (i >= buckets_.size()) return grow_and_record(value, count);
  buckets_[i] += count;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_ += count;
  sum_ += value * static_cast<std::int64_t>(count);
}

void Histogram::merge(const Histogram& other) {
  if (other.sub_bucket_bits_ != sub_bucket_bits_) {
    throw std::invalid_argument("Histogram::merge: resolution mismatch");
  }
  if (other.buckets_.size() > buckets_.size()) {
    grow(other.buckets_.size() - 1);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum() / static_cast<double>(count_);
}

std::int64_t Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  // !(q >= 0) also catches NaN, which would slip through both ordered
  // comparisons and turn ceil(NaN * count) into an undefined uint64 cast.
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based), rounding up so that
  // percentile(0) == first observation's bucket.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t rank = target == 0 ? 1 : target;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return bucket_value(i);
  }
  return max_;
}

void Histogram::reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = max_ = 0;
  sum_ = 0;
}

}  // namespace prism::stats
