// Measurement utilities: running moments and quantile histograms.
//
// Benchmarks and the framework's self-instrumentation (bytes on the wire,
// per-worker load, query latency) all report through these types.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace stcn {

/// Welford running mean/variance plus min/max.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  /// Coefficient of variation — the load-imbalance metric used in E3.
  [[nodiscard]] double cv() const {
    return mean() != 0.0 ? stddev() / mean() : 0.0;
  }

  void merge(const RunningStat& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    double total = static_cast<double>(n_ + other.n_);
    double delta = other.mean_ - mean_;
    double new_mean =
        mean_ + delta * static_cast<double>(other.n_) / total;
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) / total;
    mean_ = new_mean;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile sample recorder. Exact up to `max_samples`, then switches to
/// uniform reservoir sampling (deterministic, seeded) so memory stays
/// bounded for arbitrarily long runs.
///
/// Interleaved add/query is cheap: the sorted prefix is maintained
/// incrementally (sort the appended tail, merge), so a quantile() after a
/// few add()s costs O(tail log tail + n) instead of a full re-sort — and a
/// batch of quantiles costs one sort total via quantiles().
class QuantileRecorder {
 public:
  static constexpr std::size_t kDefaultMaxSamples = 1 << 16;

  explicit QuantileRecorder(std::size_t max_samples = kDefaultMaxSamples,
                            std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
      : max_samples_(max_samples == 0 ? 1 : max_samples), rng_state_(seed) {}

  void add(double x) {
    ++n_;
    sum_ += x;
    if (samples_.size() < max_samples_) {
      samples_.push_back(x);
      return;
    }
    // Reservoir: the new value displaces a uniformly random slot with
    // probability max_samples / n, keeping a uniform sample of the stream.
    std::uint64_t j = next_random() % n_;
    if (j < max_samples_) {
      samples_[j] = x;
      sorted_prefix_ = 0;  // in-place overwrite invalidates the sort
    }
  }

  /// Total values added (not the retained sample count).
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] std::size_t retained() const { return samples_.size(); }

  /// Quantile q in [0, 1]; nearest-rank over the retained sample. Returns 0
  /// when empty.
  [[nodiscard]] double quantile(double q) {
    if (samples_.empty()) return 0.0;
    ensure_sorted();
    return sorted_quantile(q);
  }

  /// All requested quantiles from a single sort.
  [[nodiscard]] std::vector<double> quantiles(
      std::initializer_list<double> qs) {
    std::vector<double> out;
    out.reserve(qs.size());
    if (samples_.empty()) {
      out.assign(qs.size(), 0.0);
      return out;
    }
    ensure_sorted();
    for (double q : qs) out.push_back(sorted_quantile(q));
    return out;
  }

  [[nodiscard]] double median() { return quantile(0.5); }
  [[nodiscard]] double p99() { return quantile(0.99); }

  [[nodiscard]] double mean() const {
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
  }

 private:
  void ensure_sorted() {
    if (sorted_prefix_ == samples_.size()) return;
    auto mid = samples_.begin() + static_cast<std::ptrdiff_t>(sorted_prefix_);
    std::sort(mid, samples_.end());
    std::inplace_merge(samples_.begin(), mid, samples_.end());
    sorted_prefix_ = samples_.size();
  }

  [[nodiscard]] double sorted_quantile(double q) const {
    // Nearest-rank: the smallest element with cumulative frequency ≥ q,
    // i.e. index ⌈q·n⌉ - 1. The previous formula (round(q·(n-1))) sat one
    // rank too high whenever q·n landed on an integer below the rounding
    // midpoint — the median of n=2 returned the larger sample and the
    // median of 1..100 returned 51 — an off-by-one most visible at small
    // sample counts.
    std::size_t n = samples_.size();
    if (q <= 0.0) return samples_.front();
    auto idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n))) - 1;
    idx = std::min(idx, n - 1);
    return samples_[idx];
  }

  /// SplitMix64 step (inlined to keep this header dependency-free).
  std::uint64_t next_random() {
    std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::size_t max_samples_;
  std::uint64_t rng_state_;
  std::vector<double> samples_;
  std::size_t sorted_prefix_ = 0;  // samples_[0, prefix) are sorted
  std::size_t n_ = 0;
  double sum_ = 0.0;
};

}  // namespace stcn
