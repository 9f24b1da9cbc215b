#pragma once
/// \file stats.hpp
/// \brief Metric accumulators used by the simulation and bench harness.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lamsdlc/core/time.hpp"

namespace lamsdlc {

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Time-weighted average of a step function, e.g. buffer occupancy over time.
///
/// Call `update(now, new_value)` whenever the tracked quantity changes; the
/// previous value is credited for the elapsed interval.  `finish(now)` closes
/// the last interval before reading the average.
class TimeWeightedStat {
 public:
  explicit TimeWeightedStat(Time start = Time{}) : last_change_{start} {}

  void update(Time now, double value) noexcept {
    accumulate(now);
    value_ = value;
  }

  void finish(Time now) noexcept { accumulate(now); }

  [[nodiscard]] double average() const noexcept {
    return total_time_.ps() > 0
               ? weighted_sum_ / static_cast<double>(total_time_.ps())
               : value_;
  }
  [[nodiscard]] double current() const noexcept { return value_; }
  [[nodiscard]] double peak() const noexcept { return peak_; }

 private:
  void accumulate(Time now) noexcept {
    const Time dt = now - last_change_;
    if (dt.ps() > 0) {
      weighted_sum_ += value_ * static_cast<double>(dt.ps());
      total_time_ += dt;
    }
    last_change_ = now;
    peak_ = std::max(peak_, value_);
  }

  Time last_change_;
  Time total_time_{};
  double value_{0.0};
  double weighted_sum_{0.0};
  double peak_{0.0};
};

/// Exact sorted-sample quantiles (nearest-rank): collect raw samples, read
/// p50/p90/p99 at the end.  Shared by the obs metrics exporter and the bench
/// tables; samples are kept (8 bytes each), so use it where the sample count
/// is bounded by the run, not by wall-clock — for unbounded streams prefer
/// `Histogram`.
///
/// Reads are incremental: the vector keeps a sorted prefix, and a read
/// sorts only the samples added since the last one and merges them in, so
/// a live registry scraped periodically pays O(new·log new + n) per scrape
/// instead of a full O(n·log n) re-sort.  The sorted vector is the same
/// either way, so every quantile is too.
class Percentiles {
 public:
  void add(double x) { samples_.push_back(x); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

  /// Nearest-rank quantile, q in [0, 1]: the ceil(q·n)-th smallest sample
  /// (clamped so q=0 is the minimum and q=1 the maximum).  0.0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (samples_.empty()) return 0.0;
    if (sorted_ < samples_.size()) {
      const auto mid = samples_.begin() + static_cast<std::ptrdiff_t>(sorted_);
      std::sort(mid, samples_.end());
      std::inplace_merge(samples_.begin(), mid, samples_.end());
      sorted_ = samples_.size();
    }
    const auto n = static_cast<double>(samples_.size());
    auto rank = static_cast<std::int64_t>(std::ceil(q * n));
    rank = std::clamp<std::int64_t>(rank, 1, static_cast<std::int64_t>(samples_.size()));
    return samples_[static_cast<std::size_t>(rank - 1)];
  }

  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

 private:
  mutable std::vector<double> samples_;
  mutable std::size_t sorted_ = 0;  ///< Length of the sorted prefix.
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the edge
/// bins.  Used for delay distributions in the bench harness.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_{lo}, hi_{hi}, bins_(bins, 0) {}

  void add(double x) noexcept {
    const double t = (x - lo_) / (hi_ - lo_);
    auto i = static_cast<std::int64_t>(t * static_cast<double>(bins_.size()));
    i = std::clamp<std::int64_t>(i, 0, static_cast<std::int64_t>(bins_.size()) - 1);
    ++bins_[static_cast<std::size_t>(i)];
    ++total_;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bins() const noexcept { return bins_; }
  [[nodiscard]] double bin_lo(std::size_t i) const noexcept {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(bins_.size());
  }

  /// Approximate quantile (q in [0,1]) from bin midpoints.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (total_ == 0) return lo_;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      seen += bins_[i];
      if (seen > target) {
        return bin_lo(i) + 0.5 * (hi_ - lo_) / static_cast<double>(bins_.size());
      }
    }
    return hi_;
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_{0};
};

}  // namespace lamsdlc
