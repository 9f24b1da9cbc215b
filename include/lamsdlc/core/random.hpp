#pragma once
/// \file random.hpp
/// \brief Seedable random streams for stochastic channel models.
///
/// Each stochastic component (e.g. the forward error process, the reverse
/// error process, the arrival process) owns its own `RandomStream`, derived
/// deterministically from a run seed and a stream label.  Components then
/// stay statistically independent and runs remain reproducible even when the
/// set of components changes.

#include <cstdint>
#include <random>
#include <string_view>

namespace lamsdlc {

/// A named, independently seeded pseudo-random stream (xoshiro-quality via
/// std::mt19937_64).
class RandomStream {
 public:
  /// Derive a stream from \p run_seed and a stable \p label.
  RandomStream(std::uint64_t run_seed, std::string_view label)
      : engine_{mix(run_seed, label)} {}

  /// Direct-seeded stream (tests).
  explicit RandomStream(std::uint64_t seed) : engine_{seed} {}

  /// Bernoulli trial with success probability \p p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Uniform double in [0, 1): bit for bit what
  /// `std::generate_canonical<double, 53>` returns for this 64-bit engine
  /// (one draw, rounded to double, divided by 2^64 — an exact scaling — and
  /// pulled below 1 when it rounds up to it), minus the long-double
  /// arithmetic the generic template pays on every call.
  [[nodiscard]] double uniform() {
    static_assert(std::mt19937_64::min() == 0 &&
                  std::mt19937_64::max() == ~std::uint64_t{0});
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// Exponential variate with the given mean.
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Geometric number of failures before first success, success prob \p p.
  [[nodiscard]] std::int64_t geometric(double p) {
    return std::geometric_distribution<std::int64_t>{p}(engine_);
  }

  /// Underlying engine (for std distributions not wrapped above).
  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  /// Combine a run seed with a label hash (FNV-1a) and scramble
  /// (splitmix64 finalizer) so related seeds yield unrelated streams.
  static std::uint64_t mix(std::uint64_t seed, std::string_view label) {
    std::uint64_t h = 14695981039346656037ULL;
    for (char c : label) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    std::uint64_t z = seed ^ h;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::mt19937_64 engine_;
};

}  // namespace lamsdlc
