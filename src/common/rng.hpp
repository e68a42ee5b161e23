// Deterministic pseudo-random number generation.
//
// Every stochastic component in BAT takes an explicit 64-bit seed so that
// experiments are exactly reproducible. We provide:
//   * SplitMix64  — seed expander (also usable as a fast generator)
//   * Xoshiro256StarStar — the main generator (satisfies
//     std::uniform_random_bit_generator)
//   * mix64 / hash_combine — stateless hashing used to derive deterministic
//     per-(config, device) measurement noise.
//
// Rng's two hottest draws, next_below and uniform(), are defined in this
// header so that they inline into the tuners' loops: a tuning grid
// makes millions of them, and a call each cost more than the draw.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/contracts.hpp"

namespace bat::common {

/// Stateless 64-bit finalizer (the SplitMix64 output function). Good
/// avalanche behaviour; used to derive deterministic noise from ids.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine a hash with a new value (boost::hash_combine style, 64-bit).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t value) noexcept {
  return seed ^ (mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                 (seed >> 2));
}

/// SplitMix64: tiny, fast, passes BigCrush; used to seed Xoshiro.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr result_type operator()() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna: the workhorse generator.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Jump ahead 2^128 steps; used to give parallel workers disjoint streams.
  void jump() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Convenience wrapper bundling a generator with the distributions BAT needs.
/// All methods are branch-stable so the consumed entropy per call is fixed
/// where possible (important for reproducibility across platforms).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL) : gen_(seed) {}

  /// Uniform integer in [0, bound) using Lemire's nearly-divisionless
  /// multiply-shift rejection.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) {
    BAT_EXPECTS(bound > 0);
    std::uint64_t x = gen_();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = gen_();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  [[nodiscard]] double uniform() {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Standard normal via Marsaglia polar method (cached second value).
  [[nodiscard]] double normal();

  /// Normal with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& values) {
    shuffle(std::span<T>(values));
  }

  /// Sample k distinct indices from [0, n) (Floyd's algorithm when k << n,
  /// reservoir otherwise). Result is in arbitrary deterministic order.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t k);

  /// Pick a uniformly random element.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& values) {
    BAT_EXPECTS(!values.empty());
    return values[static_cast<std::size_t>(next_below(values.size()))];
  }

  /// Split off an independent child generator (seeded from this stream).
  [[nodiscard]] Rng split() { return Rng(gen_() ^ 0x9e3779b97f4a7c15ULL); }

  [[nodiscard]] Xoshiro256StarStar& generator() noexcept { return gen_; }

 private:
  Xoshiro256StarStar gen_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace bat::common
