#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace bat::common {

void Xoshiro256StarStar::jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ULL << b)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      (void)(*this)();
    }
  }
  state_ = acc;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  BAT_EXPECTS(lo <= hi);
  const auto range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(gen_());
  }
  return lo + static_cast<std::int64_t>(next_below(range));
}

double Rng::uniform(double lo, double hi) {
  BAT_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  BAT_EXPECTS(k <= n);
  std::vector<std::size_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 3 <= n) {
    // Floyd's algorithm: O(k) expected, distinct by construction.
    std::unordered_set<std::size_t> seen;
    seen.reserve(k * 2);
    for (std::size_t j = n - k; j < n; ++j) {
      const auto t = static_cast<std::size_t>(next_below(j + 1));
      if (seen.insert(t).second) {
        out.push_back(t);
      } else {
        seen.insert(j);
        out.push_back(j);
      }
    }
  } else {
    // Partial Fisher-Yates over an explicit index vector.
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = i + static_cast<std::size_t>(next_below(n - i));
      std::swap(idx[i], idx[j]);
      out.push_back(idx[i]);
    }
  }
  return out;
}

}  // namespace bat::common
