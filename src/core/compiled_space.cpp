#include "core/compiled_space.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "common/thread_pool.hpp"

namespace bat::core {

namespace {

/// The walk's parallel driver: one serial walk per pool chunk of the
/// product, each folding its valid indices into its own accumulator.
/// Chunks are contiguous and ascending, so the partials come back in
/// index order.
template <typename Acc, typename Step>
std::vector<Acc> walk_in_parallel(const CompiledSpace& space, Step step) {
  auto& pool = common::ThreadPool::global();
  std::vector<Acc> partial(pool.size());
  pool.parallel_for_chunked(
      0, static_cast<std::size_t>(space.cardinality()),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        auto& acc = partial[worker];
        space.for_each_valid(lo, hi, [&](ConfigIndex i) { step(acc, i); });
      });
  return partial;
}

std::vector<ConfigIndex> collect_valid(const CompiledSpace& space) {
  const auto partial = walk_in_parallel<std::vector<ConfigIndex>>(
      space, [](auto& out, ConfigIndex i) { out.push_back(i); });
  std::size_t total = 0;
  for (const auto& p : partial) total += p.size();
  std::vector<ConfigIndex> all;
  all.reserve(total);
  for (const auto& p : partial) all.insert(all.end(), p.begin(), p.end());
  return all;
}

}  // namespace

CompiledSpace::CompiledSpace(const ParamSpace& params,
                             const ConstraintSet& constraints)
    : CompiledSpace(params, constraints, Options{}) {}

CompiledSpace::CompiledSpace(const ParamSpace& params,
                             const ConstraintSet& constraints,
                             Options options)
    : constraints_(constraints.all()) {
  const std::size_t n = params.num_params();
  names_.reserve(n);
  values_.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    names_.push_back(params.param(p).name());
    values_.push_back(params.param(p).values());
  }
  strides_.assign(n, 1);
  cardinality_ = 1;
  for (std::size_t p = n; p-- > 0;) {
    strides_[p] = cardinality_;
    cardinality_ *= static_cast<ConfigIndex>(values_[p].size());
  }

  // Constraint plan: bind each constraint to the parameter positions it
  // declares; an empty declaration conservatively touches everything.
  touching_.assign(n, {});
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    const auto& reads = constraints_[c].reads();
    if (reads.empty()) {
      for (auto& t : touching_) t.push_back(static_cast<std::uint16_t>(c));
      continue;
    }
    std::vector<std::size_t> positions;
    positions.reserve(reads.size());
    for (const auto& name : reads) {
      const auto it = std::find(names_.begin(), names_.end(), name);
      if (it == names_.end()) {
        throw std::invalid_argument("constraint '" + constraints_[c].name() +
                                    "' reads unknown parameter '" + name +
                                    "'");
      }
      positions.push_back(static_cast<std::size_t>(it - names_.begin()));
    }
    // Dedupe: a repeated name must not double-count the constraint in
    // the per-parameter plan (failing_touching would overshoot).
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    for (const auto p : positions) {
      touching_[p].push_back(static_cast<std::uint16_t>(c));
    }
  }

  if (cardinality_ > 0 && cardinality_ <= options.materialize_limit) {
    materialize();
  }
}

void CompiledSpace::materialize() {
  // materialized_ is still false, so the walk decodes the product.
  valid_ = collect_valid(*this);

  // Bucket the sorted valid set so rank() probes one ~2-entry slice:
  // shrink buckets until there are at least half as many as valid
  // entries (capped well below cardinality to bound the offsets array).
  bucket_shift_ = 64;
  const std::uint64_t target =
      std::max<std::uint64_t>(1024, 2 * valid_.size());
  while (bucket_shift_ > 0 && (cardinality_ >> (bucket_shift_ - 1)) <= target) {
    --bucket_shift_;
  }
  const std::size_t buckets =
      static_cast<std::size_t>(((cardinality_ - 1) >> bucket_shift_) + 1);
  bucket_offsets_.assign(buckets + 1, 0);
  for (const auto idx : valid_) {
    ++bucket_offsets_[static_cast<std::size_t>(idx >> bucket_shift_) + 1];
  }
  for (std::size_t b = 1; b <= buckets; ++b) {
    bucket_offsets_[b] += bucket_offsets_[b - 1];
  }
  materialized_ = true;
}

void CompiledSpace::decode_digits(ConfigIndex index,
                                  std::vector<std::uint32_t>& digits) const {
  BAT_EXPECTS(index < cardinality_);
  digits.resize(values_.size());
  for (std::size_t p = 0; p < values_.size(); ++p) {
    digits[p] = static_cast<std::uint32_t>(
        (index / strides_[p]) % static_cast<ConfigIndex>(values_[p].size()));
  }
}

ConfigIndex CompiledSpace::index_of_digits(
    const std::vector<std::uint32_t>& digits) const {
  BAT_EXPECTS(digits.size() == values_.size());
  ConfigIndex index = 0;
  for (std::size_t p = 0; p < values_.size(); ++p) {
    BAT_EXPECTS(digits[p] < values_[p].size());
    index += static_cast<ConfigIndex>(digits[p]) * strides_[p];
  }
  return index;
}

void CompiledSpace::decode_into(ConfigIndex index, Config& out) const {
  BAT_EXPECTS(index < cardinality_);
  out.resize(values_.size());
  for (std::size_t p = 0; p < values_.size(); ++p) {
    const auto digit = static_cast<std::size_t>(
        (index / strides_[p]) % static_cast<ConfigIndex>(values_[p].size()));
    out[p] = values_[p][digit];
  }
}

void CompiledSpace::decode_values(const std::vector<std::uint32_t>& digits,
                                  Config& out) const {
  out.resize(values_.size());
  for (std::size_t p = 0; p < values_.size(); ++p) {
    out[p] = values_[p][digits[p]];
  }
}

bool CompiledSpace::satisfied(const Config& values) const {
  for (const auto& c : constraints_) {
    if (!c.check(values)) return false;
  }
  return true;
}

Config& CompiledSpace::walk_scratch() {
  thread_local Config values;
  return values;
}

bool CompiledSpace::is_valid_index(ConfigIndex index) const {
  if (materialized_) return rank(index).has_value();
  bool valid = false;
  for_each_valid(index, index + 1, [&](ConfigIndex) { valid = true; });
  return valid;
}

std::uint64_t CompiledSpace::count_valid() const {
  if (materialized_) return valid_.size();
  std::uint64_t total = 0;
  for (const auto n : walk_in_parallel<std::uint64_t>(
           *this, [](std::uint64_t& count, ConfigIndex) { ++count; })) {
    total += n;
  }
  return total;
}

std::vector<ConfigIndex> CompiledSpace::enumerate_valid() const {
  return materialized_ ? valid_ : collect_valid(*this);
}

std::optional<std::uint64_t> CompiledSpace::rank(ConfigIndex index) const {
  BAT_EXPECTS(materialized_);
  if (index >= cardinality_) return std::nullopt;
  const auto bucket = static_cast<std::size_t>(index >> bucket_shift_);
  const auto lo = valid_.begin() +
                  static_cast<std::ptrdiff_t>(bucket_offsets_[bucket]);
  const auto hi = valid_.begin() +
                  static_cast<std::ptrdiff_t>(bucket_offsets_[bucket + 1]);
  const auto it = std::lower_bound(lo, hi, index);
  if (it == hi || *it != index) return std::nullopt;
  return static_cast<std::uint64_t>(it - valid_.begin());
}

ConfigIndex CompiledSpace::random_valid_index(common::Rng& rng) const {
  BAT_EXPECTS(cardinality_ > 0);
  if (materialized_) {
    if (valid_.empty()) {
      throw std::runtime_error(
          "random_valid_index: the constraint set admits no configuration");
    }
    return valid_[static_cast<std::size_t>(rng.next_below(valid_.size()))];
  }
  for (std::uint64_t attempts = 0; attempts < 10'000'000; ++attempts) {
    const ConfigIndex idx = rng.next_below(cardinality_);
    if (is_valid_index(idx)) return idx;
  }
  throw std::runtime_error(
      "random_valid_index: rejection sampling failed; space over-constrained");
}

std::vector<ConfigIndex> CompiledSpace::sample_valid(std::size_t n,
                                                     common::Rng& rng) const {
  std::vector<ConfigIndex> out;
  if (materialized_) {
    if (valid_.size() <= n) return valid_;  // all of them (possibly none)
    const auto picks = rng.sample_indices(valid_.size(), n);
    out.reserve(n);
    for (const auto p : picks) out.push_back(valid_[p]);
    std::sort(out.begin(), out.end());
    return out;
  }

  BAT_EXPECTS(cardinality_ > 0);
  out.reserve(n);
  std::unordered_set<ConfigIndex> seen;
  seen.reserve(n * 2);
  // Bounded rejection: the caller (SearchSpace::sample_constrained)
  // falls back to enumeration when the space is too sparse for this to
  // fill up — rejection never spins unboundedly.
  const std::uint64_t max_attempts = std::max<std::uint64_t>(1000, 400ULL * n);
  std::uint64_t attempts = 0;
  while (out.size() < n && attempts < max_attempts) {
    ++attempts;
    const ConfigIndex idx = rng.next_below(cardinality_);
    if (seen.count(idx) || !is_valid_index(idx)) continue;
    seen.insert(idx);
    out.push_back(idx);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace bat::core
