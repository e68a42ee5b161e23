// The Cartesian product of the parameters, with mixed-radix indexing.
//
// Every configuration has a unique ConfigIndex in [0, cardinality()):
// the last parameter varies fastest, like row-major array order. This
// gives O(1)-ish random access into spaces of up to ~10^8 configurations
// (Dedispersion: 123 863 040) without materializing them.
//
// Ownership / thread-safety: a ParamSpace is an immutable value after
// construction (cardinality overflow is checked then, see
// cardinality()); all queries are const and safe from any thread.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/parameter.hpp"
#include "core/types.hpp"

namespace bat::core {

/// The mixed-radix decode every index-to-configuration path shares:
/// calls digit(p, d) with the value ordinal d of each parameter p of
/// `index`, last parameter first, where radix(p) is the number of
/// values of parameter p. One division per digit: `%` and `/` on the
/// same operands compile to one instruction.
template <typename Radix, typename Digit>
void for_each_digit(ConfigIndex index, std::size_t num_params, Radix&& radix,
                    Digit&& digit) {
  for (std::size_t p = num_params; p-- > 0;) {
    const auto r = static_cast<ConfigIndex>(radix(p));
    digit(p, static_cast<std::size_t>(index % r));
    index /= r;
  }
}

class ParamSpace {
 public:
  ParamSpace() = default;
  explicit ParamSpace(std::vector<Parameter> params);

  ParamSpace& add(Parameter param);

  [[nodiscard]] std::size_t num_params() const noexcept {
    return params_.size();
  }
  [[nodiscard]] const Parameter& param(std::size_t i) const;
  [[nodiscard]] const std::vector<Parameter>& params() const noexcept {
    return params_;
  }

  /// Position of the parameter named `name`; throws std::out_of_range if
  /// missing.
  [[nodiscard]] std::size_t index_of(const std::string& name) const;
  [[nodiscard]] bool has_param(const std::string& name) const noexcept;

  /// Names in order, handy for Dataset headers and ML feature names.
  [[nodiscard]] std::vector<std::string> param_names() const;

  /// |P1| * |P2| * ... — a plain noexcept accessor. The uint64 overflow
  /// check runs at construction time: the constructor and add() throw
  /// std::overflow_error if the product would exceed ConfigIndex, so a
  /// fully-constructed space always has a representable cardinality.
  [[nodiscard]] ConfigIndex cardinality() const noexcept { return cardinality_; }

  /// Decodes a mixed-radix index into a configuration.
  [[nodiscard]] Config config_at(ConfigIndex index) const;

  /// Decodes into a caller-provided buffer (no allocation); buffer is
  /// resized to num_params().
  void decode_into(ConfigIndex index, Config& out) const;

  /// Inverse of config_at; throws if any value is not in its parameter.
  [[nodiscard]] ConfigIndex index_of_config(const Config& config) const;

  /// True iff each value is a member of the corresponding parameter.
  [[nodiscard]] bool contains(const Config& config) const noexcept;

  /// Pretty "name=value, ..." string for logs and examples.
  [[nodiscard]] std::string describe(const Config& config) const;

 private:
  void rebuild_index();

  std::vector<Parameter> params_;
  std::unordered_map<std::string, std::size_t> name_to_index_;
  std::vector<ConfigIndex> strides_;  // strides_[i] = prod of radices after i
  ConfigIndex cardinality_ = 1;
};

}  // namespace bat::core
