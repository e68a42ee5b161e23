#include "core/param_space.hpp"

#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"

namespace bat::core {

ParamSpace::ParamSpace(std::vector<Parameter> params)
    : params_(std::move(params)) {
  rebuild_index();
}

ParamSpace& ParamSpace::add(Parameter param) {
  params_.push_back(std::move(param));
  rebuild_index();
  return *this;
}

void ParamSpace::rebuild_index() {
  name_to_index_.clear();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const bool inserted =
        name_to_index_.emplace(params_[i].name(), i).second;
    if (!inserted) {
      throw std::invalid_argument("duplicate parameter name: " +
                                  params_[i].name());
    }
  }
  strides_.assign(params_.size(), 1);
  cardinality_ = 1;
  for (std::size_t i = params_.size(); i-- > 0;) {
    strides_[i] = cardinality_;
    const auto radix = static_cast<ConfigIndex>(params_[i].cardinality());
    if (radix != 0 &&
        cardinality_ > std::numeric_limits<ConfigIndex>::max() / radix) {
      throw std::overflow_error("parameter space cardinality overflows 64 bits");
    }
    cardinality_ *= radix;
  }
}

const Parameter& ParamSpace::param(std::size_t i) const {
  BAT_EXPECTS(i < params_.size());
  return params_[i];
}

std::size_t ParamSpace::index_of(const std::string& name) const {
  const auto it = name_to_index_.find(name);
  if (it == name_to_index_.end()) {
    throw std::out_of_range("no parameter named '" + name + "'");
  }
  return it->second;
}

bool ParamSpace::has_param(const std::string& name) const noexcept {
  return name_to_index_.count(name) != 0;
}

std::vector<std::string> ParamSpace::param_names() const {
  std::vector<std::string> names;
  names.reserve(params_.size());
  for (const auto& p : params_) names.push_back(p.name());
  return names;
}

Config ParamSpace::config_at(ConfigIndex index) const {
  Config out;
  decode_into(index, out);
  return out;
}

void ParamSpace::decode_into(ConfigIndex index, Config& out) const {
  BAT_EXPECTS(index < cardinality_);
  out.resize(params_.size());
  for_each_digit(
      index, params_.size(),
      [&](std::size_t p) { return params_[p].cardinality(); },
      [&](std::size_t p, std::size_t d) { out[p] = params_[p].values()[d]; });
}

ConfigIndex ParamSpace::index_of_config(const Config& config) const {
  BAT_EXPECTS(config.size() == params_.size());
  ConfigIndex index = 0;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    index += strides_[i] *
             static_cast<ConfigIndex>(params_[i].index_of(config[i]));
  }
  return index;
}

bool ParamSpace::contains(const Config& config) const noexcept {
  if (config.size() != params_.size()) return false;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].contains(config[i])) return false;
  }
  return true;
}

std::string ParamSpace::describe(const Config& config) const {
  BAT_EXPECTS(config.size() == params_.size());
  std::string out;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i > 0) out += ", ";
    out += params_[i].name();
    out += '=';
    out += std::to_string(config[i]);
  }
  return out;
}

}  // namespace bat::core
