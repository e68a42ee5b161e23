#include "kernels/kernel_benchmark.hpp"

#include "common/contracts.hpp"

namespace bat::kernels {

KernelBenchmark::KernelBenchmark(std::string name, core::SearchSpace space,
                                 double noise_amplitude)
    : name_(std::move(name)),
      space_(std::move(space)),
      noise_amplitude_(noise_amplitude),
      kernel_id_(gpusim::stable_name_hash(name_)) {
  BAT_EXPECTS(noise_amplitude_ >= 0.0 && noise_amplitude_ < 0.5);
}

std::size_t KernelBenchmark::device_count() const {
  return gpusim::paper_devices().size();
}

const std::string& KernelBenchmark::device_name(core::DeviceIndex d) const {
  return gpusim::paper_devices().at(d).name;
}

core::Measurement KernelBenchmark::evaluate(const core::Config& config,
                                            core::DeviceIndex device) const {
  BAT_EXPECTS(device < device_count());
  if (!space_.is_valid(config)) {
    return core::Measurement::invalid(core::MeasureStatus::kInvalidConstraint);
  }
  const auto& spec = gpusim::paper_devices()[device];
  const auto time = model_time_ms(config, spec);
  if (!time) {
    return core::Measurement::invalid(core::MeasureStatus::kInvalidDevice);
  }
  const auto index = space_.params().index_of_config(config);
  const double noisy =
      *time * gpusim::noise_factor(kernel_id_, index,
                                   gpusim::stable_name_hash(spec.name),
                                   noise_amplitude_);
  return core::Measurement::valid(noisy);
}

}  // namespace bat::kernels
