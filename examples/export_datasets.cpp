// Exports the paper's evaluation datasets for external plotting and
// replay (the actual Fig 1-6 figures are drawn from exactly these
// rows).
//
//   $ ./export_datasets [output_dir]
//
// Writes one CSV (interchange) and one binary columnar archive
// (performance: opening it is O(1), no text parse) per
// (benchmark, device) with the paper's §V design: exhaustive for the
// four small spaces, 10 000 random configurations for the three large
// ones (`tune sweep --samples N` writes other sizes). Datasets resolve
// through the shared io::DatasetRepository — the same sweep the figure
// harnesses use — and both files read back through io::load_dataset
// for downstream C++ analysis.
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/bench_util.hpp"
#include "io/dataset_file.hpp"

int main(int argc, char** argv) {
  using namespace bat;
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(out_dir);

  for (const auto& name : kernels::paper_benchmark_names()) {
    const auto benchmark = kernels::make(name);
    for (core::DeviceIndex d = 0; d < benchmark->device_count(); ++d) {
      const auto& ds = bench::dataset(name, d);
      const std::string stem =
          out_dir + "/" + name + "_" + benchmark->device_name(d);
      io::save_dataset(stem + ".csv", ds, io::DatasetFormat::kCsv);
      io::save_dataset(stem + ".bin", ds, io::DatasetFormat::kBinary);
      std::printf("wrote %-45s (.csv + .bin, %zu rows, %zu valid, "
                  "best %.4f ms)\n",
                  stem.c_str(), ds.size(), ds.num_valid(), ds.best_time());
    }
  }
  return 0;
}
