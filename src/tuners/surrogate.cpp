#include "tuners/surrogate.hpp"

#include <cmath>

#include "ml/gbdt.hpp"

namespace bat::tuners {

namespace {

constexpr std::size_t kInitialRandom = 20;   // warm-up evaluations
constexpr std::size_t kCandidatePool = 400;  // surrogate-screened candidates
constexpr std::size_t kRefitEvery = 8;       // evaluations between refits
constexpr double kExploreFraction = 0.15;    // epsilon

}  // namespace

void SurrogateTuner::optimize(core::CachingEvaluator& evaluator,
                              common::Rng& rng) {
  const auto& compiled = evaluator.space().compiled();
  const std::size_t dims = compiled.num_params();

  // Observations (features = raw parameter values, target = objective).
  std::vector<std::vector<double>> x_rows;
  std::vector<double> y_vals;
  core::Config values;  // decode buffer for feature rows

  const auto features = [&](core::ConfigIndex index,
                            std::vector<double>& row) {
    compiled.decode_into(index, values);
    row.resize(dims);
    for (std::size_t p = 0; p < dims; ++p) {
      row[p] = static_cast<double>(values[p]);
    }
  };

  const auto observe = [&](core::ConfigIndex index) {
    const double obj = evaluator.evaluate_index(index);
    if (std::isfinite(obj) && obj > 0.0) {
      features(index, x_rows.emplace_back());
      y_vals.push_back(obj);
    }
  };

  for (std::size_t i = 0; i < kInitialRandom; ++i) {
    observe(compiled.random_valid_index(rng));
  }

  ml::GbdtParams gparams;
  gparams.num_trees = 80;  // refit often -> keep individual fits cheap
  gparams.tree.max_depth = 5;

  std::vector<double> row;
  while (true) {
    // (Re)fit the surrogate on everything observed so far.
    ml::GbdtRegressor model(gparams);
    if (x_rows.size() >= 8) {
      model.fit(ml::Matrix::from_rows(x_rows), y_vals);
    }

    for (std::size_t step = 0; step < kRefitEvery; ++step) {
      if (!model.trained() || rng.uniform() < kExploreFraction) {
        observe(compiled.random_valid_index(rng));
        continue;
      }
      // Screen a pool of random valid candidates through the surrogate
      // and evaluate the most promising one (the first on ties) for real.
      core::ConfigIndex best_candidate = compiled.random_valid_index(rng);
      features(best_candidate, row);
      double best_predicted = model.predict(row);
      for (std::size_t i = 1; i < kCandidatePool; ++i) {
        const core::ConfigIndex candidate = compiled.random_valid_index(rng);
        features(candidate, row);
        const double predicted = model.predict(row);
        if (predicted < best_predicted) {
          best_predicted = predicted;
          best_candidate = candidate;
        }
      }
      observe(best_candidate);
    }
  }
}

}  // namespace bat::tuners
