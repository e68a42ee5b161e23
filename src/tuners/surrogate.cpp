#include "tuners/surrogate.hpp"

#include <cmath>
#include <span>

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

  const auto features = [&](core::ConfigIndex index, std::span<double> row) {
    compiled.decode_into(index, values);
    for (std::size_t p = 0; p < dims; ++p) {
      row[p] = static_cast<double>(values[p]);
    }
  };

  const auto observe = [&](core::ConfigIndex index) {
    const double obj = evaluator.evaluate_index(index);
    if (std::isfinite(obj) && obj > 0.0) {
      features(index, x_rows.emplace_back(dims));
      y_vals.push_back(obj);
    }
  };

  for (std::size_t i = 0; i < kInitialRandom; ++i) {
    observe(compiled.random_valid_index(rng));
  }

  ml::GbdtParams gparams;
  gparams.num_trees = 80;  // refit often -> keep individual fits cheap
  gparams.tree.max_depth = 5;

  std::vector<core::ConfigIndex> candidates(kCandidatePool);
  ml::Matrix pool(kCandidatePool, dims);
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
      // in one call and evaluate the most promising one (the first on
      // ties) for real. Prediction draws nothing, so drawing the whole
      // pool first uses the RNG as drawing and scoring one at a time.
      for (std::size_t i = 0; i < kCandidatePool; ++i) {
        candidates[i] = compiled.random_valid_index(rng);
        features(candidates[i], pool.row(i));
      }
      const std::vector<double> predicted = model.predict_all(pool);
      std::size_t best = 0;
      for (std::size_t i = 1; i < kCandidatePool; ++i) {
        if (predicted[i] < predicted[best]) best = i;
      }
      observe(candidates[best]);
    }
  }
}

}  // namespace bat::tuners
