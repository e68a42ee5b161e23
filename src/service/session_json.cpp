#include "service/session_json.hpp"

#include <stdexcept>

namespace bat::service {

using common::Json;
using common::JsonArray;
using common::JsonObject;

Json to_json(const SessionSpec& spec) {
  JsonObject object;
  object.emplace("kernel", spec.kernel);
  object.emplace("tuner", spec.tuner);
  object.emplace("device", static_cast<std::uint64_t>(spec.device));
  object.emplace("budget", static_cast<std::uint64_t>(spec.budget));
  object.emplace("seed", spec.seed);
  object.emplace("backend", spec.backend);
  return Json(std::move(object));
}

SessionSpec spec_from_json(const Json& json) {
  const JsonObject& object = json.as_object();  // throws unless object
  SessionSpec spec;
  for (const auto& [key, value] : object) {
    if (key == "kernel") {
      spec.kernel = value.as_string();
    } else if (key == "tuner") {
      spec.tuner = value.as_string();
    } else if (key == "device") {
      spec.device = static_cast<core::DeviceIndex>(value.as_uint());
    } else if (key == "budget") {
      spec.budget = static_cast<std::size_t>(value.as_uint());
    } else if (key == "seed") {
      spec.seed = value.as_uint();
    } else if (key == "backend") {
      spec.backend = value.as_string();
    } else {
      throw std::invalid_argument("session spec: unknown key \"" + key +
                                  "\"");
    }
  }
  return spec;
}

Json to_json(const SessionResult& result, bool include_trace) {
  JsonObject object;
  object.emplace("spec", to_json(result.spec));
  object.emplace("status", to_string(result.status));
  object.emplace("error", result.error);
  object.emplace("wall_ms", result.wall_ms);
  object.emplace("evaluations",
                 static_cast<std::uint64_t>(result.run.trace.size()));
  object.emplace("cancelled", result.run.cancelled);
  if (result.run.best) {
    JsonObject best;
    best.emplace("index", result.run.best->index);
    best.emplace("objective", result.run.best->objective);
    object.emplace("best", Json(std::move(best)));
  } else {
    object.emplace("best", nullptr);
  }
  if (include_trace) {
    JsonArray trace;
    trace.reserve(result.run.trace.size());
    for (const auto& entry : result.run.trace) {
      JsonObject e;
      e.emplace("index", entry.index);
      e.emplace("objective", entry.objective);
      trace.emplace_back(std::move(e));
    }
    object.emplace("trace", Json(std::move(trace)));
  }
  return Json(std::move(object));
}

}  // namespace bat::service
