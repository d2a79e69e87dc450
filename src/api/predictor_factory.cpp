#include "api/predictor_factory.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"

namespace farmer {

namespace {

using Factory = std::unique_ptr<Predictor> (*)(
    const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
    const PredictorOptions& opts);

const std::map<std::string, Factory, std::less<>>& registry() {
  static const std::map<std::string, Factory, std::less<>> r = [] {
    std::map<std::string, Factory, std::less<>> built_in;
    built_in["fpa"] = [](const FarmerConfig& cfg,
                         std::shared_ptr<const TraceDictionary> dict,
                         const PredictorOptions& opts)
        -> std::unique_ptr<Predictor> {
      // The miner factory re-validates cfg and resolves the backend name;
      // its std::invalid_argument carries the registered-miners listing.
      const std::string_view backend =
          opts.miner_backend.empty() ? std::string_view("farmer")
                                     : std::string_view(opts.miner_backend);
      return std::make_unique<FpaPredictor>(
          make_miner(backend, cfg, std::move(dict), opts.miner));
    };
    built_in["nexus"] = [](const FarmerConfig&,
                           std::shared_ptr<const TraceDictionary>,
                           const PredictorOptions&)
        -> std::unique_ptr<Predictor> {
      return std::make_unique<NexusPredictor>();
    };
    built_in["none"] = [](const FarmerConfig&,
                          std::shared_ptr<const TraceDictionary>,
                          const PredictorOptions&)
        -> std::unique_ptr<Predictor> {
      return std::make_unique<NoopPredictor>();
    };
    return built_in;
  }();
  return r;
}

}  // namespace

std::vector<std::string> registered_predictors() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, fn] : registry()) names.push_back(name);
  return names;
}

std::unique_ptr<Predictor> make_predictor(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict,
    const PredictorOptions& opts) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string known;
    for (const auto& n : registered_predictors()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("make_predictor: unknown predictor \"" +
                                std::string(name) + "\" (registered: " +
                                known + ")");
  }
  return it->second(cfg, std::move(dict), opts);
}

}  // namespace farmer
