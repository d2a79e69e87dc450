#include "api/miner_factory.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/concurrent_farmer.hpp"
#include "core/farmer.hpp"
#include "core/sharded_farmer.hpp"
#include "persist/durable_miner.hpp"
#include "persist/persister.hpp"

namespace farmer {

namespace {

persist::Options persist_options(const MinerOptions& opts) {
  persist::Options p;
  p.dir = opts.persist_dir;
  p.checkpoint_interval_records = opts.checkpoint_interval_records;
  p.wal_group_commit = opts.wal_group_commit;
  return p;
}

/// Synchronous backends become durable by decoration: the factory knows
/// the concrete types, so it hands DurableMiner the Farmer shard view the
/// checkpoint serializer needs. Recovery runs inside the decorator's
/// constructor, before the miner is returned. Without a persist_dir the
/// miner comes back undecorated.
std::unique_ptr<CorrelationMiner> maybe_durable(
    std::unique_ptr<CorrelationMiner> miner, std::vector<Farmer*> shards,
    const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
    const MinerOptions& opts) {
  if (opts.persist_dir.empty()) return miner;
  return std::make_unique<persist::DurableMiner>(
      std::move(miner), std::move(shards), cfg, std::move(dict),
      persist_options(opts));
}

using Registry = std::map<std::string, MinerFactoryFn, std::less<>>;

Registry& registry() {
  static Registry r = [] {
    Registry built_in;
    built_in["farmer"] = [](const FarmerConfig& cfg,
                            std::shared_ptr<const TraceDictionary> dict,
                            const MinerOptions& opts) {
      auto miner = std::make_unique<Farmer>(cfg, dict);
      std::vector<Farmer*> view{miner.get()};
      return maybe_durable(std::move(miner), std::move(view), cfg,
                           std::move(dict), opts);
    };
    built_in["sharded"] = [](const FarmerConfig& cfg,
                             std::shared_ptr<const TraceDictionary> dict,
                             const MinerOptions& opts) {
      auto miner = std::make_unique<ShardedFarmer>(cfg, dict, opts.shards,
                                                   opts.apply_threads);
      std::vector<Farmer*> view;
      view.reserve(miner->shard_count());
      for (std::size_t s = 0; s < miner->shard_count(); ++s)
        view.push_back(&miner->shard_mut(s));
      return maybe_durable(std::move(miner), std::move(view), cfg,
                           std::move(dict), opts);
    };
    built_in["concurrent"] = [](const FarmerConfig& cfg,
                                std::shared_ptr<const TraceDictionary> dict,
                                const MinerOptions& opts) {
      // max_pending / publish_max_delay_ms == 0 mean "backend default"; the
      // constructor resolves them so direct and factory construction cannot
      // diverge. Durability is embedded, not decorated: the WAL hooks must
      // live on the drain thread and the checkpoints off the published COW
      // snapshots (see ConcurrentFarmer).
      std::unique_ptr<persist::Persister> persister;
      if (!opts.persist_dir.empty())
        persister =
            std::make_unique<persist::Persister>(persist_options(opts));
      return std::make_unique<ConcurrentFarmer>(cfg, std::move(dict),
                                                opts.shards,
                                                opts.ingest_threads,
                                                opts.max_pending,
                                                opts.publish_interval_records,
                                                opts.publish_max_delay_ms,
                                                std::move(persister),
                                                opts.apply_threads);
    };
    return built_in;
  }();
  return r;
}

}  // namespace

bool register_miner(const std::string& name, MinerFactoryFn factory) {
  auto [it, inserted] = registry().insert_or_assign(name, std::move(factory));
  (void)it;
  return inserted;
}

std::vector<std::string> registered_miners() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, fn] : registry()) names.push_back(name);
  return names;
}

std::unique_ptr<CorrelationMiner> make_miner(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict, const MinerOptions& opts) {
  const std::string errors = cfg.validate();
  if (!errors.empty())
    throw std::invalid_argument("make_miner: invalid FarmerConfig: " +
                                errors);
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string known;
    for (const auto& n : registered_miners()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("make_miner: unknown backend \"" +
                                std::string(name) + "\" (registered: " +
                                known + ")");
  }
  return it->second(cfg, std::move(dict), opts);
}

}  // namespace farmer
