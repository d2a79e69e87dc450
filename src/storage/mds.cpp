#include "storage/mds.hpp"

#include <string>

namespace farmer {

MdsServer::MdsServer(Simulator& sim, MdsConfig cfg, Predictor& predictor)
    : sim_(sim),
      cfg_(cfg),
      predictor_(predictor),
      cache_(cfg.cache_capacity, cfg.policy),
      disk_(sim, cfg.disk_servers),
      rng_(cfg.seed) {}

void MdsServer::populate(std::size_t file_count) {
  // One metadata record per file: a fixed-shape blob standing in for the
  // inode/object descriptor HUSt keeps in Berkeley DB.
  std::string blob(96, '\0');
  for (std::size_t i = 0; i < file_count; ++i) {
    blob.replace(0, 8, reinterpret_cast<const char*>(&i), 8);
    table_.put(i, blob);
  }
}

SimTime MdsServer::fetch_time() {
  const SimTime jitter = cfg_.db_fetch_jitter > 0
                             ? rng_.next_in(-cfg_.db_fetch_jitter,
                                            cfg_.db_fetch_jitter)
                             : 0;
  const SimTime t = cfg_.db_fetch_time + jitter;
  return t > kMicrosecond ? t : kMicrosecond;
}

void MdsServer::handle_demand(const TraceRecord& rec, ResponseFn respond) {
  const SimTime arrival = sim_.now();
  const FileId file = rec.file;

  // Learning happens on every demand request, hit or miss.
  predictor_.observe(rec);

  if (cache_.access(file)) {
    const SimTime done = arrival + cfg_.cpu_time;
    sim_.schedule_at(done, [respond = std::move(respond), arrival, done] {
      respond(done - arrival);
    });
    issue_prefetch(rec);
    return;
  }

  // Miss: coalesce with any in-flight fetch of the same file.
  auto it = inflight_.find(file);
  if (it != inflight_.end()) {
    ++duplicate_suppressed_;
    it->second.push_back(
        [this, arrival, respond = std::move(respond)](SimTime) {
          respond(sim_.now() + cfg_.cpu_time - arrival);
        });
    issue_prefetch(rec);
    return;
  }

  inflight_[file].push_back(
      [this, arrival, respond = std::move(respond)](SimTime) {
        respond(sim_.now() + cfg_.cpu_time - arrival);
      });
  disk_.submit(ServiceStation::kDemand, fetch_time(), [this, file] {
    // Verify the record exists in the table — the fetch we just paid for.
    (void)table_.get(file.value());
    cache_.insert_demand(file);
    auto waiters = std::move(inflight_[file]);
    inflight_.erase(file);
    for (auto& w : waiters) w(0);
  });
  issue_prefetch(rec);
}

void MdsServer::issue_prefetch(const TraceRecord& rec) {
  if (cfg_.prefetch_degree == 0) return;
  // Only candidates that are neither cached nor in flight cost an I/O; the
  // predictor gets the same test, so it can skip ranking a group that is
  // already resident.
  const auto needs_fetch = [&](FileId f) {
    return f != rec.file && !cache_.contains(f) && !inflight_.contains(f);
  };
  PredictionList predictions;
  predictor_.predict_fetchable(rec, cfg_.prefetch_degree, needs_fetch,
                               predictions);
  if (predictions.empty()) return;

  SmallVector<FileId, 8> to_fetch;
  for (FileId f : predictions) {
    if (!needs_fetch(f)) continue;
    to_fetch.push_back(f);
    inflight_[f];  // mark in-flight with no waiters yet
  }
  if (to_fetch.empty()) return;

  ++prefetch_batches_;
  if (cfg_.batch_prefetch) {
    // Correlated files are laid out contiguously (Section 4.2), so a group
    // costs one seek plus sequential transfers.
    const SimTime t =
        fetch_time() +
        static_cast<SimTime>(to_fetch.size() - 1) * cfg_.seq_fetch_time;
    disk_.submit(ServiceStation::kPrefetch, t, [this, to_fetch] {
      for (FileId f : to_fetch) {
        (void)table_.get(f.value());
        cache_.insert_prefetch(f);
        auto waiters = std::move(inflight_[f]);
        inflight_.erase(f);
        for (auto& w : waiters) w(0);
      }
    });
  } else {
    for (FileId f : to_fetch) {
      disk_.submit(ServiceStation::kPrefetch, fetch_time(), [this, f] {
        (void)table_.get(f.value());
        cache_.insert_prefetch(f);
        auto waiters = std::move(inflight_[f]);
        inflight_.erase(f);
        for (auto& w : waiters) w(0);
      });
    }
  }
}

}  // namespace farmer
