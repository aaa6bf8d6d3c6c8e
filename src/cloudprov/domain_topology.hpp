// DomainTopology: the one place that knows how the provenance store is laid
// out across SimpleDB domains -- and how hard it may be hit in parallel.
//
// PR 1's ShardRouter gave every consumer a hash function but left each of
// them to copy its own router, name domains ad hoc, or (hints, properties)
// keep assuming the single "provenance" domain. The topology owns the
// router, the domain list, domain creation, and a bounded executor for
// scatter/gather fan-out, so backends, query engines, the prefetch cache
// and the property checker all address the same layout through one object.
//
// Kivaloo-style lesson applied here: per-request round trips become
// throughput once requests to independent partitions overlap. SimpleDB
// throttles per domain, so the unit of parallelism is the shard domain;
// with shard_count == 1 and parallelism == 1 everything collapses to the
// paper's exact single-domain sequential protocol, bit-for-bit (billing
// included).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cloudprov/shard_router.hpp"
#include "util/executor.hpp"

namespace provcloud::aws {
class SimpleDbService;
}
namespace provcloud::sim {
class LatencyLedger;
}

namespace provcloud::cloudprov {

struct TopologyConfig {
  /// SimpleDB domains provenance items are hashed across. 1 keeps the
  /// original single-"provenance"-domain layout bit-identically.
  std::size_t shard_count = 1;
  /// Base domain name; empty selects kProvenanceDomain.
  std::string base_domain{};
  /// Concurrent shard requests the topology's executor allows. 1 runs every
  /// fan-out inline and in order (the deterministic test/reference mode).
  std::size_t parallelism = 1;
  /// Elapsed-time ledger of the environment the topology fans out against
  /// (CloudEnv::latency_ledger()). When set, parallel fan-outs open one
  /// ledger branch per task and merge the branch timelines by critical path
  /// at the gather barrier; null skips elapsed-time bookkeeping.
  sim::LatencyLedger* ledger = nullptr;
};

class DomainTopology {
 public:
  explicit DomainTopology(TopologyConfig config = {});

  DomainTopology(const DomainTopology&) = delete;
  DomainTopology& operator=(const DomainTopology&) = delete;

  /// Backends and query engines share one topology (and its executor), so
  /// the shard layout cannot drift between writer and reader.
  static std::shared_ptr<const DomainTopology> make(TopologyConfig config = {});

  std::size_t shard_count() const { return router_.shard_count(); }
  std::size_t parallelism() const { return executor_->parallelism(); }
  const ShardRouter& router() const { return router_; }

  /// Every shard domain, in shard-index order.
  const std::vector<std::string>& domains() const { return router_.domains(); }

  std::size_t shard_of(std::string_view object) const {
    return router_.shard_of(object);
  }
  const std::string& domain_for_object(std::string_view object) const {
    return router_.domain_for_object(object);
  }
  const std::string& domain_for_item(const std::string& item) const {
    return router_.domain_for_item(item);
  }

  /// Create every shard domain (idempotent; backends call this once).
  void ensure_domains(aws::SimpleDbService& sdb) const;

  /// The fan-out executor. Mutable by design: issuing requests through it
  /// does not change the layout.
  util::Executor& executor() const { return *executor_; }

  /// Run a batch of independent tasks. parallelism == 1 (or a single task)
  /// executes inline, in order, on the caller's thread: charges land on the
  /// caller's timeline sequentially (sum merge) -- exactly the loops this
  /// replaced, bit-for-bit. Otherwise the tasks overlap on the executor,
  /// each on its own ledger branch, and the caller's timeline advances by
  /// the longest branch (critical-path merge). Tasks must not touch shared
  /// state without their own locking.
  void run_tasks(std::vector<std::function<void()>> tasks) const;

  /// Run fn(shard_index, domain) once per shard domain (see run_tasks for
  /// the execution and elapsed-time contract).
  template <typename Fn>
  void for_each_domain(Fn&& fn) const {
    const std::vector<std::string>& ds = domains();
    if (parallelism() <= 1 || ds.size() <= 1) {
      for (std::size_t i = 0; i < ds.size(); ++i) fn(i, ds[i]);
      return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i)
      tasks.push_back([&fn, &ds, i] { fn(i, ds[i]); });
    run_tasks(std::move(tasks));
  }

  /// Scatter fn over the shard domains and gather the per-domain results in
  /// shard-index order: identical values at any parallelism.
  template <typename T, typename Fn>
  std::vector<T> scatter(Fn&& fn) const {
    std::vector<T> out(domains().size());
    for_each_domain([&out, &fn](std::size_t i, const std::string& d) {
      out[i] = fn(i, d);
    });
    return out;
  }

 private:
  ShardRouter router_;
  std::unique_ptr<util::Executor> executor_;
  sim::LatencyLedger* ledger_;
};

}  // namespace provcloud::cloudprov
