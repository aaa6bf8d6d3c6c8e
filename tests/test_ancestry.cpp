// Provenance-graph reconstruction: closures, topological order, DOT export,
// and resilience to Architecture 1's lost-old-version limitation.
#include <gtest/gtest.h>

#include <tuple>

#include "cloudprov/ancestry.hpp"
#include "pass/observer.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace pass = provcloud::pass;

/// a -> p1 -> b -> p2 -> c, plus d independent.
SyscallTrace chain_trace() {
  SyscallTrace t;
  t.push_back(ev_exec(1, "/bin/p1"));
  t.push_back(ev_write(1, "a", "1"));
  t.push_back(ev_close(1, "a"));
  t.push_back(ev_exec(2, "/bin/p2"));
  t.push_back(ev_read(2, "a"));
  t.push_back(ev_write(2, "b", "2"));
  t.push_back(ev_close(2, "b"));
  t.push_back(ev_exec(3, "/bin/p3"));
  t.push_back(ev_read(3, "b"));
  t.push_back(ev_write(3, "c", "3"));
  t.push_back(ev_close(3, "c"));
  t.push_back(ev_write(4, "d", "4"));
  t.push_back(ev_close(4, "d"));
  return t;
}

struct World {
  explicit World(Architecture arch)
      : env(61, aws::ConsistencyConfig::strong()), services(env) {
    backend = make_backend(arch, services);
    PassObserver obs([this](const FlushUnit& u) { backend->store(u); });
    obs.apply_trace(chain_trace());
    obs.finish();
    backend->quiesce();
    env.clock().drain();
  }
  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
};

TEST(AncestryTest, FetchesFullClosure) {
  World w(Architecture::kS3SimpleDb);
  const AncestryResult r = fetch_ancestry(*w.backend, "c", 1);
  EXPECT_TRUE(r.missing.empty());
  // c, p3 (+stub), b, p2 (+stub), a, p1 (+stub), and the three executables.
  EXPECT_GE(r.graph.nodes().size(), 9u);
  EXPECT_NE(r.graph.find({"c", 1}), nullptr);
  EXPECT_NE(r.graph.find({"a", 1}), nullptr);
  // d is unrelated: not in the closure.
  EXPECT_EQ(r.graph.find({"d", 1}), nullptr);
}

TEST(AncestryTest, AncestorClosureCrossesProcesses) {
  World w(Architecture::kS3SimpleDb);
  const AncestryResult r = fetch_ancestry(*w.backend, "c", 1);
  const auto ancestors = r.graph.ancestor_closure({"c", 1});
  EXPECT_EQ(ancestors.count({"b", 1}), 1u);
  EXPECT_EQ(ancestors.count({"a", 1}), 1u);
  EXPECT_EQ(ancestors.count({"/bin/p1", 1}), 1u);
  EXPECT_EQ(ancestors.count({"c", 1}), 0u);  // excludes self
}

TEST(AncestryTest, DescendantClosureWithinGraph) {
  World w(Architecture::kS3SimpleDb);
  const AncestryResult r = fetch_ancestry(*w.backend, "c", 1);
  const auto descendants = r.graph.descendant_closure({"a", 1});
  EXPECT_EQ(descendants.count({"b", 1}), 1u);
  EXPECT_EQ(descendants.count({"c", 1}), 1u);
}

TEST(AncestryTest, NodeKindsDecoded) {
  World w(Architecture::kS3SimpleDb);
  const AncestryResult r = fetch_ancestry(*w.backend, "c", 1);
  ASSERT_NE(r.graph.find({"c", 1}), nullptr);
  EXPECT_EQ(r.graph.find({"c", 1})->kind, "file");
  ASSERT_NE(r.graph.find({"proc/3/1", 1}), nullptr);
  EXPECT_EQ(r.graph.find({"proc/3/1", 1})->kind, "process");
}

TEST(AncestryTest, TopologicalOrderAncestorsFirst) {
  World w(Architecture::kS3SimpleDb);
  const AncestryResult r = fetch_ancestry(*w.backend, "c", 1);
  const auto order = r.graph.topological_order();
  EXPECT_EQ(order.size(), r.graph.nodes().size());
  std::map<pass::ObjectVersion, std::size_t> position;
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const auto& [id, node] : r.graph.nodes())
    for (const auto& a : node.ancestors) {
      if (position.count(a) > 0) {
        EXPECT_LT(position[a], position[id])
            << a.to_string() << " must precede " << id.to_string();
      }
    }
}

TEST(AncestryTest, DotExportContainsNodesAndEdges) {
  World w(Architecture::kS3SimpleDb);
  const AncestryResult r = fetch_ancestry(*w.backend, "c", 1);
  const std::string dot = r.graph.to_dot("test");
  EXPECT_NE(dot.find("digraph \"test\""), std::string::npos);
  EXPECT_NE(dot.find("\"c:1\""), std::string::npos);
  EXPECT_NE(dot.find("\"c:1\" -> \"proc/3/1:1\""), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);  // processes
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // files
}

TEST(AncestryTest, MaxNodesBoundsTheWalk) {
  World w(Architecture::kS3SimpleDb);
  const AncestryResult r = fetch_ancestry(*w.backend, "c", 1, 3);
  EXPECT_LE(r.graph.nodes().size(), 3u);
}

TEST(AncestryTest, WorksOnAllArchitectures) {
  for (Architecture arch :
       {Architecture::kS3Only, Architecture::kS3SimpleDb,
        Architecture::kS3SimpleDbSqs}) {
    World w(arch);
    const AncestryResult r = fetch_ancestry(*w.backend, "c", 1);
    EXPECT_EQ(r.graph.ancestor_closure({"c", 1}).count({"a", 1}), 1u)
        << to_string(arch);
  }
}

TEST(AncestryTest, Arch1ReportsMissingOldVersions) {
  // Overwrite a file so version 1's provenance is lost on Architecture 1;
  // the walker must report it as missing rather than fail.
  aws::CloudEnv env(62, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3Only, services);
  PassObserver obs([&backend](const FlushUnit& u) { backend->store(u); });
  obs.apply(ev_write(1, "f", "v1"));
  obs.apply(ev_close(1, "f"));
  obs.apply(ev_write(2, "f", "+v2"));
  obs.apply(ev_close(2, "f"));  // overwrites f's metadata with v2's records
  obs.apply(ev_exec(3, "/bin/reader"));
  obs.apply(ev_read(3, "f"));
  obs.apply(ev_write(3, "g", "derived"));
  obs.apply(ev_close(3, "g"));
  env.clock().drain();

  const AncestryResult r = fetch_ancestry(*backend, "g", 1);
  // f:1's records are unreachable on arch 1 (only f:2 survives).
  bool f1_missing = false;
  for (const auto& m : r.missing) f1_missing |= (m == pass::ObjectVersion{"f", 1});
  EXPECT_TRUE(f1_missing);
}

class DefaultBatchTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(DefaultBatchTest, BatchedFetchMakesThePerIdRequests) {
  // The default get_provenance_many makes exactly the requests, bytes and
  // latency draws of one get_provenance per id: twin worlds, one fetched id
  // by id and one in a batch, bill the same. Arch 1 keeps the default; Arch
  // 2/3 override it with batched Selects (test_sdb_batch_read), so the
  // default is called by name to pin it over their per-id reads too.
  World per_id(GetParam());
  World batched(GetParam());
  // Walk both twins, so they stay in step, to learn the ids worth asking.
  const AncestryResult walked = fetch_ancestry(*per_id.backend, "c", 1);
  fetch_ancestry(*batched.backend, "c", 1);
  std::vector<ObjectVersion> ids = walked.missing;
  for (const auto& [id, node] : walked.graph.nodes()) ids.push_back(id);
  ids.push_back(ObjectVersion{"never-stored", 1});
  ASSERT_GT(ids.size(), 4u);

  const auto bill = [](World& w, const auto& fetch) {
    const auto before = w.env.meter().snapshot();
    const auto elapsed = w.env.latency_ledger().elapsed();
    auto results = fetch(*w.backend);
    return std::make_tuple(std::move(results),
                           w.env.meter().snapshot().diff(before).counters,
                           w.env.latency_ledger().elapsed() - elapsed);
  };
  const auto [one_by_one, one_bill, one_elapsed] =
      bill(per_id, [&ids](ProvenanceBackend& b) {
        std::vector<BackendResult<std::vector<ProvenanceRecord>>> out;
        for (const ObjectVersion& id : ids)
          out.push_back(b.get_provenance(id.object, id.version));
        return out;
      });
  const auto [many, many_bill, many_elapsed] =
      bill(batched, [&ids](ProvenanceBackend& b) {
        return b.ProvenanceBackend::get_provenance_many(ids);
      });

  ASSERT_EQ(many.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(many[i].has_value(), one_by_one[i].has_value()) << i;
    if (many[i])
      EXPECT_EQ(*many[i], *one_by_one[i]) << i;
    else
      EXPECT_EQ(many[i].error().code, one_by_one[i].error().code) << i;
  }
  ASSERT_EQ(many_bill.size(), one_bill.size());
  for (const auto& [key, counter] : one_bill) {
    const auto it = many_bill.find(key);
    ASSERT_NE(it, many_bill.end()) << key.first << " " << key.second;
    EXPECT_EQ(it->second.calls, counter.calls) << key.second;
    EXPECT_EQ(it->second.bytes_in, counter.bytes_in) << key.second;
    EXPECT_EQ(it->second.bytes_out, counter.bytes_out) << key.second;
  }
  EXPECT_EQ(many_elapsed, one_elapsed);
}

INSTANTIATE_TEST_SUITE_P(PerIdArchitectures, DefaultBatchTest,
                         ::testing::Values(Architecture::kS3Only,
                                           Architecture::kS3SimpleDb,
                                           Architecture::kS3SimpleDbSqs),
                         [](const auto& info) {
                           switch (info.param) {
                             case Architecture::kS3Only: return "S3";
                             case Architecture::kS3SimpleDb: return "S3SimpleDB";
                             case Architecture::kS3SimpleDbSqs:
                               return "S3SimpleDBSQS";
                             case Architecture::kS3SegmentLog:
                               return "S3SegmentLog";
                           }
                           return "unknown";
                         });

TEST(AncestryGraphTest, EmptyGraphBehaves) {
  AncestryGraph g;
  EXPECT_EQ(g.find({"x", 1}), nullptr);
  EXPECT_TRUE(g.topological_order().empty());
  EXPECT_TRUE(g.ancestor_closure({"x", 1}).empty());
}

}  // namespace
