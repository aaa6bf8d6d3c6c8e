// Architecture 4 query engine: linear scan over the segment log.
//
// Queries GET every live segment object and evaluate locally -- the log is
// the whole store, so one pass holds everything (the LFS trade: cheap
// writes, scan-based search). Duplicate (object, version) entries (a
// republished posting's entry plus its compacted copy) resolve by
// later-(segment, offset)-wins, matching the backend's index semantics.
// Unlike Arch 1, every version's provenance survives in the log, so
// ancestry walks resolve old ancestor versions instead of reporting them
// missing.
#include <map>
#include <set>

#include "cloudprov/lsb/format.hpp"
#include "cloudprov/query.hpp"
#include "pass/record.hpp"

namespace provcloud::cloudprov {

namespace {

struct ScannedEntry {
  std::string kind;
  std::vector<pass::ProvenanceRecord> records;
  std::pair<std::uint64_t, std::uint64_t> place{0, 0};  // (segment, offset)
};

class LsbQueryEngine final : public QueryEngine {
 public:
  explicit LsbQueryEngine(CloudServices& services) : services_(&services) {}
  std::string name() const override { return "S3-segments"; }

  Q1Result q1_all_provenance() override {
    const auto all = scan_all();
    Q1Result out;
    out.object_versions = all.size();
    for (const auto& [id, e] : all) out.records += e.records.size();
    return out;
  }

  std::set<std::string> q2_outputs_of(const std::string& program) override {
    const auto all = scan_all();
    return outputs_from(all, program);
  }

  std::set<std::string> q3_descendants_of(const std::string& program) override {
    const auto all = scan_all();
    const std::set<std::string> outputs = outputs_from(all, program);

    // Reverse data-flow edges at object granularity (the Arch-1 shape).
    std::multimap<std::string, std::string> reverse;
    std::map<std::string, std::string> kind_of;
    for (const auto& [id, e] : all) {
      kind_of[id.object] = e.kind;
      for (const pass::ProvenanceRecord& r : e.records)
        if (r.is_xref() && r.attribute != pass::attr::kPrev)
          reverse.emplace(r.xref().object, id.object);
    }
    std::set<std::string> visited = outputs;
    std::vector<std::string> frontier(outputs.begin(), outputs.end());
    while (!frontier.empty()) {
      std::vector<std::string> next;
      for (const std::string& object : frontier) {
        auto [lo, hi] = reverse.equal_range(object);
        for (auto it = lo; it != hi; ++it)
          if (visited.insert(it->second).second) next.push_back(it->second);
      }
      frontier = std::move(next);
    }
    std::set<std::string> files;
    for (const std::string& object : visited)
      if (kind_of[object] == "file") files.insert(object);
    return files;
  }

  AncestryResult ancestry(const std::string& object, std::uint32_t version,
                          std::size_t max_nodes) override {
    const auto all = scan_all();
    return walk_ancestry(
        [&all](const std::vector<pass::ObjectVersion>& ids) {
          std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>> out;
          out.reserve(ids.size());
          for (const pass::ObjectVersion& id : ids) {
            auto it = all.find(id);
            if (it == all.end())
              out.push_back(backend_error(BackendErrorCode::kNotFound,
                                          "not in log: " + id.to_string()));
            else
              out.push_back(it->second.records);
          }
          return out;
        },
        object, version, max_nodes);
  }

 private:
  /// LIST the segment bucket, GET and decode every segment: the whole
  /// store in one pass, later-(segment, offset)-wins per (object, version).
  std::map<pass::ObjectVersion, ScannedEntry> scan_all() {
    std::map<pass::ObjectVersion, ScannedEntry> out;
    std::string marker;
    for (;;) {
      auto page =
          services_->s3.list(lsb::kSegmentBucket, lsb::kSegmentPrefix, marker);
      if (!page || page->keys.empty()) break;
      for (const std::string& key : page->keys) {
        std::uint64_t id = 0;
        if (!lsb::parse_segment_key(key, id)) continue;
        auto got = services_->s3.get(lsb::kSegmentBucket, key);
        if (!got || got->data == nullptr) continue;  // propagation race
        auto seg = lsb::decode_segment(*got->data);
        if (!seg) continue;
        for (lsb::PlacedEntry& placed : seg->entries) {
          const std::pair<std::uint64_t, std::uint64_t> place{
              seg->id, placed.location.offset};
          auto it = out.find(placed.entry.id);
          if (it != out.end() && it->second.place >= place) continue;
          out[placed.entry.id] =
              ScannedEntry{pass::to_string(placed.entry.kind),
                           std::move(placed.entry.records), place};
        }
      }
      if (!page->truncated) break;
      marker = page->keys.back();
    }
    return out;
  }

  static std::set<std::string> outputs_from(
      const std::map<pass::ObjectVersion, ScannedEntry>& all,
      const std::string& program) {
    std::set<std::string> producers;
    for (const auto& [id, e] : all) {
      if (e.kind != "process") continue;
      for (const pass::ProvenanceRecord& r : e.records)
        if (r.attribute == pass::attr::kName && !r.is_xref() &&
            r.text() == program)
          producers.insert(id.object);
    }
    std::set<std::string> outputs;
    for (const auto& [id, e] : all) {
      if (e.kind != "file") continue;
      for (const pass::ProvenanceRecord& r : e.records)
        if (r.is_xref() && r.attribute == pass::attr::kInput &&
            producers.count(r.xref().object) > 0)
          outputs.insert(id.object);
    }
    return outputs;
  }

  CloudServices* services_;
};

}  // namespace

std::unique_ptr<QueryEngine> make_lsb_query_engine(CloudServices& services) {
  return std::make_unique<LsbQueryEngine>(services);
}

}  // namespace provcloud::cloudprov
