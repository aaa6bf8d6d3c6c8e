#include "cloudprov/ancestry.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "cloudprov/serialize.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

using pass::ObjectVersion;

void AncestryGraph::add_node(AncestryNode node) {
  const ObjectVersion id = node.id;
  for (const ObjectVersion& ancestor : node.ancestors)
    reverse_.emplace(ancestor, id);
  nodes_[id] = std::move(node);
}

const AncestryNode* AncestryGraph::find(const ObjectVersion& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<ObjectVersion> AncestryGraph::descendants_of(
    const ObjectVersion& id) const {
  std::vector<ObjectVersion> out;
  auto [lo, hi] = reverse_.equal_range(id);
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

std::set<ObjectVersion> AncestryGraph::ancestor_closure(
    const ObjectVersion& id) const {
  std::set<ObjectVersion> visited;
  std::deque<ObjectVersion> frontier{id};
  while (!frontier.empty()) {
    const ObjectVersion cur = frontier.front();
    frontier.pop_front();
    const AncestryNode* node = find(cur);
    if (node == nullptr) continue;
    for (const ObjectVersion& a : node->ancestors)
      if (visited.insert(a).second) frontier.push_back(a);
  }
  visited.erase(id);
  return visited;
}

std::set<ObjectVersion> AncestryGraph::descendant_closure(
    const ObjectVersion& id) const {
  std::set<ObjectVersion> visited;
  std::deque<ObjectVersion> frontier{id};
  while (!frontier.empty()) {
    const ObjectVersion cur = frontier.front();
    frontier.pop_front();
    for (const ObjectVersion& d : descendants_of(cur))
      if (visited.insert(d).second) frontier.push_back(d);
  }
  visited.erase(id);
  return visited;
}

std::vector<ObjectVersion> AncestryGraph::topological_order() const {
  // Kahn's algorithm over the ancestor edges (edge ancestor -> node).
  std::map<ObjectVersion, std::size_t> indegree;
  for (const auto& [id, node] : nodes_) {
    indegree.try_emplace(id, 0);
    for (const ObjectVersion& a : node.ancestors)
      if (nodes_.count(a) > 0) ++indegree[id];
  }
  std::deque<ObjectVersion> ready;
  for (const auto& [id, deg] : indegree)
    if (deg == 0) ready.push_back(id);
  std::vector<ObjectVersion> out;
  out.reserve(nodes_.size());
  while (!ready.empty()) {
    const ObjectVersion cur = ready.front();
    ready.pop_front();
    out.push_back(cur);
    for (const ObjectVersion& d : descendants_of(cur)) {
      auto it = indegree.find(d);
      if (it == indegree.end()) continue;
      if (--it->second == 0) ready.push_back(d);
    }
  }
  PROVCLOUD_REQUIRE_MSG(out.size() == nodes_.size(),
                        "provenance graph contains a cycle");
  return out;
}

std::string AncestryGraph::to_dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph \"" << graph_name << "\" {\n";
  os << "  rankdir=BT;\n";
  const auto quote = [](const ObjectVersion& id) {
    std::string s = id.to_string();
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  for (const auto& [id, node] : nodes_) {
    const char* shape = node.kind == "process" ? "ellipse"
                        : node.kind == "pipe"  ? "diamond"
                                               : "box";
    os << "  \"" << quote(id) << "\" [shape=" << shape << "];\n";
  }
  for (const auto& [id, node] : nodes_) {
    for (const pass::ProvenanceRecord& r : node.records) {
      if (!r.is_xref()) continue;
      const bool dataflow = r.attribute == pass::attr::kInput;
      os << "  \"" << quote(id) << "\" -> \"" << quote(r.xref()) << "\""
         << (dataflow ? "" : " [style=dashed]") << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

AncestryResult walk_ancestry(const ProvenanceFetcher& fetch,
                             const std::string& object, std::uint32_t version,
                             std::size_t max_nodes) {
  AncestryResult result;
  std::set<ObjectVersion> enqueued;
  std::deque<ObjectVersion> frontier;
  const ObjectVersion root{object, version};
  frontier.push_back(root);
  enqueued.insert(root);

  while (!frontier.empty() && result.graph.nodes().size() < max_nodes) {
    // One fetch round per pending frontier, capped so the graph cannot
    // overshoot max_nodes even when every fetched id resolves.
    const std::size_t take = std::min(
        frontier.size(), max_nodes - result.graph.nodes().size());
    std::vector<ObjectVersion> batch(frontier.begin(),
                                     frontier.begin() +
                                         static_cast<std::ptrdiff_t>(take));
    frontier.erase(frontier.begin(),
                   frontier.begin() + static_cast<std::ptrdiff_t>(take));
    std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>> fetched =
        fetch(batch);
    PROVCLOUD_REQUIRE_MSG(fetched.size() == batch.size(),
                          "ProvenanceFetcher result count mismatch");
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!fetched[i]) {
        result.missing.push_back(batch[i]);
        continue;
      }
      AncestryNode node;
      node.id = batch[i];
      node.records = std::move(*fetched[i]);
      for (const pass::ProvenanceRecord& r : node.records) {
        if (r.attribute == pass::attr::kType && !r.is_xref())
          node.kind = r.text();
        if (!r.is_xref()) continue;
        node.ancestors.push_back(r.xref());
        if (enqueued.insert(r.xref()).second) frontier.push_back(r.xref());
      }
      result.graph.add_node(std::move(node));
    }
  }
  return result;
}

AncestryResult fetch_ancestry(ProvenanceBackend& backend,
                              const std::string& object, std::uint32_t version,
                              std::size_t max_nodes) {
  // One batched fetch per BFS frontier: the default get_provenance_many is
  // the classic one-round-trip-per-node walk; Arch 2/3 fold a frontier into
  // one SimpleDB Select per 20 ids of a shard domain, and Arch 4 into one
  // range GET per segment.
  return walk_ancestry(
      [&backend](const std::vector<ObjectVersion>& ids) {
        return backend.get_provenance_many(ids);
      },
      object, version, max_nodes);
}

}  // namespace provcloud::cloudprov
