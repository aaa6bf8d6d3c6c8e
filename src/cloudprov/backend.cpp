#include "cloudprov/backend.hpp"

#include <functional>

#include "cloudprov/domain_topology.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

namespace {
std::shared_ptr<const DomainTopology> topology_on(aws::CloudEnv& env,
                                                  TopologyConfig config) {
  config.ledger = &env.latency_ledger();
  return DomainTopology::make(std::move(config));
}
}  // namespace

ProvenanceBackend::ProvenanceBackend(CloudServices& services,
                                     TopologyConfig topology)
    : services_(&services),
      topology_(topology_on(*services.env, std::move(topology))) {}

std::vector<BackendResult<ReadResult>> ProvenanceBackend::read_many(
    const std::vector<std::string>& objects, std::uint32_t max_retries) {
  std::vector<BackendResult<ReadResult>> out(
      objects.size(),
      backend_error(BackendErrorCode::kUnknown, "read_many: not attempted"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i)
    tasks.push_back([this, &objects, &out, i, max_retries] {
      out[i] = read(objects[i], max_retries);
    });
  topology_->run_tasks(std::move(tasks));
  return out;
}

std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
ProvenanceBackend::get_provenance_many(
    const std::vector<pass::ObjectVersion>& ids) {
  std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>> out;
  out.reserve(ids.size());
  for (const pass::ObjectVersion& id : ids)
    out.push_back(get_provenance(id.object, id.version));
  return out;
}

std::unique_ptr<ProvenanceBackend> make_backend(Architecture arch,
                                                CloudServices& services) {
  switch (arch) {
    case Architecture::kS3Only:
      return make_s3_backend(services);
    case Architecture::kS3SimpleDb:
      return make_sdb_backend(services);
    case Architecture::kS3SimpleDbSqs:
      return make_wal_backend(services);
    case Architecture::kS3SegmentLog:
      return make_lsb_backend(services);
  }
  PROVCLOUD_REQUIRE_MSG(false, "unknown architecture");
  return nullptr;
}

}  // namespace provcloud::cloudprov
