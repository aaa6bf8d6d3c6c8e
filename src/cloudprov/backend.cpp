#include "cloudprov/backend.hpp"

#include "util/require.hpp"

namespace provcloud::cloudprov {

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
