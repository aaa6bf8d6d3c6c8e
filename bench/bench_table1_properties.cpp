// Reproduces Table 1: "Properties Comparison. A check mark indicates that
// the property is supported."
//
// Unlike the paper (which argues the matrix analytically), this bench
// *measures* each cell: a crash at every crash point, at every occurrence,
// for atomicity and causal ordering, read hammering under staleness for
// consistency, and dataset scaling for efficient query. The first three
// rows match the paper; the fourth is the segment log this library adds:
//
//   S3                   : atomicity Y  consistency Y  causal Y  efficient N
//   S3+SimpleDB          : atomicity N  consistency Y  causal Y  efficient Y
//   S3+SimpleDB+SQS      : atomicity Y  consistency Y  causal Y  efficient Y
//   S3-segments+SimpleDB : atomicity Y  consistency Y  causal Y  efficient N
//
// Exits 1 when the measured matrix does not match the backends' claims.
#include <cstdio>

#include "bench_common.hpp"
#include "cloudprov/properties.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;

namespace {
const char* mark(bool supported) { return supported ? "yes" : " no"; }
}

int main() {
  bench::print_header(
      "Table 1: Properties comparison (measured; paper reports the same "
      "matrix)");

  PropertyCheckOptions options;
  options.seed = 2009;
  options.mini_files = 10;
  options.reads_per_version = 4;

  std::printf("%-20s %10s %12s %15s %16s\n", "Architecture", "Atomicity",
              "Consistency", "Causal Ordering", "Efficient Query");
  bench::print_rule();

  const std::vector<PropertyReport> rows = check_all_architectures(options);
  bool all_match = true;
  for (const PropertyReport& r : rows) {
    std::printf("%-20s %10s %12s %15s %16s\n", to_string(r.arch),
                mark(r.atomicity), mark(r.consistency),
                mark(r.causal_ordering), mark(r.efficient_query));
    aws::CloudEnv env(1);
    CloudServices services(env);
    all_match = all_match && r.matches(make_backend(r.arch, services)->claims());
  }

  bench::print_header("Evidence");
  for (const PropertyReport& r : rows) {
    std::printf(
        "%-20s crash scenarios %3llu | atomicity violations %3llu | causal "
        "violations %3llu\n",
        to_string(r.arch),
        static_cast<unsigned long long>(r.crash_sweep.crash_scenarios),
        static_cast<unsigned long long>(r.atomicity_violations),
        static_cast<unsigned long long>(r.causal_violations));
    std::printf(
        "%-20s reads checked %5llu | mismatches %3llu | staleness retries "
        "observed %3llu\n",
        "", static_cast<unsigned long long>(r.reads_checked),
        static_cast<unsigned long long>(r.consistency_violations),
        static_cast<unsigned long long>(r.reads_with_retries));
    std::printf(
        "%-20s Q2 ops at 1x/2x dataset: %llu -> %llu (growth %.2fx; "
        "efficient iff sublinear)\n",
        "", static_cast<unsigned long long>(r.query_ops_small),
        static_cast<unsigned long long>(r.query_ops_large), r.query_growth);
  }

  std::printf("\nMeasured matrix %s the paper's Table 1.\n",
              all_match ? "MATCHES" : "DOES NOT MATCH");
  return all_match ? 0 : 1;
}
