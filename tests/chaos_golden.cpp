// Golden gate for the chaos oracle: every row of BENCH_chaos.json is re-run
// from the options it records, and the run must reproduce the row's digest
// and verdict. The rows are what make a refactor that claims to keep
// behaviour checkable, so a change that does alter behaviour regenerates
// them with the command that made them:
//
//   sim=./build/examples/mykil_sim
//   rm BENCH_chaos.json
//   for s in $(seq 1 20); do
//     $sim --chaos $s --area-split --workers 1 --chaos-json BENCH_chaos.json
//   done
//   for s in $(seq 1 20); do
//     $sim --chaos $s --workers 1 --chaos-json BENCH_chaos.json
//   done
//
// The first 20 rows run with online area management (--area-split), the
// last 20 in base mode (fixed areas).
//
// Usage: chaos_golden <path to BENCH_chaos.json>
#include <cstdio>
#include <fstream>
#include <string>

#include "workload/chaos.h"

namespace {

/// Value of `"key": value` in a flat one-line JSON object, quotes removed;
/// empty when the key is absent.
std::string field(const std::string& row, const std::string& key) {
  const std::string pattern = "\"" + key + "\": ";
  std::size_t begin = row.find(pattern);
  if (begin == std::string::npos) return {};
  begin += pattern.size();
  std::string value = row.substr(begin, row.find_first_of(",}", begin) - begin);
  if (value.size() >= 2 && value.front() == '"')
    value = value.substr(1, value.size() - 2);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: chaos_golden <BENCH_chaos.json>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "chaos_golden: cannot open %s\n", argv[1]);
    return 2;
  }

  int rows = 0;
  int failures = 0;
  for (std::string row; std::getline(in, row);) {
    if (row.empty()) continue;
    ++rows;
    mykil::workload::ChaosOptions opt;
    opt.seed = std::stoull(field(row, "seed"));
    opt.dynamic_areas = field(row, "dynamic_areas") == "true";
    opt.workers = static_cast<unsigned>(std::stoul(field(row, "workers")));
    opt.reliable_control = field(row, "arq") == "true";
    mykil::workload::ChaosReport rep = mykil::workload::run_chaos(opt);

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(rep.digest));
    const bool converged = rep.converged();
    const bool ok = field(row, "digest") == digest &&
                    (field(row, "converged") == "true") == converged;
    std::printf("chaos seed %llu: digest %s (golden %s), %s%s\n",
                static_cast<unsigned long long>(opt.seed), digest,
                field(row, "digest").c_str(),
                converged ? "converged" : "FAILED", ok ? "" : "  MISMATCH");
    if (!ok) ++failures;
  }
  if (rows == 0) {
    std::printf("chaos_golden: no rows in %s\n", argv[1]);
    return 1;
  }
  std::printf("%d/%d rows reproduced\n", rows - failures, rows);
  return failures == 0 ? 0 : 1;
}
