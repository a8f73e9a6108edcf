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
// A row that does not reproduce is printed field by field, golden against
// now, so a regeneration can be reviewed by what it changed.
//
// Usage: chaos_golden <path to BENCH_chaos.json>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "workload/chaos.h"

namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

/// The `"key": value` pairs of a flat one-line JSON object, in order, with
/// string values unquoted.
Fields fields(const std::string& row) {
  Fields out;
  for (std::size_t key = row.find('"'); key != std::string::npos;
       key = row.find('"', key)) {
    std::size_t key_end = row.find('"', key + 1);
    std::size_t value = row.find(": ", key_end) + 2;
    std::size_t value_end = row.find_first_of(",}", value);
    std::string v = row.substr(value, value_end - value);
    if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
    out.emplace_back(row.substr(key + 1, key_end - key - 1), v);
    key = value_end;
  }
  return out;
}

std::string field(const Fields& row, const std::string& key) {
  for (const auto& [k, v] : row)
    if (k == key) return v;
  return {};
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
    const Fields golden = fields(row);
    mykil::workload::ChaosOptions opt;
    opt.seed = std::stoull(field(golden, "seed"));
    opt.dynamic_areas = field(golden, "dynamic_areas") == "true";
    opt.workers = static_cast<unsigned>(std::stoul(field(golden, "workers")));
    opt.reliable_control = field(golden, "arq") == "true";
    mykil::workload::ChaosReport rep = mykil::workload::run_chaos(opt);
    const Fields now = fields(mykil::workload::chaos_row(opt, rep));

    const bool ok = now == golden;
    std::printf("chaos seed %llu%s: digest %s (golden %s), %s%s\n",
                static_cast<unsigned long long>(opt.seed),
                opt.dynamic_areas ? " area-split" : "",
                field(now, "digest").c_str(), field(golden, "digest").c_str(),
                rep.converged() ? "converged" : "FAILED",
                ok ? "" : "  MISMATCH");
    if (ok) continue;
    ++failures;
    for (const auto& [key, value] : now)
      if (field(golden, key) != value)
        std::printf("    %s: golden %s, now %s\n", key.c_str(),
                    field(golden, key).c_str(), value.c_str());
  }
  if (rows == 0) {
    std::printf("chaos_golden: no rows in %s\n", argv[1]);
    return 1;
  }
  std::printf("%d/%d rows reproduced\n", rows - failures, rows);
  return failures == 0 ? 0 : 1;
}
