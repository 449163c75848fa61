// xbs_perfbench: the benchmark's driver program (run.py invokes it).
//
//   xbs_perfbench gen --workload W --seed N --dir D [--corrupt]
//       Generate workload W's inputs and its reference outputs from seed N
//       into directory D (--corrupt plants one wrong reference value, for
//       the benchmark's self-test).
//   xbs_perfbench run --workload W --dir D --seconds S --trace 0|1 [--setup-only]
//       Run workload W over the inputs in D and print one JSON report as the
//       last line of standard output.
//
// Workloads: wire_fleet, archive_exact, dse_paper.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "common.hpp"

namespace {

const char* arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool flag(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: xbs_perfbench gen --workload W --seed N --dir D [--corrupt]\n"
               "       xbs_perfbench run --workload W --dir D --seconds S --trace 0|1 "
               "[--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  const std::string workload = arg(argc, argv, "--workload", "");
  const std::string dir = arg(argc, argv, "--dir", "");
  if (dir.empty()) return usage();
  try {
    if (mode == "gen") {
      pb::GenArgs g;
      g.dir = dir;
      g.seed = std::strtoull(arg(argc, argv, "--seed", "1"), nullptr, 10);
      g.corrupt = flag(argc, argv, "--corrupt");
      if (workload == "wire_fleet") {
        pb::gen_wire_fleet(g);
      } else if (workload == "archive_exact") {
        pb::gen_archive_exact(g);
      } else if (workload == "dse_paper") {
        pb::gen_dse_paper(g);
      } else {
        return usage();
      }
      return 0;
    }
    if (mode != "run") return usage();
    pb::RunArgs r;
    r.dir = dir;
    r.seconds = std::strtod(arg(argc, argv, "--seconds", "10"), nullptr);
    r.trace = std::strcmp(arg(argc, argv, "--trace", "0"), "1") == 0;
    r.setup_only = flag(argc, argv, "--setup-only");
    pb::Report rep;
    if (workload == "wire_fleet") {
      pb::run_wire_fleet(r, rep);
    } else if (workload == "archive_exact") {
      pb::run_archive_exact(r, rep);
    } else if (workload == "dse_paper") {
      pb::run_dse_paper(r, rep);
    } else {
      return usage();
    }
    std::printf("%s\n", rep.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbs_perfbench: %s\n", e.what());
    return 1;
  }
}
