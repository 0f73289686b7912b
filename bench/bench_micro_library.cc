// Library micro-benchmarks: the hand-timed "quick suite"
// (bench_quick_suite.h) covering the event loop, timer wheel, cache and
// Name hot paths.  It runs in a bounded time and can emit a
// machine-readable report via --json <path>.  perfbench/ measures the
// remaining layers (wire codec, zone lookup, warm and cold resolution).

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "bench_quick_suite.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  bench::BenchArgs args;
  args.scale = 0.5;  // full quick-suite default: ~a few seconds
  const char* program = argv[0];
  for (int i = 1; i < argc;) {
    const int consumed = args.consume(program, argc, argv, i);
    if (consumed == 0) {
      bench::BenchArgs::usage_error(
          program, std::string("unknown flag \"") + argv[i] + "\"");
    }
    i += consumed;
  }
  if (args.scale <= 0.0) {
    args.scale = 0.5;
  }

  auto suite_start = std::chrono::steady_clock::now();
  auto metrics = bench::run_quick_suite(args.scale);
  double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    suite_start)
          .count();
  std::printf("quick suite (scale %g):\n", args.scale);
  for (const auto& m : metrics) {
    std::printf("  %-22s %14.0f %-12s (%llu ops, %.3f s)\n", m.name.c_str(),
                m.ops_per_sec, m.unit.c_str(),
                static_cast<unsigned long long>(m.ops), m.wall_seconds);
  }
  if (!args.json_path.empty()) {
    bench::JsonReport report("micro_library", args);
    for (const auto& m : metrics) {
      report.add_metric(m.name, m.unit, m.ops, m.wall_seconds);
    }
    if (!report.write(args.json_path, total_wall)) {
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}
