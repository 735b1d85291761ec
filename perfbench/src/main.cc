// perfbench: the repository's benchmark program.  One process runs one
// workload once and prints a JSON report as its last line of output; see
// ../README.md for the workloads, metrics and checks.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--source-id ID]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "engine_insert|engine_lookup --seed N "
               "--seconds S --trace 0|1 [--threads T] [--source-id ID]\n",
               msg);
  return 2;
}

bool ParseInt(const std::string& s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end == nullptr || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start_ns = perfbench::NowNs();
  perfbench::Args args;
  long long v = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &v)) return Usage("bad --seed");
      args.seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 600, &v)) return Usage("bad --seconds");
      args.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &v)) return Usage("bad --trace");
      args.trace = v == 1;
    } else if (flag == "--threads") {
      if (!ParseInt(value, 1, 1024, &v)) return Usage("bad --threads");
      args.threads = static_cast<int>(v);
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  // The load generator never runs more client threads than the host has
  // cores: beyond that it measures the run queue, not the program.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores <= 0) return Usage("cannot determine the core count");
  // By default every core but one runs a client, at most 4: the clients are
  // busy on a core all the time, and the core left free takes the OS and
  // the rest of the host.  With a client on every core of a 4-vCPU host,
  // one competing busy process moved latency_p99_us by 45% (engine_insert)
  // and 100% (engine_lookup), against 10% and 2% with one core left free,
  // at the same or a higher throughput.
  if (args.threads == 0) args.threads = std::clamp(cores - 1, 1, 4);
  if (args.threads > cores) {
    std::fprintf(stderr, "perfbench: refusing %d client threads on %d cores\n", args.threads,
                 cores);
    return 2;
  }

  std::unique_ptr<perfbench::Workload> w;
  if (args.workload == "engine_insert") {
    w = perfbench::MakeEngineInsert();
  } else if (args.workload == "engine_lookup") {
    w = perfbench::MakeEngineLookup();
  } else {
    return Usage("unknown --workload");
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%d trace=%d threads=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.threads);
  std::printf("host: cores=%d build=%s source=%s\n", cores, PERFBENCH_BUILD_TYPE,
              args.source_id.empty() ? "unknown" : args.source_id.c_str());
  std::fflush(stdout);
  return perfbench::RunBenchmark(args, w.get(), process_start_ns);
}
