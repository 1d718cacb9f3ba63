// perfbench: the genlink repository benchmark. run.py builds and
// invokes it:
//
//   perfbench --workload {learn,serve,live} --seed N --seconds S
//             --trace {0,1} --rule perfbench/rule.gla --work-dir DIR
//
// The last line of standard output is the run's JSON result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--rule") {
      args.rule_path = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Require(false, "unknown flag " + flag);
    }
  }
  Require(argc % 2 == 1, "flags come in --name value pairs");
  Require(args.seconds >= 1, "--seconds must be >= 1");
  Require(!args.rule_path.empty() && !args.work_dir.empty(),
          "--rule and --work-dir are required");
  if (args.trace) EnableTracing();

  std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  Report report;
  if (args.workload == "learn") {
    RunLearn(args, report);
  } else if (args.workload == "serve") {
    RunServe(args, report);
  } else if (args.workload == "live") {
    RunLive(args, report);
  } else {
    Require(false, "unknown workload " + args.workload);
  }
  if (args.trace) WriteSpans(args.work_dir + "/spans.jsonl");
  report.Print(args);
  return 0;
}
