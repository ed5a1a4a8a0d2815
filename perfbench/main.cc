// perfbench: the measured process of the layered benchmark.
//
//   perfbench pack --seed S --out PATH [--tiny]
//       generates cold_read's graph from the seed and packs it into an
//       .rcsr image (input preparation, outside any measurement)
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 [--tiny] [--rcsr PATH] [--out-dir DIR]
//       runs one workload and prints its result document as the last line
//       of standard output
//
// perfbench/run.py drives this binary; see perfbench/GLOSSARY.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench pack --seed S --out PATH [--tiny]\n"
               "       perfbench run --workload W --seed S --seconds T "
               "--trace 0|1 [--tiny] [--rcsr PATH] [--out-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  perfbench::Args args;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::stoull(value());
    else if (a == "--seconds") args.seconds = std::stod(value());
    else if (a == "--trace") args.trace = value() == "1";
    else if (a == "--tiny") args.tiny = true;
    else if (a == "--rcsr") args.rcsr = value();
    else if (a == "--out-dir") args.out_dir = value();
    else if (a == "--out") out = value();
    else usage();
  }
  try {
    if (mode == "pack") {
      if (out.empty()) usage();
      return perfbench::pack_cold_read(args.seed, args.tiny, out) ? 0 : 1;
    }
    if (mode != "run" || !(args.seconds > 0)) usage();
    perfbench::Result r;
    if (args.workload == "hot_read") r = perfbench::run_hot_read(args);
    else if (args.workload == "cold_read") r = perfbench::run_cold_read(args);
    else if (args.workload == "churn") r = perfbench::run_churn(args);
    else if (args.workload == "rp_offline") r = perfbench::run_rp_offline(args);
    else usage();
    r.put("error_rate",
          r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0,
          "fraction");
    std::cout << r.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
