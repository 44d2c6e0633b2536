// Regenerates Figure 5: time spent in interworker communication vs message
// size for ResNet152, split by intra- vs inter-node. Expected shape (paper
// §IV-D2): several long communications near the beginning of the workflow,
// small in size, "almost evenly split between inter- and intranode" — our
// model attributes these to connection establishment.
#include "analysis/figures.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"

using namespace recup;

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  const workloads::Workload workload =
      workloads::make_workload("ResNet152", opt.seed);
  datastore::DataStoreStats ds;
  std::fprintf(stderr, "  ResNet152 run 1/1 ...\n");
  const dtr::RunData run = workloads::execute(workload, 0, &ds);

  std::cout << analysis::render_figure5(run) << "\n";

  // The "early slow small communications" observation.
  std::vector<double> early_durations;
  std::size_t early_inter = 0;
  std::size_t early_intra = 0;
  std::vector<double> late_durations;
  std::vector<const dtr::CommRecord*> slowest;
  for (const auto& c : run.comms) {
    if (c.start < 20.0) {
      early_durations.push_back(c.duration());
      (c.cross_node ? early_inter : early_intra) += 1;
    } else {
      late_durations.push_back(c.duration());
    }
  }
  if (!early_durations.empty() && !late_durations.empty()) {
    const SampleSummary early = summarize(early_durations);
    const SampleSummary late = summarize(late_durations);
    std::printf(
        "early (<20s) comms: n=%llu median %.4fs p95 %.4fs | later comms: "
        "n=%llu median %.4fs p95 %.4fs\n",
        static_cast<unsigned long long>(early.count), early.median, early.p95,
        static_cast<unsigned long long>(late.count), late.median, late.p95);
    std::printf(
        "early comm node split: %zu inter-node vs %zu intra-node (paper: "
        "\"almost evenly split\")\n",
        early_inter, early_intra);
  }

  std::size_t cold = 0;
  for (const auto& c : run.comms) {
    if (c.cold_connection) ++cold;
  }
  std::printf("%zu of %zu transfers paid connection setup\n", cold,
              run.comms.size());

  // Out-of-band acceptance: rerun with the datastore disabled (the
  // pre-datastore inline path). The figure's view must match byte for byte
  // — proxies change what the scheduler path carries, never the observed
  // timing/placement — while payload bytes on that path shrink >= 5x at the
  // 4 KiB threshold.
  workloads::Workload inline_workload = workload;
  inline_workload.cluster.enable_datastore = false;
  std::fprintf(stderr, "  ResNet152 (inline control) run 1/1 ...\n");
  const dtr::RunData base = workloads::execute(inline_workload, 0);
  if (analysis::figure5_frame(run).to_csv() !=
      analysis::figure5_frame(base).to_csv()) {
    std::fprintf(stderr,
                 "FAIL: figure 5 diverges between oob and inline runs\n");
    return 1;
  }
  const std::uint64_t inline_path = ds.oob_bytes + ds.inline_bytes;
  const std::uint64_t oob_path = ds.inline_bytes + ds.proxy_wire_bytes;
  const double reduction = oob_path == 0 ? 0.0
                                         : static_cast<double>(inline_path) /
                                               static_cast<double>(oob_path);
  std::printf(
      "scheduler-path bytes: %llu inline-path -> %llu with proxies "
      "(%.1fx reduction, views byte-identical)\n",
      static_cast<unsigned long long>(inline_path),
      static_cast<unsigned long long>(oob_path), reduction);
  if (reduction < 5.0) {
    std::fprintf(stderr, "FAIL: scheduler-path reduction %.2fx < 5x\n",
                 reduction);
    return 1;
  }
  bench::add_headline("fig5_sched_bytes_reduction_x", reduction, "x",
                      /*higher_is_better=*/true);

  bench::write_csv(opt, "fig5.csv", analysis::figure5_frame(run).to_csv());
  bench::write_bench_json("fig5");
  return 0;
}
