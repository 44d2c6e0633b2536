// Regenerates Figure 6: the parallel-coordinates view of XGBOOST tasks
// (elapsed time, task category, thread, output size MB, duration). Expected
// shape (paper §IV-D3): the longest tasks belong to the
// read_parquet-fused-assign category, whose output sizes far exceed the
// recommended 128 MB chunk size.
#include "analysis/figures.hpp"
#include "bench_util.hpp"

using namespace recup;

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  const workloads::Workload workload =
      workloads::make_workload("XGBOOST", opt.seed);
  datastore::DataStoreStats ds;
  std::fprintf(stderr, "  XGBOOST run 1/1 ...\n");
  const dtr::RunData run = workloads::execute(workload, 0, &ds);

  std::cout << analysis::render_figure6(run, 12) << "\n";

  const analysis::DataFrame summary = analysis::figure6_category_summary(run);
  const std::string longest = summary.col("category").str(0);
  std::cout << "longest category: " << longest
            << (longest == "read_parquet-fused-assign"
                    ? "  (matches the paper)"
                    : "  (MISMATCH: paper reports read_parquet-fused-assign)")
            << "\n";

  // How many tasks exceed the 128 MB recommendation.
  std::size_t over = 0;
  for (const auto& t : run.tasks) {
    if (t.output_bytes > 128ULL << 20) ++over;
  }
  std::printf("%zu tasks produce outputs above the recommended 128 MB\n",
              over);

  // Out-of-band acceptance (same oracle as bench_fig5, on the XGBOOST
  // view): byte-identical figure with the datastore off, >= 5x fewer
  // scheduler-path payload bytes with it on.
  workloads::Workload inline_workload = workload;
  inline_workload.cluster.enable_datastore = false;
  std::fprintf(stderr, "  XGBOOST (inline control) run 1/1 ...\n");
  const dtr::RunData base = workloads::execute(inline_workload, 0);
  if (analysis::figure6_frame(run).to_csv() !=
      analysis::figure6_frame(base).to_csv()) {
    std::fprintf(stderr,
                 "FAIL: figure 6 diverges between oob and inline runs\n");
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
  bench::add_headline("fig6_sched_bytes_reduction_x", reduction, "x",
                      /*higher_is_better=*/true);

  bench::write_csv(opt, "fig6.csv", analysis::figure6_frame(run).to_csv());
  bench::write_csv(opt, "fig6_categories.csv", summary.to_csv());
  bench::write_bench_json("fig6");
  return 0;
}
