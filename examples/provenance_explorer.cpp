// Provenance explorer: runs a workflow, persists the run directory (the
// FAIR tabular export), reloads it, and answers identifier-based provenance
// queries — by thread id, timestamp, and worker — over the query service's
// tasks view, ending with the Figure-8 lineage of a chosen task.
//
//   $ ./provenance_explorer [task-index]
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <vector>

#include "dtr/recorder.hpp"
#include "prov/chart.hpp"
#include "prov/lineage.hpp"
#include "query/catalog.hpp"
#include "query/plan.hpp"
#include "workloads/resnet152.hpp"
#include "workloads/registry.hpp"

using namespace recup;

int main(int argc, char** argv) {
  const std::int64_t task_index = argc > 1 ? std::atoll(argv[1]) : 63;

  // A scaled-down ResNet152 batch-prediction run keeps this example quick.
  workloads::ResNet152Params params;
  params.files = 300;
  const workloads::Workload workload = workloads::make_resnet152(42, params);
  std::cout << "running " << workload.name << " (300 files) ...\n";
  const dtr::RunData run = workloads::execute(workload, 0);

  // Persist and reload the run directory: collection and analysis are
  // separate stages, fused at analysis time (the paper's design choice).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "recup_prov_example")
          .string();
  std::filesystem::remove_all(dir);
  dtr::write_run_dir(run, dir);
  std::cout << "run directory written to " << dir << "\n";
  const dtr::RunData reloaded = dtr::read_run_dir(dir);

  // The reloaded run joins a query-service catalog; each identifier lookup
  // is a filter over its tasks view.
  query::StoreCatalog catalog;
  catalog.add_run(reloaded);
  const auto count_tasks = [&](std::vector<query::Predicate> where) {
    query::Query q;
    q.from = "tasks";
    q.workflow = reloaded.meta.workflow;
    q.run = reloaded.meta.run_index;
    q.where = std::move(where);
    return query::execute_query(q, catalog, nullptr).frame->rows();
  };

  // Layered provenance chart (Figure 1).
  std::cout << "\n--- provenance chart ---\n"
            << prov::render_chart(prov::provenance_chart(reloaded));

  // Identifier-based queries (the shared FAIR identifiers of Section V).
  const auto& sample = reloaded.tasks.front();
  const double at = sample.start_time + 0.001;
  std::cout << "\ntasks on thread " << sample.thread_id << ": "
            << count_tasks({{"thread_id", query::CmpOp::kEq,
                             static_cast<std::int64_t>(sample.thread_id)}})
            << "\n";
  std::cout << "tasks executing at t=" << at << "s: "
            << count_tasks({{"start_time", query::CmpOp::kLe, at},
                            {"end_time", query::CmpOp::kGt, at}})
            << "\n";
  std::cout << "tasks on worker " << sample.worker_address << ": "
            << count_tasks({{"worker_address", query::CmpOp::kEq,
                             sample.worker_address}})
            << "\n";

  // Figure 8: full lineage of one task.
  dtr::TaskKey key;
  for (const auto& t : reloaded.tasks) {
    if (t.prefix == "transform" && t.key.index == task_index) {
      key = t.key;
      break;
    }
  }
  if (key.group.empty()) key = reloaded.tasks.front().key;
  const auto lineage = prov::task_lineage(reloaded, key);
  if (lineage) {
    std::cout << "\n--- task lineage (" << key.to_string() << ") ---\n"
              << prov::render_lineage(*lineage);
  }
  std::filesystem::remove_all(dir);
  return 0;
}
