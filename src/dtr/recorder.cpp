#include "dtr/recorder.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/strings.hpp"

namespace recup::dtr {
namespace fs = std::filesystem;
namespace {

std::string num(double v) { return format_double(v, 9); }

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << text;
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

void write_run_dir(const RunData& run, const std::string& dir) {
  fs::create_directories(dir);
  const fs::path base(dir);

  json::Object meta;
  meta["workflow"] = run.meta.workflow;
  meta["seed"] = run.meta.seed;
  meta["run_index"] = static_cast<std::int64_t>(run.meta.run_index);
  meta["wall_start"] = run.meta.wall_start;
  meta["wall_end"] = run.meta.wall_end;
  meta["coordination_time"] = run.coordination_time;
  meta["graph_count"] = run.graph_count;
  meta["job"] = run.job.to_json();
  write_text(base / "meta.json", json::Value(std::move(meta)).dump(2));
  write_text(base / "environment.json", run.environment.dump(2));

  {
    std::ostringstream out;
    out << "key,graph,prefix,worker,worker_address,thread_id,lane,"
           "received_time,ready_time,start_time,end_time,compute_time,"
           "io_time,gpu_time,output_bytes,bytes_read,bytes_written,retries,"
           "stolen,dependencies,bytes_oob,bytes_inline\n";
    for (const auto& t : run.tasks) {
      std::string deps;
      for (const auto& dep : t.dependencies) {
        if (!deps.empty()) deps += '|';
        deps += dep.group + ":" + std::to_string(dep.index);
      }
      out << csv_row({t.key.to_string(), t.graph, t.prefix,
                      std::to_string(t.worker), t.worker_address,
                      std::to_string(t.thread_id), std::to_string(t.lane),
                      num(t.received_time), num(t.ready_time),
                      num(t.start_time), num(t.end_time), num(t.compute_time),
                      num(t.io_time), num(t.gpu_time),
                      std::to_string(t.output_bytes),
                      std::to_string(t.bytes_read),
                      std::to_string(t.bytes_written),
                      std::to_string(t.retries), t.stolen ? "1" : "0", deps,
                      std::to_string(t.bytes_oob),
                      std::to_string(t.bytes_inline)})
          << "\n";
    }
    write_text(base / "tasks.csv", out.str());
  }

  {
    std::ostringstream out;
    out << "key,graph,from,to,stimulus,location,time\n";
    for (const auto& t : run.transitions) {
      out << csv_row({t.key.to_string(), t.graph, t.from_state, t.to_state,
                      t.stimulus, t.location, num(t.time)})
          << "\n";
    }
    write_text(base / "transitions.csv", out.str());
  }

  {
    std::ostringstream out;
    out << "key,source,destination,source_address,destination_address,bytes,"
           "start,end,cross_node,cold_connection,oob\n";
    for (const auto& c : run.comms) {
      out << csv_row({c.key.to_string(), std::to_string(c.source),
                      std::to_string(c.destination), c.source_address,
                      c.destination_address, std::to_string(c.bytes),
                      num(c.start), num(c.end), c.cross_node ? "1" : "0",
                      c.cold_connection ? "1" : "0", c.oob ? "1" : "0"})
          << "\n";
    }
    write_text(base / "comms.csv", out.str());
  }

  {
    std::ostringstream out;
    out << "kind,location,time,blocked_for,message\n";
    for (const auto& w : run.warnings) {
      out << csv_row({w.kind, w.location, num(w.time), num(w.blocked_for),
                      w.message})
          << "\n";
    }
    write_text(base / "warnings.csv", out.str());
  }

  {
    std::ostringstream out;
    out << "key,victim,thief,time,estimated_transfer_cost,"
           "estimated_compute_cost\n";
    for (const auto& s : run.steals) {
      out << csv_row({s.key.to_string(), std::to_string(s.victim),
                      std::to_string(s.thief), num(s.time),
                      num(s.estimated_transfer_cost),
                      num(s.estimated_compute_cost)})
          << "\n";
    }
    write_text(base / "steals.csv", out.str());
  }

  {
    std::ostringstream out;
    out << "time,level,component,message\n";
    for (const auto& l : run.logs) {
      out << csv_row({num(l.time), log_level_name(l.level), l.component,
                      l.message})
          << "\n";
    }
    write_text(base / "logs.csv", out.str());
  }

  {
    std::ostringstream out;
    out << "node,device,kernel,thread_id,queued,start,end\n";
    for (const auto& k : run.kernels) {
      out << csv_row({std::to_string(k.node), std::to_string(k.device),
                      k.kernel_name, std::to_string(k.thread_id),
                      num(k.queued), num(k.start), num(k.end)})
          << "\n";
    }
    write_text(base / "kernels.csv", out.str());
  }

  for (std::size_t i = 0; i < run.darshan_logs.size(); ++i) {
    darshan::write_log(
        (base / ("worker-" + std::to_string(i) + ".rdshan")).string(),
        run.darshan_logs[i]);
  }
}

namespace {

TaskKey key_from_string(const std::string& text) {
  // Formats: "group" or "('group', index)".
  if (text.size() > 4 && text.front() == '(') {
    const std::size_t quote_end = text.rfind('\'');
    const std::size_t comma = text.rfind(", ");
    if (quote_end == std::string::npos || comma == std::string::npos) {
      throw std::invalid_argument("bad task key: " + text);
    }
    TaskKey key;
    key.group = text.substr(2, quote_end - 2);
    key.index = std::stoll(text.substr(comma + 2,
                                       text.size() - comma - 3));
    return key;
  }
  return TaskKey{text, -1};
}

}  // namespace

RunData read_run_dir(const std::string& dir) {
  const fs::path base(dir);
  RunData run;

  const json::Value meta = json::parse(read_text(base / "meta.json"));
  run.meta.workflow = meta.get_string("workflow", "");
  run.meta.seed = static_cast<std::uint64_t>(meta.get_int("seed", 0));
  run.meta.run_index =
      static_cast<std::uint32_t>(meta.get_int("run_index", 0));
  run.meta.wall_start = meta.get_double("wall_start", 0.0);
  run.meta.wall_end = meta.get_double("wall_end", 0.0);
  run.coordination_time = meta.get_double("coordination_time", 0.0);
  run.graph_count =
      static_cast<std::size_t>(meta.get_int("graph_count", 0));
  if (meta.contains("job")) {
    const auto& job = meta.at("job");
    run.job.job_id = job.get_string("job_id", run.job.job_id);
    run.job.nodes = static_cast<std::size_t>(
        job.get_int("nodes", static_cast<std::int64_t>(run.job.nodes)));
    run.job.workers_per_node = static_cast<std::size_t>(job.get_int(
        "workers_per_node",
        static_cast<std::int64_t>(run.job.workers_per_node)));
    run.job.threads_per_worker = static_cast<std::size_t>(job.get_int(
        "threads_per_worker",
        static_cast<std::int64_t>(run.job.threads_per_worker)));
  }
  run.environment = json::parse(read_text(base / "environment.json"));

  const auto load_rows = [&](const char* name) {
    auto rows = csv_parse(read_text(base / name));
    if (!rows.empty()) rows.erase(rows.begin());  // header
    return rows;
  };

  for (const auto& r : load_rows("tasks.csv")) {
    TaskRecord t;
    t.key = key_from_string(r.at(0));
    t.graph = r.at(1);
    t.prefix = r.at(2);
    t.worker = static_cast<WorkerId>(std::stoul(r.at(3)));
    t.worker_address = r.at(4);
    t.thread_id = std::stoull(r.at(5));
    t.lane = static_cast<std::uint32_t>(std::stoul(r.at(6)));
    t.received_time = std::stod(r.at(7));
    t.ready_time = std::stod(r.at(8));
    t.start_time = std::stod(r.at(9));
    t.end_time = std::stod(r.at(10));
    t.compute_time = std::stod(r.at(11));
    t.io_time = std::stod(r.at(12));
    t.gpu_time = std::stod(r.at(13));
    t.output_bytes = std::stoull(r.at(14));
    t.bytes_read = std::stoull(r.at(15));
    t.bytes_written = std::stoull(r.at(16));
    t.retries = static_cast<std::uint32_t>(std::stoul(r.at(17)));
    t.stolen = r.at(18) == "1";
    if (r.size() > 19 && !r.at(19).empty()) {
      for (const auto& token : split(r.at(19), '|')) {
        const std::size_t colon = token.rfind(':');
        if (colon == std::string::npos) continue;
        TaskKey dep;
        dep.group = token.substr(0, colon);
        dep.index = std::stoll(token.substr(colon + 1));
        t.dependencies.push_back(std::move(dep));
      }
    }
    // Appended after `dependencies`; absent in pre-datastore exports.
    if (r.size() > 20) t.bytes_oob = std::stoull(r.at(20));
    if (r.size() > 21) t.bytes_inline = std::stoull(r.at(21));
    run.tasks.push_back(std::move(t));
  }

  for (const auto& r : load_rows("transitions.csv")) {
    TransitionRecord t;
    t.key = key_from_string(r.at(0));
    t.graph = r.at(1);
    t.from_state = r.at(2);
    t.to_state = r.at(3);
    t.stimulus = r.at(4);
    t.location = r.at(5);
    t.time = std::stod(r.at(6));
    run.transitions.push_back(std::move(t));
  }

  for (const auto& r : load_rows("comms.csv")) {
    CommRecord c;
    c.key = key_from_string(r.at(0));
    c.source = static_cast<WorkerId>(std::stoul(r.at(1)));
    c.destination = static_cast<WorkerId>(std::stoul(r.at(2)));
    c.source_address = r.at(3);
    c.destination_address = r.at(4);
    c.bytes = std::stoull(r.at(5));
    c.start = std::stod(r.at(6));
    c.end = std::stod(r.at(7));
    c.cross_node = r.at(8) == "1";
    c.cold_connection = r.at(9) == "1";
    if (r.size() > 10) c.oob = r.at(10) == "1";
    run.comms.push_back(std::move(c));
  }

  for (const auto& r : load_rows("warnings.csv")) {
    WarningRecord w;
    w.kind = r.at(0);
    w.location = r.at(1);
    w.time = std::stod(r.at(2));
    w.blocked_for = std::stod(r.at(3));
    w.message = r.at(4);
    run.warnings.push_back(std::move(w));
  }

  for (const auto& r : load_rows("steals.csv")) {
    StealRecord s;
    s.key = key_from_string(r.at(0));
    s.victim = static_cast<WorkerId>(std::stoul(r.at(1)));
    s.thief = static_cast<WorkerId>(std::stoul(r.at(2)));
    s.time = std::stod(r.at(3));
    s.estimated_transfer_cost = std::stod(r.at(4));
    s.estimated_compute_cost = std::stod(r.at(5));
    run.steals.push_back(std::move(s));
  }

  for (const auto& r : load_rows("logs.csv")) {
    LogRecord l;
    l.time = std::stod(r.at(0));
    const std::string& level = r.at(1);
    l.level = level == "DEBUG"     ? LogLevel::kDebug
              : level == "WARNING" ? LogLevel::kWarning
              : level == "ERROR"   ? LogLevel::kError
                                   : LogLevel::kInfo;
    l.component = r.at(2);
    l.message = r.at(3);
    run.logs.push_back(std::move(l));
  }

  if (fs::exists(base / "kernels.csv")) {
    for (const auto& r : load_rows("kernels.csv")) {
      gpuprof::KernelRecord k;
      k.node = static_cast<platform::NodeId>(std::stoul(r.at(0)));
      k.device = static_cast<gpuprof::DeviceIndex>(std::stoul(r.at(1)));
      k.kernel_name = r.at(2);
      k.thread_id = std::stoull(r.at(3));
      k.queued = std::stod(r.at(4));
      k.start = std::stod(r.at(5));
      k.end = std::stod(r.at(6));
      run.kernels.push_back(std::move(k));
    }
  }

  for (const auto& entry : fs::directory_iterator(base)) {
    if (entry.path().extension() == ".rdshan") {
      run.darshan_logs.push_back(darshan::read_log(entry.path().string()));
    }
  }
  return run;
}

}  // namespace recup::dtr
