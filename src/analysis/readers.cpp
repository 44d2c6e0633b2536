#include "analysis/readers.hpp"

#include <type_traits>

#include "dtr/schema.hpp"
#include "mofka/consumer.hpp"

namespace recup::analysis {

// The big frames (tasks, transitions, dxt segments) are on the cold-query
// path: the first query per view pays materialization. They build
// column-major with typed pushes — no per-row Cell vector, no variant
// dispatch — which is several times faster than add_row.
DataFrame tasks_frame(const dtr::RunData& run) {
  const std::size_t n = run.tasks.size();
  Column key("key", ColumnType::kString);
  Column graph("graph", ColumnType::kString);
  Column prefix("prefix", ColumnType::kString);
  Column worker("worker", ColumnType::kInt64);
  Column worker_address("worker_address", ColumnType::kString);
  Column thread_id("thread_id", ColumnType::kInt64);
  Column lane("lane", ColumnType::kInt64);
  Column received_time("received_time", ColumnType::kDouble);
  Column ready_time("ready_time", ColumnType::kDouble);
  Column start_time("start_time", ColumnType::kDouble);
  Column end_time("end_time", ColumnType::kDouble);
  Column duration("duration", ColumnType::kDouble);
  Column compute_time("compute_time", ColumnType::kDouble);
  Column io_time("io_time", ColumnType::kDouble);
  Column output_bytes("output_bytes", ColumnType::kInt64);
  Column output_mb("output_mb", ColumnType::kDouble);
  Column bytes_read("bytes_read", ColumnType::kInt64);
  Column bytes_written("bytes_written", ColumnType::kInt64);
  Column retries("retries", ColumnType::kInt64);
  Column stolen("stolen", ColumnType::kInt64);
  Column n_dependencies("n_dependencies", ColumnType::kInt64);
  Column bytes_oob("bytes_oob", ColumnType::kInt64);
  Column bytes_inline("bytes_inline", ColumnType::kInt64);
  for (Column* c : {&key, &graph, &prefix, &worker, &worker_address,
                    &thread_id, &lane, &received_time, &ready_time,
                    &start_time, &end_time, &duration, &compute_time,
                    &io_time, &output_bytes, &output_mb, &bytes_read,
                    &bytes_written, &retries, &stolen, &n_dependencies,
                    &bytes_oob, &bytes_inline}) {
    c->reserve(n);
  }
  for (const auto& t : run.tasks) {
    key.push_str(t.key.to_string());
    graph.push_str(t.graph);
    prefix.push_str(t.prefix);
    worker.push_i64(static_cast<std::int64_t>(t.worker));
    worker_address.push_str(t.worker_address);
    thread_id.push_i64(static_cast<std::int64_t>(t.thread_id));
    lane.push_i64(static_cast<std::int64_t>(t.lane));
    received_time.push_f64(t.received_time);
    ready_time.push_f64(t.ready_time);
    start_time.push_f64(t.start_time);
    end_time.push_f64(t.end_time);
    duration.push_f64(t.end_time - t.start_time);
    compute_time.push_f64(t.compute_time);
    io_time.push_f64(t.io_time);
    output_bytes.push_i64(static_cast<std::int64_t>(t.output_bytes));
    output_mb.push_f64(static_cast<double>(t.output_bytes) /
                       (1024.0 * 1024.0));
    bytes_read.push_i64(static_cast<std::int64_t>(t.bytes_read));
    bytes_written.push_i64(static_cast<std::int64_t>(t.bytes_written));
    retries.push_i64(static_cast<std::int64_t>(t.retries));
    stolen.push_i64(t.stolen ? 1 : 0);
    n_dependencies.push_i64(static_cast<std::int64_t>(t.dependencies.size()));
    bytes_oob.push_i64(static_cast<std::int64_t>(t.bytes_oob));
    bytes_inline.push_i64(static_cast<std::int64_t>(t.bytes_inline));
  }
  return DataFrame::from_columns(
      {std::move(key), std::move(graph), std::move(prefix), std::move(worker),
       std::move(worker_address), std::move(thread_id), std::move(lane),
       std::move(received_time), std::move(ready_time), std::move(start_time),
       std::move(end_time), std::move(duration), std::move(compute_time),
       std::move(io_time), std::move(output_bytes), std::move(output_mb),
       std::move(bytes_read), std::move(bytes_written), std::move(retries),
       std::move(stolen), std::move(n_dependencies), std::move(bytes_oob),
       std::move(bytes_inline)});
}

DataFrame transitions_frame(const dtr::RunData& run) {
  const std::size_t n = run.transitions.size();
  Column key("key", ColumnType::kString);
  Column graph("graph", ColumnType::kString);
  Column from("from", ColumnType::kString);
  Column to("to", ColumnType::kString);
  Column stimulus("stimulus", ColumnType::kString);
  Column location("location", ColumnType::kString);
  Column time("time", ColumnType::kDouble);
  for (Column* c :
       {&key, &graph, &from, &to, &stimulus, &location, &time}) {
    c->reserve(n);
  }
  for (const auto& t : run.transitions) {
    key.push_str(t.key.to_string());
    graph.push_str(t.graph);
    from.push_str(t.from_state);
    to.push_str(t.to_state);
    stimulus.push_str(t.stimulus);
    location.push_str(t.location);
    time.push_f64(t.time);
  }
  return DataFrame::from_columns(
      {std::move(key), std::move(graph), std::move(from), std::move(to),
       std::move(stimulus), std::move(location), std::move(time)});
}

DataFrame comms_frame(const dtr::RunData& run) {
  const std::size_t n = run.comms.size();
  Column key("key", ColumnType::kString);
  Column source("source", ColumnType::kInt64);
  Column destination("destination", ColumnType::kInt64);
  Column bytes("bytes", ColumnType::kInt64);
  Column start("start", ColumnType::kDouble);
  Column end("end", ColumnType::kDouble);
  Column duration("duration", ColumnType::kDouble);
  Column cross_node("cross_node", ColumnType::kInt64);
  Column cold_connection("cold_connection", ColumnType::kInt64);
  Column oob("oob", ColumnType::kInt64);
  for (Column* c : {&key, &source, &destination, &bytes, &start, &end,
                    &duration, &cross_node, &cold_connection, &oob}) {
    c->reserve(n);
  }
  for (const auto& c : run.comms) {
    key.push_str(c.key.to_string());
    source.push_i64(static_cast<std::int64_t>(c.source));
    destination.push_i64(static_cast<std::int64_t>(c.destination));
    bytes.push_i64(static_cast<std::int64_t>(c.bytes));
    start.push_f64(c.start);
    end.push_f64(c.end);
    duration.push_f64(c.duration());
    cross_node.push_i64(c.cross_node ? 1 : 0);
    cold_connection.push_i64(c.cold_connection ? 1 : 0);
    oob.push_i64(c.oob ? 1 : 0);
  }
  return DataFrame::from_columns(
      {std::move(key), std::move(source), std::move(destination),
       std::move(bytes), std::move(start), std::move(end),
       std::move(duration), std::move(cross_node),
       std::move(cold_connection), std::move(oob)});
}

DataFrame warnings_frame(const dtr::RunData& run) {
  DataFrame df({{"kind", ColumnType::kString},
                {"location", ColumnType::kString},
                {"time", ColumnType::kDouble},
                {"blocked_for", ColumnType::kDouble},
                {"message", ColumnType::kString}});
  df.reserve(run.warnings.size());
  for (const auto& w : run.warnings) {
    df.add_row({w.kind, w.location, w.time, w.blocked_for, w.message});
  }
  return df;
}

DataFrame steals_frame(const dtr::RunData& run) {
  DataFrame df({{"key", ColumnType::kString},
                {"victim", ColumnType::kInt64},
                {"thief", ColumnType::kInt64},
                {"time", ColumnType::kDouble},
                {"est_transfer", ColumnType::kDouble},
                {"est_compute", ColumnType::kDouble}});
  df.reserve(run.steals.size());
  for (const auto& s : run.steals) {
    df.add_row({s.key.to_string(), static_cast<std::int64_t>(s.victim),
                static_cast<std::int64_t>(s.thief), s.time,
                s.estimated_transfer_cost, s.estimated_compute_cost});
  }
  return df;
}

DataFrame dxt_frame(const std::vector<darshan::LogFile>& logs) {
  std::size_t n_segments = 0;
  for (const auto& log : logs) {
    for (const auto& rec : log.dxt) n_segments += rec.segments.size();
  }
  Column hostname("hostname", ColumnType::kString);
  Column process("process", ColumnType::kInt64);
  Column thread_id("thread_id", ColumnType::kInt64);
  Column file("file", ColumnType::kString);
  Column op("op", ColumnType::kString);
  Column offset("offset", ColumnType::kInt64);
  Column length("length", ColumnType::kInt64);
  Column start("start", ColumnType::kDouble);
  Column end("end", ColumnType::kDouble);
  Column duration("duration", ColumnType::kDouble);
  for (Column* c : {&hostname, &process, &thread_id, &file, &op, &offset,
                    &length, &start, &end, &duration}) {
    c->reserve(n_segments);
  }
  for (const auto& log : logs) {
    for (const auto& rec : log.dxt) {
      for (const auto& seg : rec.segments) {
        hostname.push_str(rec.hostname);
        process.push_i64(static_cast<std::int64_t>(rec.process_id));
        thread_id.push_i64(static_cast<std::int64_t>(seg.thread_id));
        file.push_str(rec.file_path);
        op.push_str(seg.op == darshan::IoOp::kRead ? "read" : "write");
        offset.push_i64(static_cast<std::int64_t>(seg.offset));
        length.push_i64(static_cast<std::int64_t>(seg.length));
        start.push_f64(seg.start);
        end.push_f64(seg.end);
        duration.push_f64(seg.end - seg.start);
      }
    }
  }
  return DataFrame::from_columns(
      {std::move(hostname), std::move(process), std::move(thread_id),
       std::move(file), std::move(op), std::move(offset), std::move(length),
       std::move(start), std::move(end), std::move(duration)});
}

DataFrame posix_frame(const std::vector<darshan::LogFile>& logs) {
  DataFrame df({{"hostname", ColumnType::kString},
                {"process", ColumnType::kInt64},
                {"file", ColumnType::kString},
                {"opens", ColumnType::kInt64},
                {"reads", ColumnType::kInt64},
                {"writes", ColumnType::kInt64},
                {"bytes_read", ColumnType::kInt64},
                {"bytes_written", ColumnType::kInt64},
                {"read_time", ColumnType::kDouble},
                {"write_time", ColumnType::kDouble},
                {"meta_time", ColumnType::kDouble}});
  std::size_t n_records = 0;
  for (const auto& log : logs) n_records += log.posix.size();
  df.reserve(n_records);
  for (const auto& log : logs) {
    for (const auto& rec : log.posix) {
      df.add_row({rec.hostname, static_cast<std::int64_t>(rec.process_id),
                  rec.file_path, static_cast<std::int64_t>(rec.opens),
                  static_cast<std::int64_t>(rec.reads),
                  static_cast<std::int64_t>(rec.writes),
                  static_cast<std::int64_t>(rec.bytes_read),
                  static_cast<std::int64_t>(rec.bytes_written), rec.read_time,
                  rec.write_time, rec.meta_time});
    }
  }
  return df;
}

DataFrame kernels_frame(const dtr::RunData& run) {
  DataFrame df({{"node", ColumnType::kInt64},
                {"device", ColumnType::kInt64},
                {"kernel", ColumnType::kString},
                {"thread_id", ColumnType::kInt64},
                {"queued", ColumnType::kDouble},
                {"start", ColumnType::kDouble},
                {"end", ColumnType::kDouble},
                {"duration", ColumnType::kDouble},
                {"queue_delay", ColumnType::kDouble}});
  df.reserve(run.kernels.size());
  for (const auto& k : run.kernels) {
    df.add_row({static_cast<std::int64_t>(k.node),
                static_cast<std::int64_t>(k.device), k.kernel_name,
                static_cast<std::int64_t>(k.thread_id), k.queued, k.start,
                k.end, k.duration(), k.queue_delay()});
  }
  return df;
}

MofkaRunRecords read_wms_topics(mofka::Broker& broker,
                                const std::string& consumer_group) {
  MofkaRunRecords out;
  // Records come straight from each event's stored metadata bytes.
  const auto read = [&](const char* topic, auto& records, const char* kind) {
    using Record = typename std::decay_t<decltype(records)>::value_type;
    mofka::Consumer c(broker, topic, consumer_group);
    while (auto event = c.pull_wire()) {
      if (kind == nullptr || dtr::kind_of(event->metadata) == kind) {
        records.push_back(dtr::from_wire<Record>(event->metadata));
      }
    }
    c.commit();
  };
  read("wms_transitions", out.transitions, nullptr);
  read("wms_tasks", out.tasks, nullptr);
  read("wms_comms", out.comms, nullptr);
  read("wms_warnings", out.warnings, nullptr);
  read("wms_cluster", out.steals, "steal");  // steals share wms_cluster
  return out;
}

}  // namespace recup::analysis
