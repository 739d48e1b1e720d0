#include "layers.h"

#include <malloc.h>

#include <algorithm>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }
double Us(int64_t nanos) { return static_cast<double>(nanos) / 1e3; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void ErrorCount::Add(const RepResult& r) {
  errors += r.errors();
  attempted += r.expected_rows + r.calls_attempted;
}

double ThroughputMtuples(const std::vector<RepResult>& reps) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    v.push_back(static_cast<double>(r.input_tuples) / r.seconds() / 1e6);
  }
  return Percentile(std::move(v), 0.75);
}

double GpuByteShare(const RepResult& r) {
  return Ratio(static_cast<double>(r.bytes_gpu),
               static_cast<double>(r.bytes_cpu + r.bytes_gpu));
}

namespace {

/// A "Vm...:" line of /proc/self/status, MiB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream in(line.substr(field.size()));
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double ResetPeakRss() {
  malloc_trim(0);  // memory the harness freed leaves the baseline
  std::ofstream("/proc/self/clear_refs") << "5";  // VmHWM := VmRSS
  return StatusMb("VmRSS:");
}

double PeakRssMb(double baseline_mb) {
  return StatusMb("VmHWM:") - baseline_mb;
}

std::vector<Metric> EndToEndMetrics(const std::vector<RepResult>& saturated,
                                    const std::vector<RepResult>& paced,
                                    const std::vector<double>& gen_s) {
  std::vector<double> p50, p99;
  std::vector<double> setup, peak_rss;
  for (const RepResult& r : paced) {
    p50.push_back(r.latency_p50_ms);
    p99.push_back(r.latency_p99_ms);
  }
  for (const auto* phase : {&saturated, &paced}) {
    for (const RepResult& r : *phase) setup.push_back(r.setup_s);
  }
  for (const RepResult& r : saturated) peak_rss.push_back(r.peak_rss_mb);
  return {
      {"throughput_mtuples_s", ThroughputMtuples(saturated), "Mtuples/s"},
      {"latency_p50_ms", Percentile(p50, 0.25), "ms"},
      {"latency_p99_ms", Percentile(p99, 0.25), "ms"},
      {"setup_s", Median(gen_s) + Median(setup), "s"},
      {"peak_rss_mb", Median(peak_rss), "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const Workload& w,
                                 const std::vector<RepResult>& traced,
                                 const std::vector<RepResult>& paced,
                                 double untraced_mtuples, double ceiling_mtuples,
                                 const ErrorCount& errors,
                                 std::string* bound_by) {
  // gen: how far the open-loop generator fell behind its schedule.
  std::vector<double> lag_ms, due_s;
  int64_t paced_in_calls = 0, paced_thread = 0, samples = 0;
  for (const RepResult& r : paced) {
    samples += r.latency_samples;
    for (const CallLog& c : r.calls) {
      paced_thread += c.thread_end_nanos - c.thread_begin_nanos;
      for (size_t i = 0; i < c.start_nanos.size(); ++i) {
        lag_ms.push_back(Ms(c.start_nanos[i] - (r.start_nanos + c.due_nanos[i])));
        due_s.push_back(static_cast<double>(c.due_nanos[i]) / 1e9);
        paced_in_calls += c.dur_nanos[i];
      }
    }
  }

  // Traced saturated repetitions: harness spans around the entry calls,
  // the engine's six-stage task spans, and the program's counters.
  std::vector<double> call_us, dispatch_us, queue_us, assembly_us, sink_us;
  std::vector<double> exec_us[2];
  int64_t exec_nanos[2] = {0, 0}, exec_bytes[2] = {0, 0};
  int64_t entry_nanos = 0, gen_nanos = 0, core_nanos = 0, calls = 0;
  int64_t sub_batches = 0, sub_bytes = 0, sub_wait = 0, timed = 0;
  int64_t frames = 0, net_failures = 0;
  int64_t merged = 0, cycles = 0, bp_waits = 0, stalls = 0, late = 0;
  int64_t tasks[2] = {0, 0}, bytes[2] = {0, 0}, retries = 0;
  int64_t depth_sum = 0, depth_samples = 0;
  for (const RepResult& r : traced) {
    for (const CallLog& c : r.calls) {
      int64_t in_calls = 0;
      for (int64_t d : c.dur_nanos) {
        call_us.push_back(Us(d));
        in_calls += d;
      }
      calls += static_cast<int64_t>(c.dur_nanos.size());
      entry_nanos += in_calls;
      gen_nanos += (c.thread_end_nanos - c.thread_begin_nanos) - in_calls;
    }
    for (const saber::obs::TaskSpan& s : r.spans) {
      const int b = s.backend == 1 ? 1 : 0;
      const int64_t dispatch = s.queued_nanos - s.insert_nanos;
      const int64_t queue = s.select_nanos - s.queued_nanos;
      const int64_t exec = s.exec_end_nanos - s.select_nanos;
      const int64_t assembly = s.sink_begin_nanos - s.exec_end_nanos;
      const int64_t sink = s.done_nanos - s.sink_begin_nanos;
      dispatch_us.push_back(Us(dispatch));
      queue_us.push_back(Us(queue));
      assembly_us.push_back(Us(assembly));
      sink_us.push_back(Us(sink));
      exec_us[b].push_back(Us(exec));
      exec_nanos[b] += exec;
      exec_bytes[b] += s.bytes;
      core_nanos += dispatch + sink;
    }
    sub_batches += r.subscriber_batches;
    sub_bytes += r.subscriber_bytes;
    sub_wait += r.subscriber_wait_nanos;
    timed += r.last_row_nanos - r.start_nanos;
    frames += r.tuple_frames;
    net_failures += r.net_failures;
    merged += r.merged_batches;
    cycles += r.merge_cycles;
    bp_waits += r.backpressure_waits;
    stalls += r.watermark_stalls;
    late += r.late_dropped;
    tasks[0] += r.tasks_cpu;
    tasks[1] += r.tasks_gpu;
    bytes[0] += r.bytes_cpu;
    bytes[1] += r.bytes_gpu;
    retries += r.gpu_task_retries;
    depth_sum += r.queue_depth_sum;
    depth_samples += r.queue_depth_samples;
  }
  const bool net = w.entry_layer() == EntryLayer::kNet;
  const double all_tasks = static_cast<double>(tasks[0] + tasks[1]);
  const double all_bytes = static_cast<double>(bytes[0] + bytes[1]);

  // Self (busy) time per layer, in thread-nanoseconds over the traced
  // phase. An entry call's span belongs to the layer it calls into (its
  // children run on threads the harness cannot see); a task's dispatch and
  // sink stages belong to core, its execution to cpu or gpu. Queue and
  // assembly waits are time work waited, not any layer's self time; they
  // are reported as core.*_wait metrics.
  const std::vector<std::pair<std::string, int64_t>> self = {
      {"gen", gen_nanos},
      {"net", net ? entry_nanos : 0},
      {"core", core_nanos + (net ? 0 : entry_nanos)},
      {"cpu", exec_nanos[0]},
      {"gpu", exec_nanos[1]},
  };
  int64_t self_total = 0;
  for (const auto& [layer, nanos] : self) self_total += nanos;
  *bound_by = "none";
  int64_t most = 0;
  for (const auto& [layer, nanos] : self) {
    if (nanos > most) {
      most = nanos;
      *bound_by = layer;
    }
  }

  const double traced_mtuples = ThroughputMtuples(traced);
  std::vector<Metric> m = {
      {"gen.lag_p99_ms", Percentile(lag_ms, 0.99), "ms"},
      {"gen.entry_blocked_share",
       Ratio(static_cast<double>(paced_in_calls), static_cast<double>(paced_thread)),
       "ratio"},
      {"gen.backlog_slope", Slope(due_s, lag_ms), "ms/s"},
      {"gen.latency_samples", static_cast<double>(samples), "count"},

      {"net.send_calls", net ? static_cast<double>(calls) : 0.0, "count"},
      {"net.send_p50_us", net ? Percentile(call_us, 0.50) : 0.0, "us"},
      {"net.send_p99_us", net ? Percentile(call_us, 0.99) : 0.0, "us"},
      {"net.subscriber_batches", static_cast<double>(sub_batches), "count"},
      {"net.subscriber_bytes", static_cast<double>(sub_bytes), "bytes"},
      {"net.subscriber_idle_share",
       net ? Ratio(static_cast<double>(sub_wait), static_cast<double>(timed)) : 0.0,
       "ratio"},
      {"net.tuple_frames", static_cast<double>(frames), "count"},
      {"net.failures", static_cast<double>(net_failures), "count"},

      {"ingest.merged_batches", static_cast<double>(merged), "count"},
      {"ingest.merge_cycles", static_cast<double>(cycles), "count"},
      {"ingest.backpressure_waits", static_cast<double>(bp_waits), "count"},
      {"ingest.watermark_stalls", static_cast<double>(stalls), "count"},
      {"ingest.late_dropped", static_cast<double>(late), "count"},

      {"core.tasks", all_tasks, "count"},
      {"core.task_bytes_mean", Ratio(all_bytes, all_tasks), "bytes"},
      {"core.dispatch_wait_p50_us", Percentile(dispatch_us, 0.50), "us"},
      {"core.queue_wait_p50_us", Percentile(queue_us, 0.50), "us"},
      {"core.queue_wait_p99_us", Percentile(queue_us, 0.99), "us"},
      {"core.queue_depth_mean",
       Ratio(static_cast<double>(depth_sum), static_cast<double>(depth_samples)),
       "tasks"},
      {"core.gpu_byte_share", Ratio(static_cast<double>(bytes[1]), all_bytes),
       "ratio"},
      {"core.assembly_wait_p50_us", Percentile(assembly_us, 0.50), "us"},
      {"core.sink_p50_us", Percentile(sink_us, 0.50), "us"},

      {"cpu.tasks", static_cast<double>(tasks[0]), "count"},
      {"cpu.exec_p50_us", Percentile(exec_us[0], 0.50), "us"},
      {"cpu.exec_p99_us", Percentile(exec_us[0], 0.99), "us"},
      {"cpu.mbytes_per_exec_s",
       Ratio(static_cast<double>(exec_bytes[0]) / 1e6,
             static_cast<double>(exec_nanos[0]) / 1e9),
       "MB/s"},
      {"cpu.ceiling_mtuples_s", ceiling_mtuples, "Mtuples/s"},

      {"gpu.tasks", static_cast<double>(tasks[1]), "count"},
      {"gpu.exec_p50_us", Percentile(exec_us[1], 0.50), "us"},
      {"gpu.exec_p99_us", Percentile(exec_us[1], 0.99), "us"},
      {"gpu.mbytes_per_exec_s",
       Ratio(static_cast<double>(exec_bytes[1]) / 1e6,
             static_cast<double>(exec_nanos[1]) / 1e9),
       "MB/s"},
      {"gpu.task_retries", static_cast<double>(retries), "count"},

      {"trace.overhead_ratio", Ratio(traced_mtuples, untraced_mtuples), "ratio"},
      {"check.error_rate", errors.rate(), "ratio"},
  };
  for (const auto& [layer, nanos] : self) {
    m.push_back({"self_share." + layer,
                 Ratio(static_cast<double>(nanos), static_cast<double>(self_total)),
                 "ratio"});
  }
  return m;
}

}  // namespace perfbench
