/// perfbench — the repository benchmark. Runs one workload through the
/// engine's public entry points and prints every metric by name with its
/// unit, then one JSON result line.
///
///   perfbench --workload <cm2_inproc|lrb1_remote>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--commit <id>] [--out <record.json>]
///
/// --trace 0 runs a saturated (closed-loop) phase and a paced (open-loop)
/// phase with tracing off and reports the end-to-end metrics. --trace 1 runs
/// a paced phase, an untraced and a traced saturated phase and the
/// single-threaded CPU ceiling, and reports the per-layer metrics. Every
/// output row of every repetition is checked against src/reference/.
/// README.md defines the metrics.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "layers.h"
#include "runtime/clock.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--out <record.json>]\n"
               "workloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

/// One phase of a run: repetitions of one kind, appended to `reps`.
struct PhasePlan {
  Phase phase;
  bool traced;
  std::vector<RepResult>* reps;
};

/// Times the inputs are generated again during the phases, for setup_s.
constexpr int kRegenerations = 10;

/// Runs the phases' repetitions in rotation until `budget_s` has elapsed
/// and every phase has at least two, so slow and fast stretches of the host
/// fall on every phase alike. For the same reason `regenerate`, if set, is
/// called between rounds kRegenerations times, spread evenly over the
/// budget.
void RunPhases(Workload& w, const std::vector<PhasePlan>& phases,
               double budget_s, ErrorCount* errors,
               const std::function<void()>& regenerate) {
  const int64_t t0 = saber::NowNanos();
  int regenerated = 0;
  for (size_t round = 0;; ++round) {
    const double elapsed_s = static_cast<double>(saber::NowNanos() - t0) / 1e9;
    if (round >= 2 && elapsed_s >= budget_s) return;
    if (regenerate && regenerated < kRegenerations &&
        elapsed_s >= budget_s * (regenerated + 0.5) / kRegenerations) {
      regenerate();
      ++regenerated;
    }
    for (const PhasePlan& p : phases) {
      const double rss_baseline_mb = ResetPeakRss();
      p.reps->push_back(w.RunRep(p.phase, p.traced));
      RepResult& r = p.reps->back();
      r.peak_rss_mb = PeakRssMb(rss_baseline_mb);
      errors->Add(r);
      if (r.errors() > 0) {
        std::fprintf(stderr,
                     "perfbench: %s repetition %zu: %lld row errors (%lld rows "
                     "received, %lld expected), %lld failed calls, %lld late "
                     "dropped, %lld net failures\n",
                     p.phase == Phase::kPaced ? "paced" : "saturated",
                     p.reps->size(), static_cast<long long>(r.row_errors),
                     static_cast<long long>(r.rows_received),
                     static_cast<long long>(r.expected_rows),
                     static_cast<long long>(r.calls_failed),
                     static_cast<long long>(r.late_dropped),
                     static_cast<long long>(r.net_failures));
      }
    }
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i > 0 ? ", " : "") + Num(v[i]);
  return s + "]";
}

std::string TextList(const std::vector<double>& v, const char* format) {
  std::string s;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), format, x);
    s += std::string(" ") + buf;
  }
  return s;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) return Usage();
  std::unique_ptr<Workload> w = MakeWorkload(a.workload);
  if (w == nullptr) return Usage();

  std::vector<double> gen_s = {w->Prepare(a.seed)};
  ErrorCount errors;
  // One unreported repetition first, so page faults in the harness's
  // buffers and the allocator's first growth are not timed.
  errors.Add(w->RunRep(Phase::kSaturated, false));
  std::vector<RepResult> saturated, paced, traced;
  std::vector<Metric> metrics;
  std::string bound_by;
  if (a.trace == 0) {
    RunPhases(*w,
              {{Phase::kSaturated, false, &saturated},
               {Phase::kPaced, false, &paced}},
              a.seconds, &errors,
              [&] { gen_s.push_back(w->Regenerate()); });
    metrics = EndToEndMetrics(saturated, paced, gen_s);
  } else {
    RunPhases(*w,
              {{Phase::kPaced, false, &paced},
               {Phase::kSaturated, false, &saturated},
               {Phase::kSaturated, true, &traced}},
              a.seconds, &errors, nullptr);
    int64_t ceiling_errors = 0;
    const double ceiling = w->CpuCeilingMtuples(&ceiling_errors);
    errors.errors += ceiling_errors;
    metrics = LayerMetrics(*w, traced, paced, ThroughputMtuples(saturated),
                           ceiling, errors, &bound_by);
  }

  // Provenance: the core budget the library defaults produced, and inputs.
  const saber::EngineOptions defaults;
  const unsigned nproc = std::thread::hardware_concurrency();
  const int gpu_workers = defaults.use_gpu ? 1 : 0;
  const int stage_threads = defaults.use_gpu ? 5 : 0;  // SimDevice pipeline
  std::vector<double> shares;
  for (const auto* phase : {&saturated, &paced, &traced}) {
    for (const RepResult& r : *phase) shares.push_back(GpuByteShare(r));
  }
  std::printf("perfbench %s seed=%u seconds=%g trace=%d commit=%s\n",
              w->name(), a.seed, a.seconds, a.trace, a.commit.c_str());
  std::printf("query: %s\n", w->sql().c_str());
  std::printf(
      "core budget: nproc=%u cpu_workers=%d gpu_workers=%d "
      "device_executors=%d device_stage_threads=%d server_threads=%d "
      "ingest_merger_threads=%d generator_threads=%d\n",
      nproc, defaults.num_cpu_workers, gpu_workers,
      defaults.device.num_executors, stage_threads, w->server_threads(),
      w->ingest_threads(), w->generator_threads());
  std::printf(
      "input: tuples=%zu call_tuples=%zu phi_bytes=%zu "
      "paced_rate=%.0f tuples/s\n",
      w->input_tuples(), w->call_tuples(), defaults.task_size,
      w->paced_rate());
  std::printf("repetitions: saturated=%zu paced=%zu traced=%zu\n",
              saturated.size(), paced.size(), traced.size());
  std::printf("core.gpu_byte_share per repetition:%s\n",
              TextList(shares, "%.3f").c_str());
  std::printf("input generation passes (s):%s\n",
              TextList(gen_s, "%.3f").c_str());
  for (const auto& [label, reps] :
       {std::pair{"saturated", &saturated}, std::pair{"traced", &traced}}) {
    if (reps->empty()) continue;
    std::printf("throughput per %s repetition (Mtuples/s):", label);
    for (const RepResult& r : *reps) {
      std::printf(" %.3f", static_cast<double>(r.input_tuples) / r.seconds() / 1e6);
    }
    std::printf("\n");
  }
  if (!saturated.empty()) {
    std::printf("peak RSS per saturated repetition (MiB):");
    for (const RepResult& r : saturated) std::printf(" %.1f", r.peak_rss_mb);
    std::printf("\n");
  }
  if (!paced.empty()) {
    std::printf("latency p50/p99 per paced repetition (ms):");
    for (const RepResult& r : paced) {
      std::printf(" %.2f/%.2f", r.latency_p50_ms, r.latency_p99_ms);
    }
    std::printf("\n");
  }
  std::printf("error_rate: %.6g (%lld errors / %lld rows and calls)\n",
              errors.rate(), static_cast<long long>(errors.errors),
              static_cast<long long>(errors.attempted));
  PrintMetrics(a.trace == 0 ? "end-to-end metrics (tracing off):"
                            : "per-layer metrics (traced run):",
               metrics);
  if (a.trace == 1) std::printf("bound_by: %s\n", bound_by.c_str());

  const bool correct = errors.errors == 0;
  if (!a.out.empty()) {
    FILE* f = std::fopen(a.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.out.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"workload\": \"%s\", \"seed\": %u, \"seconds\": %s, \"trace\": %d, "
        "\"commit\": \"%s\", \"core_budget\": {\"nproc\": %u, "
        "\"cpu_workers\": %d, \"gpu_workers\": %d, \"device_executors\": %d, "
        "\"device_stage_threads\": %d, \"server_threads\": %d, "
        "\"ingest_merger_threads\": %d, \"generator_threads\": %d}, "
        "\"phi_bytes\": %zu, \"input_tuples\": %zu, \"call_tuples\": %zu, "
        "\"paced_rate_tuples_s\": %s, \"repetitions\": {\"saturated\": %zu, "
        "\"paced\": %zu, \"traced\": %zu}, \"gpu_byte_share_per_rep\": %s, "
        "\"generation_s\": %s, "
        "\"error_rate\": %s, \"errors\": %lld, \"attempted\": %lld, "
        "\"bound_by\": \"%s\", \"metrics\": %s}\n",
        w->name(), a.seed, Num(a.seconds).c_str(), a.trace, a.commit.c_str(),
        nproc, defaults.num_cpu_workers, gpu_workers,
        defaults.device.num_executors, stage_threads, w->server_threads(),
        w->ingest_threads(), w->generator_threads(), defaults.task_size,
        w->input_tuples(), w->call_tuples(), Num(w->paced_rate()).c_str(),
        saturated.size(),
        paced.size(), traced.size(), JsonList(shares).c_str(),
        JsonList(gen_s).c_str(),
        Num(errors.rate()).c_str(), static_cast<long long>(errors.errors),
        static_cast<long long>(errors.attempted), bound_by.c_str(),
        MetricsJson(metrics).c_str());
    std::fclose(f);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", static_cast<long long>(errors.attempted),
      static_cast<long long>(errors.errors), MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
