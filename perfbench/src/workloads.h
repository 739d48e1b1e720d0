#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attribution.h"
#include "core/engine.h"
#include "obs/trace.h"

/// \file workloads.h
/// The benchmark workloads. Each one generates its input from the
/// seed, computes the expected output with src/reference/ (untimed), and
/// then runs *repetitions*: a fresh engine built from the library defaults
/// (EngineOptions{} / ServerOptions{}) is set up, fed the whole input
/// through the workload's public entry path, drained, checked row for row
/// against the reference, and torn down.

namespace perfbench {

enum class Phase {
  /// Closed loop: each generator thread makes its next call as soon as the
  /// previous one returns.
  kSaturated,
  /// Open loop: call c is made at its due time, the moment its last tuple
  /// was created at the workload's fixed paced rate, whatever the system
  /// does.
  kPaced,
};

/// One generator thread's entry calls in one repetition.
struct CallLog {
  std::vector<int64_t> start_nanos;  ///< absolute
  std::vector<int64_t> dur_nanos;
  std::vector<int64_t> due_nanos;  ///< offset from the phase start (paced)
  int64_t thread_begin_nanos = 0;
  int64_t thread_end_nanos = 0;
};

/// What one repetition measured. Counters cover this repetition only.
struct RepResult {
  double setup_s = 0;  ///< engine/server start, connect, SQL submit
  /// Peak RSS during the repetition above the RSS it started from, MiB:
  /// what its engine (and server) held at most.
  double peak_rss_mb = 0;
  int64_t start_nanos = 0;     ///< first entry call (paced: due-time origin)
  int64_t last_row_nanos = 0;  ///< last result row received after drain
  int64_t input_tuples = 0;

  // Correctness, counted into error_rate.
  int64_t expected_rows = 0;
  int64_t rows_received = 0;
  int64_t row_errors = 0;
  int64_t calls_attempted = 0;
  int64_t calls_failed = 0;
  int64_t late_dropped = 0;
  int64_t net_failures = 0;

  // Paced phase only: event-to-result latency of every output row.
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  int64_t latency_samples = 0;

  // Harness spans around each layer's entry calls.
  std::vector<CallLog> calls;
  int64_t subscriber_batches = 0;
  int64_t subscriber_bytes = 0;
  int64_t subscriber_wait_nanos = 0;
  int64_t queue_depth_sum = 0;
  int64_t queue_depth_samples = 0;

  // What the program exposes.
  int64_t tuple_frames = 0;  ///< ServerStats
  int64_t merged_batches = 0;
  int64_t merge_cycles = 0;
  int64_t backpressure_waits = 0;
  int64_t watermark_stalls = 0;
  int64_t tasks_cpu = 0, tasks_gpu = 0;
  int64_t bytes_cpu = 0, bytes_gpu = 0;
  int64_t gpu_task_retries = 0;
  std::vector<saber::obs::TaskSpan> spans;  ///< traced repetitions only

  /// error_rate's numerator for this repetition.
  int64_t errors() const {
    return row_errors + calls_failed + late_dropped + net_failures;
  }
  double seconds() const {
    return static_cast<double>(last_row_nanos - start_nanos) / 1e9;
  }
};

/// Which layer a workload's entry calls belong to.
enum class EntryLayer { kCore, kNet };

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual EntryLayer entry_layer() const = 0;
  /// The fixed open-loop rate of the paced phase, tuples/s.
  virtual double paced_rate() const = 0;
  /// Threads the harness drives: producers plus a subscriber reader.
  virtual int generator_threads() const = 0;
  /// Server-side threads the defaults produce (0 for in-process paths).
  virtual int server_threads() const { return 0; }
  /// Watermark-merger threads of the workload's sharded ingresses.
  virtual int ingest_threads() const { return 0; }
  const std::string& sql() const { return sql_; }
  size_t input_tuples() const { return input_tuples_; }
  size_t call_tuples() const { return kCallTuples; }

  /// Generates the inputs for `seed` and computes the reference output
  /// (untimed). Returns the generation time, in seconds: it is part of
  /// set-up.
  double Prepare(uint32_t seed);

  /// Generates the same inputs again, replacing the current ones, and
  /// returns the time it took, in seconds. Repetitions check their output
  /// against the reference Prepare() computed, so a generator that is not
  /// deterministic shows up as row errors.
  double Regenerate();

  /// One repetition on a fresh engine; `traced` arms the engine's task
  /// trace at sample rate 1.
  RepResult RunRep(Phase phase, bool traced);

  /// Single-threaded ceiling of the CPU operator layer: the query's
  /// MakeCpuOperator ProcessBatch + Assemble over the same input bytes at
  /// the default task size φ, in Mtuples/s. Its output is checked against
  /// the reference too; mismatching rows are added to `*row_errors`.
  double CpuCeilingMtuples(int64_t* row_errors) const;

 protected:
  static constexpr size_t kCallTuples = 4096;

  Workload(std::string sql, size_t input_tuples)
      : sql_(std::move(sql)), input_tuples_(input_tuples) {}

  /// One entry call: `bytes` of whole tuples at `data`, due `due_nanos`
  /// after the phase start.
  struct Call {
    const uint8_t* data;
    size_t bytes;
    int64_t due_nanos;
  };

  /// Generates the input stream in timestamp order (what the reference
  /// sees).
  virtual std::vector<uint8_t> Generate(uint32_t seed) = 0;
  /// Expected output of the input stream.
  std::vector<uint8_t> Reference() const;
  /// Builds `plans_` (one call list per producer thread) and `due_` from
  /// the generated stream.
  virtual void PlanCalls() = 0;
  /// Set-up, timed feed and drain of one repetition.
  virtual void Execute(Phase phase, bool traced, RepResult* r) = 0;

  /// Runs `plan` on the calling thread: paced calls wait for their due
  /// time. `entry` returns false for a failed call.
  template <typename Entry>
  static void RunCalls(const std::vector<Call>& plan, Phase phase,
                       int64_t start_nanos, CallLog* log, int64_t* failed,
                       Entry&& entry);

  static saber::EngineOptions Options(bool traced);
  /// Sink recording into out_; installed on every engine the workload makes.
  std::function<void(const uint8_t*, size_t)> Sink();
  /// Plans calls of kCallTuples over `stream`, due at `rate` from tuple 0.
  static std::vector<Call> ContiguousPlan(const std::vector<uint8_t>& stream,
                                          size_t tuple_size, double rate);
  /// Adds every tuple of `plan` to `due` at its call's due time.
  static void AddToSchedule(const std::vector<Call>& plan, size_t tuple_size,
                            DueSchedule* due);
  static void CollectEngine(saber::Engine& engine, saber::QueryHandle* q,
                            RepResult* r);

  std::string sql_;
  size_t input_tuples_;
  uint32_t seed_ = 0;
  saber::QueryDef def_;  ///< parsed from sql_ against the benchmark catalog
  std::vector<uint8_t> stream_;  ///< the input, in timestamp order
  std::vector<uint8_t> expected_;
  std::vector<std::vector<Call>> plans_;
  DueSchedule due_;  ///< sealed
  std::mutex out_mu_;
  OutputLog out_;
};

/// "cm2_inproc" or "lrb1_remote"; nullptr otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
/// Every workload name, in benchmark order.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench
