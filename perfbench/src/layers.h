#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

/// \file layers.h
/// Turns repetitions into the benchmark's named metrics: the end-to-end set
/// (untraced phases only) and the per-layer set of the traced run. README.md
/// defines every name.

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// error_rate's numerator and denominator, summed over every repetition
/// (and the CPU-ceiling pass) of a run.
struct ErrorCount {
  int64_t errors = 0;
  int64_t attempted = 0;
  void Add(const RepResult& r);
  double rate() const {
    return attempted > 0 ? static_cast<double>(errors) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// Upper quartile over repetitions of input tuples / (first call → last
/// row), in Mtuples/s. The run's end-to-end figures take the quartile over
/// repetitions on the good side (upper for throughput, lower for latency):
/// a slower program slows every repetition and moves it, while load from
/// outside the benchmark that slows some repetitions of a run does not.
double ThroughputMtuples(const std::vector<RepResult>& reps);

/// core.gpu_byte_share of one repetition.
double GpuByteShare(const RepResult& r);

/// Returns memory the process freed to the system, resets its peak RSS
/// (VmHWM) to its current RSS and returns that RSS, MiB.
double ResetPeakRss();

/// Peak RSS since ResetPeakRss() above `baseline_mb` (its result), MiB.
double PeakRssMb(double baseline_mb);

/// throughput_mtuples_s, latency_p50_ms, latency_p99_ms, setup_s,
/// peak_rss_mb. Latency percentiles are taken per paced repetition and the
/// lower quartile over repetitions is reported; setup_s is the median of the
/// input generation passes `gen_s` plus the median set-up of the
/// repetitions; peak_rss_mb is the median peak of the saturated
/// repetitions, the phase that holds the most data in flight.
std::vector<Metric> EndToEndMetrics(const std::vector<RepResult>& saturated,
                                    const std::vector<RepResult>& paced,
                                    const std::vector<double>& gen_s);

/// The per-layer metrics: gen.* from the (untraced) paced repetitions,
/// everything else from the traced saturated repetitions. Also names the
/// layer with the largest self-time share in `*bound_by`.
std::vector<Metric> LayerMetrics(const Workload& w,
                                 const std::vector<RepResult>& traced,
                                 const std::vector<RepResult>& paced,
                                 double untraced_mtuples, double ceiling_mtuples,
                                 const ErrorCount& errors,
                                 std::string* bound_by);

}  // namespace perfbench
