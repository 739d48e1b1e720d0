#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// \file attribution.h
/// The benchmark's correctness and latency bookkeeping, kept free of engine
/// types so the self-tests can drive it with hand-made rows.
///
///  - OutputLog: what a sink (or a remote subscriber) received — the bytes,
///    plus one (end offset, arrival time) entry per delivered batch.
///  - CountRowErrors: byte-for-byte comparison of received rows against the
///    reference output; every missing, extra or differing row counts once.
///  - DueSchedule: when each input tuple was *due* to be sent in a paced
///    phase. A row's latency is its arrival time minus the due time of the
///    last input tuple whose timestamp is <= the row's timestamp (field 0 of
///    every row is the int64 event timestamp, and SABER stamps each output
///    row with the largest contributing timestamp).

namespace perfbench {

/// Rows received by one sink. Append is called serially (the engine's
/// result stage holds the per-query assembly token; a remote subscriber has
/// one reader thread), and the log is read only after the run has drained.
class OutputLog {
 public:
  /// Reserves and pre-touches `bytes` so delivery never reallocates or
  /// page-faults inside the measured system's result stage.
  void Prepare(size_t bytes, size_t batches);
  /// Forgets the previous repetition's rows, keeping the memory.
  void Clear();
  /// Records one delivered batch arriving at `arrival_nanos`.
  void Append(const uint8_t* data, size_t len, int64_t arrival_nanos);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  struct Arrival {
    size_t end_offset;
    int64_t nanos;
  };
  const std::vector<Arrival>& arrivals() const { return arrivals_; }
  /// Arrival time of the last batch, or 0 if nothing arrived.
  int64_t last_arrival_nanos() const {
    return arrivals_.empty() ? 0 : arrivals_.back().nanos;
  }

 private:
  std::vector<uint8_t> bytes_;
  std::vector<Arrival> arrivals_;
};

/// Number of output rows that are missing, extra, or differ from
/// `expected`, compared row by row in stream order. A trailing partial row
/// counts as one error.
int64_t CountRowErrors(const uint8_t* actual, size_t actual_bytes,
                       const uint8_t* expected, size_t expected_bytes,
                       size_t row_size);

/// Due send times of one input stream in a paced phase. Tuple i travels in
/// some entry call; its due time is that call's due time, the moment the
/// call's last tuple was created by the generator. A row with timestamp T
/// can only be produced once every input tuple with timestamp <= T has been
/// sent, so its latency counts from the latest due time among those tuples.
/// Kept per distinct timestamp, since every workload stamps many tuples
/// with one timestamp.
class DueSchedule {
 public:
  /// Adds one tuple (any order); `due_nanos` is an offset from the phase
  /// start. Call Seal() after the last Add.
  void Add(int64_t ts, int64_t due_nanos);
  void Seal();

  /// Latest due time among tuples whose timestamp is <= ts; false if every
  /// tuple is later than ts.
  bool LatestDueAtOrBefore(int64_t ts, int64_t* due) const;

 private:
  std::vector<std::pair<int64_t, int64_t>> entries_;  ///< (ts, due)
};

/// Due offset of a call made once `tuples_created` tuples exist, for a
/// generator creating `tuples_per_sec` tuples per second: created / rate.
int64_t DueOffsetNanos(size_t tuples_created, double tuples_per_sec);

/// Latency in ms of every row in `log` against the input schedule, whose
/// due times are offsets from `start_nanos`. Rows earlier than every input
/// tuple yield no sample.
std::vector<double> RowLatenciesMs(const OutputLog& log, size_t row_size,
                                   const DueSchedule& due, int64_t start_nanos);

/// Percentile q in [0, 1] by linear interpolation between closest ranks;
/// 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Least-squares slope of y over x (0 with fewer than two points).
double Slope(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace perfbench
