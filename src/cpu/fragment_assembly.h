#pragma once

#include <map>
#include <vector>

#include "core/operator.h"
#include "relational/hash_table.h"
#include "relational/two_stacks.h"

/// \file fragment_assembly.h
/// Assembly of window results from window-fragment results (§4.3, §5.3).
/// Aggregation fragments are *pane partials*: for every pane (window_math.h)
/// intersecting a batch, the batch operator emits the pane's partial
/// aggregate (plain AggStates, or a serialized group hash table). The
/// assembly state ingests pane partials strictly in task order, tracks the
/// axis watermark, and emits each window result exactly once — when the
/// watermark passes the window's end.
///
/// Which path a query takes (AssemblyMode::kAuto):
///  - every aggregate invertible (sum/count/avg), grouped or not: the
///    *running* path (§5.3). One running aggregate per query — AggStates, or
///    one GroupHashTable for grouped queries — slides over the pane
///    sequence: each emission merges the panes that slid in and subtracts
///    those that slid out, instead of re-merging panes_per_window panes.
///  - ungrouped with a min/max: the two-stacks path (two_stacks.h, [50]).
///  - grouped with a min/max: re-merge every pane of the window per
///    emission.
///  - session windows: one open-session accumulator, no pane grid.
/// AssemblyMode::kRemergeOnly forces re-merge for every pane-grid query (the
/// ablation baseline and the oracle the running path is tested against).
///
/// Running-path contract: subtraction reproduces the re-merge result byte
/// for byte when the partial sums are exact — as they are for small
/// integers and for the float inputs the workloads generate. Under floating
/// point cancellation (e.g. 1e20 + 1 - 1e20) the two can differ in the last
/// bits, like any reordering of a floating-point sum. A non-finite partial
/// never propagates: a window whose expiring pane (or running state) is
/// inf/NaN is re-merged from the stored panes instead, since inf - inf is
/// NaN. A group whose running count falls to 0 is not emitted (its slot is
/// reset and reused if the key returns); the table is compacted once such
/// dead slots outnumber live ones, so key churn cannot grow it unboundedly.
///
/// The same logic serves the CPU and GPGPU back ends ("the result
/// aggregation logic is the same for both", §5.4); only the production of
/// pane partials differs.

namespace saber {

/// Serialized layouts inside TaskResult::partials:
///  - ungrouped pane partial: [int64 max_ts][AggState x num_aggs]
///  - grouped pane partial:   repeated GroupHashTable entries
///    [int64 ts][key bytes][AggState x num_aggs]
///  - session segment (kSession windows; PaneEntry::pane_index is a
///    task-local ordinal, not a grid index):
///      ungrouped: [int64 first_ts][int64 last_ts][AggState x num_aggs]
///      grouped:   [int64 first_ts][int64 last_ts] + repeated entries as
///                 above. The header is present even when every tuple of
///                 the segment was filtered out — the session's extent is
///                 defined by *raw* tuples, so an entry-less segment still
///                 extends (or separates) sessions.
struct PaneFormat {
  size_t num_aggs;
  size_t key_size;  // 0 if ungrouped (8 * num group keys otherwise)

  static PaneFormat For(const QueryDef& q) {
    return PaneFormat{q.aggregates.size(),
                      q.grouped() ? AlignUp(q.group_key_size(), 8) : 0};
  }
  bool grouped() const { return key_size > 0; }
  size_t ungrouped_bytes() const { return 8 + num_aggs * sizeof(AggState); }
  size_t grouped_entry_bytes() const {
    return 8 + key_size + num_aggs * sizeof(AggState);
  }
  /// Session-segment header: [first_ts][last_ts].
  static constexpr size_t kSessionHeaderBytes = 16;
  size_t session_ungrouped_bytes() const {
    return kSessionHeaderBytes + num_aggs * sizeof(AggState);
  }
};

/// Assembly state for aggregation queries.
class AggregationAssembly : public AssemblyState {
 public:
  explicit AggregationAssembly(const QueryDef& q);

  /// Ingests one task's pane partials (in task order) and appends every
  /// window result that became final to `output`.
  void Ingest(const TaskResult& result, ByteBuffer* output);

  int64_t next_window() const { return next_window_; }
  int64_t watermark() const { return watermark_; }

 private:
  struct PaneData {
    int64_t max_ts = 0;
    std::vector<AggState> aggs;        // ungrouped
    std::vector<uint8_t> group_bytes;  // grouped: serialized entries
    bool empty_of_groups() const { return group_bytes.empty(); }
  };

  void MergeEntry(int64_t pane, const uint8_t* data, size_t len);
  void EmitReadyWindows(ByteBuffer* output);
  void EmitWindow(int64_t j, ByteBuffer* output);
  void EmitUngroupedRow(int64_t ts, const AggState* aggs, ByteBuffer* output);
  void EmitGroupedWindow(int64_t j, ByteBuffer* output);
  /// Sorts and writes the live groups in groups_ (shared tail of the grouped
  /// pane and session emission paths). All rows carry `window_ts`.
  void EmitGroupedRows(int64_t window_ts, ByteBuffer* output);
  /// Session path: folds one segment partial into the open session,
  /// emitting the previous session first when the segment opens a new one
  /// (its first_ts is more than gap past the open session's last_ts).
  void MergeSessionSegment(const uint8_t* data, size_t len,
                           ByteBuffer* output);
  void EmitSession(ByteBuffer* output);
  /// Slides the running aggregate to window j's panes.
  void AdvanceRunning(int64_t j);
  void AddRunningPane(const PaneData& pd);
  /// Subtracts an expired pane; false (running state left partially
  /// updated) when a non-finite partial makes subtraction inexact.
  bool SubtractRunningPane(const PaneData& pd);
  /// Drops the running table's dead (count 0) slots.
  void CompactRunningGroups();
  void AdvanceStacks(int64_t j);
  void PruneBefore(int64_t pane);

  const QueryDef& q_;
  const WindowDefinition& w_;
  PaneFormat fmt_;

  std::map<int64_t, PaneData> store_;  // live panes, keyed by pane index
  int64_t next_window_ = 0;            // next window index to consider
  int64_t watermark_ = 0;              // axis position covered so far

  // Incremental (invertible) path: running aggregate over the panes
  // [running_lo_pane_, running_hi_pane_] present in the store — running_
  // for ungrouped queries, groups_ for grouped ones. Pruning lags behind
  // running_lo_pane_ so the next advance can still subtract expiring panes.
  bool use_running_;
  bool running_valid_ = false;
  int64_t running_lo_pane_ = 0;
  int64_t running_hi_pane_ = -1;
  std::vector<AggState> running_;
  size_t running_live_groups_ = 0;  // groups_ slots with count > 0

  // Two-stacks path ([50], two_stacks.h) for non-invertible ungrouped
  // aggregates: amortized O(1) merges per pane instead of re-merging
  // panes_per_window panes per emitted window. Final panes are pushed lazily
  // at emission time (a pane may still receive contributions from the next
  // task while its end lies beyond the watermark).
  bool use_stacks_;
  TwoStacksAggregator stacks_;
  std::vector<AggState> stacks_query_;

  // Session path (w_.session()): there is no pane grid — segment partials
  // arrive in stream order and fold into a single open-session accumulator.
  // A session closes when a later segment opens more than gap past it, or
  // when the watermark passes last_ts + gap (window_math.h SessionClosed).
  // The final session of a stream never emits: no watermark can ever pass
  // it (mirrors reference.cc).
  bool session_open_ = false;
  int64_t session_first_ts_ = 0;
  int64_t session_last_ts_ = 0;
  int64_t session_group_max_ts_ = 0;   // max entry ts (grouped rows' stamp)
  std::vector<AggState> session_aggs_;        // ungrouped accumulator
  std::vector<uint8_t> session_group_bytes_;  // grouped: serialized entries

  // Grouped accumulator: the running table on the running path; cleared
  // and refilled per emission on the re-merge and session paths.
  GroupHashTable groups_;
  std::vector<std::pair<const uint8_t*, const AggState*>> sort_scratch_;
  ByteBuffer compact_scratch_;
};

/// Assembly for stateless and join queries: window results are the
/// concatenation of fragment results, so assembly forwards bytes.
class ConcatAssembly : public AssemblyState {
 public:
  void Ingest(const TaskResult& result, ByteBuffer* output) {
    output->Append(result.complete.data(), result.complete.size());
  }
};

}  // namespace saber
