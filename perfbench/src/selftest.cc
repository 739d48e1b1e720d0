/// perfbench_selftest — checks the benchmark's own bookkeeping on tiny
/// inputs: the timestamp → due-time latency attribution, and the comparison
/// of engine output against src/reference/ (including that a corrupted,
/// missing or extra row is counted). Exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "attribution.h"
#include "core/engine.h"
#include "reference/reference.h"
#include "sql/parser.h"
#include "workloads/linear_road.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::vector<uint8_t> Row(int64_t ts, int64_t payload) {
  std::vector<uint8_t> r(16);
  std::memcpy(r.data(), &ts, 8);
  std::memcpy(r.data() + 8, &payload, 8);
  return r;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Six tuples, two per timestamp, sent in calls of two tuples due at 1, 2
/// and 3 ms: a row stamped T counts from the due time of the last call
/// carrying a tuple with timestamp <= T.
void LatencyAttribution() {
  DueSchedule due;
  const int64_t ms = 1'000'000;
  for (int64_t ts : {10, 10}) due.Add(ts, 1 * ms);
  for (int64_t ts : {11, 11}) due.Add(ts, 2 * ms);
  for (int64_t ts : {12, 12}) due.Add(ts, 3 * ms);
  due.Seal();

  int64_t d = 0;
  EXPECT(!due.LatestDueAtOrBefore(9, &d));
  EXPECT(due.LatestDueAtOrBefore(10, &d) && d == 1 * ms);
  EXPECT(due.LatestDueAtOrBefore(11, &d) && d == 2 * ms);
  EXPECT(due.LatestDueAtOrBefore(50, &d) && d == 3 * ms);

  const int64_t start = 1'000'000'000;
  OutputLog log;
  log.Prepare(1 << 10, 8);
  std::vector<uint8_t> batch = Row(10, 0);
  const std::vector<uint8_t> second = Row(11, 0);
  batch.insert(batch.end(), second.begin(), second.end());
  log.Append(batch.data(), batch.size(), start + 5 * ms);  // rows 10, 11
  const std::vector<uint8_t> early = Row(5, 0);
  log.Append(early.data(), early.size(), start + 6 * ms);  // no sample
  const std::vector<uint8_t> last = Row(12, 0);
  log.Append(last.data(), last.size(), start + 7 * ms);

  const std::vector<double> lat = RowLatenciesMs(log, 16, due, start);
  EXPECT(lat.size() == 3);
  if (lat.size() == 3) {
    EXPECT(Near(lat[0], 4.0));  // arrived 5 ms, ts 10 due at 1 ms
    EXPECT(Near(lat[1], 3.0));  // ts 11 due at 2 ms
    EXPECT(Near(lat[2], 4.0));  // ts 12 due at 3 ms
  }

  // Disordered sends: a tuple stamped 10 sent late (due 4 ms) holds back
  // every row stamped >= 10, because a row can only be produced once all
  // of its inputs have been sent.
  DueSchedule disordered;
  disordered.Add(11, 1 * ms);
  disordered.Add(12, 2 * ms);
  disordered.Add(10, 4 * ms);
  disordered.Add(13, 5 * ms);
  disordered.Seal();
  EXPECT(disordered.LatestDueAtOrBefore(10, &d) && d == 4 * ms);
  EXPECT(disordered.LatestDueAtOrBefore(12, &d) && d == 4 * ms);
  EXPECT(disordered.LatestDueAtOrBefore(13, &d) && d == 5 * ms);

  EXPECT(DueOffsetNanos(4096, 4.0e6) == 1'024'000);
  EXPECT(Near(Percentile({1, 2, 3, 4, 5}, 0.5), 3.0));
  EXPECT(Near(Percentile({1, 2}, 0.99), 1.99));
  EXPECT(Near(Slope({0, 1, 2}, {1, 3, 5}), 2.0));
}

/// The engine's output on a tiny LRB1 input equals the reference; a
/// corrupted, a missing and an extra row are each counted once.
void ReferenceComparison() {
  saber::sql::Catalog catalog;
  catalog["PosSpeedStr"] = saber::lrb::PositionSchema();
  const saber::QueryDef def =
      saber::sql::Parse(
          "select timestamp, vehicle, highway, direction, position / 5280 as "
          "segment from PosSpeedStr [range unbounded]",
          catalog)
          .value();
  saber::lrb::RoadOptions ro;
  ro.seed = 5;
  const std::vector<uint8_t> input = saber::lrb::GenerateReports(5000, ro);
  const saber::ByteBuffer ref = saber::ReferenceEvaluate(def, input);
  const size_t row = def.output_schema.tuple_size();
  EXPECT(ref.size() == 5000 * row);

  OutputLog log;
  log.Prepare(ref.size() * 2, 64);
  {
    saber::EngineOptions o;
    o.task_size = 4096;  // several tasks even on a tiny input
    saber::Engine engine(o);
    saber::QueryHandle* q = engine.TryAddQuery(def).value();
    (void)q->SetSink([&](const uint8_t* p, size_t n) { log.Append(p, n, 0); });
    engine.Start();
    q->Insert(input.data(), input.size());
    engine.Drain();
    engine.Stop();
  }
  std::vector<uint8_t> got = log.bytes();
  EXPECT(CountRowErrors(got.data(), got.size(), ref.data(), ref.size(), row) == 0);

  std::vector<uint8_t> corrupted = got;
  corrupted[17 * row + row - 1] ^= 0x5a;  // one byte of row 17
  EXPECT(CountRowErrors(corrupted.data(), corrupted.size(), ref.data(),
                        ref.size(), row) == 1);

  const std::vector<uint8_t> missing(got.begin(), got.end() - static_cast<ptrdiff_t>(row));
  EXPECT(CountRowErrors(missing.data(), missing.size(), ref.data(), ref.size(),
                        row) == 1);

  std::vector<uint8_t> extra = got;
  extra.insert(extra.end(), got.begin(), got.begin() + static_cast<ptrdiff_t>(row));
  EXPECT(CountRowErrors(extra.data(), extra.size(), ref.data(), ref.size(),
                        row) == 1);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::LatencyAttribution();
  perfbench::ReferenceComparison();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
