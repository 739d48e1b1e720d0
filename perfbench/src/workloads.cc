#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <thread>

#include "cpu/cpu_operators.h"
#include "net/client.h"
#include "net/server.h"
#include "reference/reference.h"
#include "runtime/clock.h"
#include "sql/parser.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/linear_road.h"

namespace perfbench {

using saber::NowNanos;

namespace {

saber::sql::Catalog BenchCatalog() {
  saber::sql::Catalog c;
  c["TaskEvents"] = saber::cm::TaskEventSchema();
  c["PosSpeedStr"] = saber::lrb::PositionSchema();
  return c;
}

/// A harness failure (set-up, connect): no result is printed for the run.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

int64_t TsAt(const uint8_t* tuple) {
  int64_t ts;
  std::memcpy(&ts, tuple, sizeof(ts));
  return ts;
}

double Seconds(int64_t from, int64_t to) {
  return static_cast<double>(to - from) / 1e9;
}

int64_t SumCounter(const saber::obs::MetricsSnapshot& snap,
                   const std::string& family, const std::string& label = "",
                   const std::string& value = "") {
  int64_t sum = 0;
  for (const auto& f : snap.families) {
    if (f.name != family) continue;
    for (const auto& s : f.series) {
      bool match = label.empty();
      for (const auto& [k, v] : s.labels) {
        if (k == label && v == value) match = true;
      }
      if (match) sum += s.counter_value;
    }
  }
  return sum;
}

}  // namespace

template <typename Entry>
void Workload::RunCalls(const std::vector<Call>& plan, Phase phase,
                        int64_t start_nanos, CallLog* log, int64_t* failed,
                        Entry&& entry) {
  log->start_nanos.reserve(plan.size());
  log->dur_nanos.reserve(plan.size());
  log->due_nanos.reserve(plan.size());
  log->thread_begin_nanos = NowNanos();
  for (const Call& c : plan) {
    if (phase == Phase::kPaced) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start_nanos + c.due_nanos)));
    }
    const int64_t t0 = NowNanos();
    const bool ok = entry(c.data, c.bytes);
    const int64_t t1 = NowNanos();
    log->start_nanos.push_back(t0);
    log->dur_nanos.push_back(t1 - t0);
    log->due_nanos.push_back(c.due_nanos);
    if (!ok) ++*failed;
  }
  log->thread_end_nanos = NowNanos();
}

double Workload::Prepare(uint32_t seed) {
  seed_ = seed;
  def_ = saber::sql::Parse(sql_, BenchCatalog(), name()).value();
  const double gen_s = Regenerate();
  expected_ = Reference();
  // Room for the expected rows plus slack, so a wrong run cannot realloc
  // mid-measurement either.
  out_.Prepare(expected_.size() + expected_.size() / 4 + (size_t{1} << 20),
               size_t{1} << 16);
  return gen_s;
}

double Workload::Regenerate() {
  stream_.clear();  // one copy of the input alive at a time
  stream_.shrink_to_fit();
  const int64_t t0 = NowNanos();
  stream_ = Generate(seed_);
  PlanCalls();
  const double gen_s = Seconds(t0, NowNanos());
  due_.Seal();
  return gen_s;
}

std::vector<uint8_t> Workload::Reference() const {
  const saber::ByteBuffer out = saber::ReferenceEvaluate(def_, stream_);
  return std::vector<uint8_t>(out.data(), out.data() + out.size());
}

RepResult Workload::RunRep(Phase phase, bool traced) {
  RepResult r;
  out_.Clear();
  Execute(phase, traced, &r);
  r.input_tuples = static_cast<int64_t>(input_tuples_);
  for (const auto& plan : plans_) {
    r.calls_attempted += static_cast<int64_t>(plan.size());
  }
  const size_t row = def_.output_schema.tuple_size();
  r.expected_rows = static_cast<int64_t>(expected_.size() / row);
  r.rows_received = static_cast<int64_t>(out_.bytes().size() / row);
  r.row_errors = CountRowErrors(out_.bytes().data(), out_.bytes().size(),
                                expected_.data(), expected_.size(), row);
  r.last_row_nanos = std::max(out_.last_arrival_nanos(), r.start_nanos + 1);
  if (phase == Phase::kPaced) {
    std::vector<double> lat = RowLatenciesMs(out_, row, due_, r.start_nanos);
    r.latency_samples = static_cast<int64_t>(lat.size());
    r.latency_p50_ms = Percentile(lat, 0.50);
    r.latency_p99_ms = Percentile(std::move(lat), 0.99);
  }
  return r;
}

saber::EngineOptions Workload::Options(bool traced) {
  saber::EngineOptions o;
  if (traced) o.trace_sample_rate = 1.0;
  return o;
}

std::function<void(const uint8_t*, size_t)> Workload::Sink() {
  return [this](const uint8_t* data, size_t len) {
    const int64_t now = NowNanos();
    std::lock_guard<std::mutex> lock(out_mu_);
    out_.Append(data, len, now);
  };
}

std::vector<Workload::Call> Workload::ContiguousPlan(
    const std::vector<uint8_t>& stream, size_t tuple_size, double rate) {
  std::vector<Call> plan;
  const size_t n = stream.size() / tuple_size;
  for (size_t first = 0; first < n; first += kCallTuples) {
    const size_t count = std::min(kCallTuples, n - first);
    plan.push_back({stream.data() + first * tuple_size, count * tuple_size,
                    DueOffsetNanos(first + count, rate)});
  }
  return plan;
}

void Workload::AddToSchedule(const std::vector<Call>& plan, size_t tuple_size,
                             DueSchedule* due) {
  for (const Call& c : plan) {
    for (size_t off = 0; off < c.bytes; off += tuple_size) {
      due->Add(TsAt(c.data + off), c.due_nanos);
    }
  }
}

void Workload::CollectEngine(saber::Engine& engine, saber::QueryHandle* q,
                             RepResult* r) {
  r->tasks_cpu = q->tasks_on(saber::Processor::kCpu);
  r->tasks_gpu = q->tasks_on(saber::Processor::kGpu);
  r->bytes_cpu = q->bytes_on(saber::Processor::kCpu);
  r->bytes_gpu = q->bytes_on(saber::Processor::kGpu);
  r->gpu_task_retries = engine.gpu_task_retries();
  if (engine.trace() != nullptr) r->spans = engine.trace()->Drain();
}

double Workload::CpuCeilingMtuples(int64_t* row_errors) const {
  const std::unique_ptr<saber::Operator> op = saber::MakeCpuOperator(&def_);
  const std::unique_ptr<saber::AssemblyState> state = op->MakeAssemblyState();
  saber::ByteBuffer output;
  saber::TaskResult result;
  const std::vector<uint8_t>& in = stream_;
  const size_t tsz = def_.input_schema[0].tuple_size();
  const size_t n = in.size() / tsz;
  // Tasks of φ bytes, as the engine's dispatcher cuts a single input; the
  // tuples before a task are its window history.
  const size_t per_task =
      std::max<size_t>(1, saber::EngineOptions{}.task_size / tsz);
  int64_t prev_last = -1;
  int64_t task_id = 0;
  const int64_t t0 = NowNanos();
  for (size_t pos = 0; pos < n; pos += per_task) {
    const size_t end = std::min(n, pos + per_task);
    saber::TaskContext ctx;
    ctx.task_id = task_id++;
    ctx.query = &def_;
    ctx.num_inputs = 1;
    saber::StreamBatch& b = ctx.input[0];
    b.data = {in.data() + pos * tsz, (end - pos) * tsz, nullptr, 0};
    b.first_index = static_cast<int64_t>(pos);
    b.first_ts = TsAt(in.data() + pos * tsz);
    b.last_ts = TsAt(in.data() + (end - 1) * tsz);
    b.prev_last_ts = prev_last;
    b.history = {in.data(), pos * tsz, nullptr, 0};
    b.history_first_index = 0;
    b.tuple_size = tsz;
    prev_last = b.last_ts;
    result.Reset();
    result.task_id = ctx.task_id;
    op->ProcessBatch(ctx, &result);
    op->Assemble(result, state.get(), &output);
  }
  const double secs = Seconds(t0, NowNanos());
  *row_errors += CountRowErrors(output.data(), output.size(), expected_.data(),
                                expected_.size(),
                                def_.output_schema.tuple_size());
  return static_cast<double>(n) / secs / 1e6;
}

namespace {

// ---------------------------------------------------------------------------
// cm2_inproc: CM2 on the cluster-monitoring trace, one thread calling
// QueryHandle::InsertInto, in-process sink.
// ---------------------------------------------------------------------------
class Cm2InProc final : public Workload {
 public:
  static constexpr size_t kTuples = 3'000'000;
  static constexpr double kPacedRate = 5.5e6;

  Cm2InProc()
      : Workload(
            "select timestamp, jobId, avg(cpu) as avgCpu from TaskEvents "
            "[range 60 slide 1] where eventType == 3 group by jobId",
            {kTuples}) {}

  const char* name() const override { return "cm2_inproc"; }
  EntryLayer entry_layer() const override { return EntryLayer::kCore; }
  double paced_rate() const override { return kPacedRate; }
  int generator_threads() const override { return 1; }

 protected:
  std::vector<uint8_t> Generate(uint32_t seed) override {
    saber::cm::TraceOptions o;
    o.seed = seed;
    return saber::cm::GenerateTrace(kTuples, o);
  }

  void PlanCalls() override {
    const size_t tsz = def_.input_schema[0].tuple_size();
    plans_ = {ContiguousPlan(stream_, tsz, kPacedRate)};
    due_ = DueSchedule{};
    AddToSchedule(plans_[0], tsz, &due_);
  }

  void Execute(Phase phase, bool traced, RepResult* r) override {
    const int64_t s0 = NowNanos();
    saber::Engine engine(Options(traced));
    saber::Result<saber::QueryHandle*> added = engine.TryAddQuery(def_);
    if (!added.ok()) Die(added.status().ToString());
    saber::QueryHandle* q = added.value();
    (void)q->SetSink(Sink());
    engine.Start();
    r->setup_s = Seconds(s0, NowNanos());

    r->calls.resize(1);
    r->start_nanos = NowNanos();
    RunCalls(plans_[0], phase, r->start_nanos, &r->calls[0], &r->calls_failed,
             [&](const uint8_t* data, size_t len) {
               q->InsertInto(0, data, len);
               if (traced) {
                 r->queue_depth_sum += static_cast<int64_t>(engine.queue_depth());
                 ++r->queue_depth_samples;
               }
               return true;
             });
    engine.Drain();
    CollectEngine(engine, q, r);
    engine.Stop();
  }

};

// ---------------------------------------------------------------------------
// lrb1_remote: LRB1 projection behind an in-process SaberServer; two
// ProducerClient connections (one timestamp shard each) and one subscriber.
// ---------------------------------------------------------------------------
class Lrb1Remote final : public Workload {
 public:
  static constexpr size_t kTuples = 4'000'000;
  static constexpr double kPacedRate = 12.0e6;
  static constexpr int kProducers = 2;
  /// Saturated producers keep at most this many tuples outstanding — sent,
  /// with their result rows (one per tuple: LRB1 is a projection) not yet
  /// at the subscriber. The server never back-pressures the engine on a
  /// subscriber; it disconnects one whose outbox passes
  /// ServerOptions::subscriber_buffer_bytes (64 MiB). Unwindowed, the closed
  /// loop outruns the outbox path and a run fails by that design, not by a
  /// fault; 1 M tuples (32 MB of rows) stays well inside the bound.
  static constexpr int64_t kOutstandingTuples = 1'000'000;

  Lrb1Remote()
      : Workload(
            "select timestamp, vehicle, highway, direction, "
            "position / 5280 as segment from PosSpeedStr [range unbounded]",
            {kTuples}) {}

  const char* name() const override { return "lrb1_remote"; }
  EntryLayer entry_layer() const override { return EntryLayer::kNet; }
  double paced_rate() const override { return kPacedRate; }
  int generator_threads() const override { return kProducers + 1; }
  /// The event loop plus one reader thread per data connection.
  int server_threads() const override { return 1 + kProducers; }
  int ingest_threads() const override { return 1; }

 protected:
  std::vector<uint8_t> Generate(uint32_t seed) override {
    saber::lrb::RoadOptions o;
    o.seed = seed;
    return saber::lrb::GenerateReports(kTuples, o);
  }

  /// Deals whole timestamp groups round-robin to the producers (the
  /// partitioning saber_cli --connect uses), so the merged stream equals
  /// the generated one; a call's due time is that of the generated stream's
  /// tuple it ends on.
  void PlanCalls() override {
    const size_t tsz = def_.input_schema[0].tuple_size();
    const std::vector<uint8_t>& s = stream_;
    const size_t n = s.size() / tsz;
    shards_.assign(kProducers, {});
    std::vector<std::vector<size_t>> global(kProducers);
    int64_t group = -1;
    int64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t ts = TsAt(s.data() + i * tsz);
      if (group < 0 || ts != prev) {
        ++group;
        prev = ts;
      }
      const size_t p = static_cast<size_t>(group % kProducers);
      shards_[p].insert(shards_[p].end(), s.begin() + static_cast<ptrdiff_t>(i * tsz),
                        s.begin() + static_cast<ptrdiff_t>((i + 1) * tsz));
      global[p].push_back(i);
    }
    plans_.assign(kProducers, {});
    due_ = DueSchedule{};
    for (size_t p = 0; p < kProducers; ++p) {
      const size_t m = global[p].size();
      for (size_t first = 0; first < m; first += kCallTuples) {
        const size_t count = std::min(kCallTuples, m - first);
        plans_[p].push_back({shards_[p].data() + first * tsz, count * tsz,
                             DueOffsetNanos(global[p][first + count - 1] + 1,
                                            kPacedRate)});
      }
      AddToSchedule(plans_[p], tsz, &due_);
    }
  }

  void Execute(Phase phase, bool traced, RepResult* r) override {
    namespace net = saber::net;
    const int64_t s0 = NowNanos();
    saber::Engine engine(Options(traced));
    engine.Start();
    net::SaberServer server(&engine, BenchCatalog(), net::ServerOptions{});
    if (saber::Status st = server.Start(); !st.ok()) Die(st.ToString());
    const std::string host = "127.0.0.1";
    auto control = net::ControlClient::Connect(host, server.port());
    if (!control.ok()) Die(control.status().ToString());
    auto info = control.value().Submit(sql_);
    if (!info.ok()) Die(info.status().ToString());
    const uint32_t id = info.value().query_id;
    auto sub = net::ControlClient::Connect(host, server.port());
    if (!sub.ok()) Die(sub.status().ToString());
    if (saber::Status st = sub.value().Subscribe(id); !st.ok()) {
      Die(st.ToString());
    }
    std::vector<net::ProducerClient> producers;
    for (int p = 0; p < kProducers; ++p) {
      net::DataHello hello;
      hello.query_id = id;
      hello.producer = static_cast<uint16_t>(p);
      hello.num_producers = kProducers;
      hello.tuple_size = info.value().input_tuple_size[0];
      auto c = net::ProducerClient::Connect(host, server.port(), hello);
      if (!c.ok()) Die(c.status().ToString());
      producers.push_back(std::move(c).value());
    }
    r->setup_s = Seconds(s0, NowNanos());

    // Subscriber: counts and keeps rows; its waits are its idle time.
    std::vector<std::pair<int64_t, int64_t>> waits;
    int64_t reader_failures = 0;
    std::mutex window_mu;
    std::condition_variable window_cv;
    int64_t tuples_sent = 0;    // guarded by window_mu
    int64_t rows_received = 0;  // guarded by window_mu
    bool reader_done = false;   // guarded by window_mu
    const size_t row_size = def_.output_schema.tuple_size();
    const size_t tuple_size = def_.input_schema[0].tuple_size();
    std::thread reader([&] {
      std::vector<uint8_t> batch;
      for (;;) {
        const int64_t w0 = NowNanos();
        saber::Result<bool> more = sub.value().NextBatch(&batch);
        const int64_t w1 = NowNanos();
        waits.emplace_back(w0, w1);
        if (!more.ok() || !more.value()) {
          if (!more.ok()) ++reader_failures;
          std::lock_guard<std::mutex> lock(window_mu);
          reader_done = true;
          window_cv.notify_all();
          return;
        }
        {
          std::lock_guard<std::mutex> lock(out_mu_);
          out_.Append(batch.data(), batch.size(), w1);
        }
        ++r->subscriber_batches;
        r->subscriber_bytes += static_cast<int64_t>(batch.size());
        std::lock_guard<std::mutex> lock(window_mu);
        rows_received += static_cast<int64_t>(batch.size() / row_size);
        window_cv.notify_all();
      }
    });

    r->calls.resize(kProducers);
    std::vector<int64_t> failed(kProducers, 0);
    std::latch go(1);
    std::vector<std::thread> threads;
    for (size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        go.wait();
        RunCalls(plans_[p], phase, r->start_nanos, &r->calls[p], &failed[p],
                 [&](const uint8_t* data, size_t len) {
                   const auto tuples = static_cast<int64_t>(len / tuple_size);
                   if (phase == Phase::kSaturated) {
                     std::unique_lock<std::mutex> lock(window_mu);
                     window_cv.wait(lock, [&] {
                       return reader_done ||
                              tuples_sent - rows_received < kOutstandingTuples;
                     });
                     tuples_sent += tuples;
                   }
                   const bool ok = producers[p].Send(data, len).ok();
                   if (traced && p == 0) {  // one sampler: no shared writes
                     r->queue_depth_sum +=
                         static_cast<int64_t>(engine.queue_depth());
                     ++r->queue_depth_samples;
                   }
                   return ok;
                 });
        if (!producers[p].End().ok()) ++failed[p];
      });
    }
    r->start_nanos = NowNanos();
    go.count_down();
    for (auto& t : threads) t.join();
    for (int64_t f : failed) r->calls_failed += f;

    if (!control.value().Drain(id).ok()) ++r->net_failures;
    // The server's ingress unregisters its series when the query is
    // removed, so read them once everything is merged.
    const saber::obs::MetricsSnapshot snap = engine.metrics()->Snapshot();
    r->merged_batches = SumCounter(snap, "saber_ingest_merged_batches_total");
    r->merge_cycles = SumCounter(snap, "saber_ingest_merge_cycles_total");
    r->backpressure_waits =
        SumCounter(snap, "saber_ingest_backpressure_waits_total");
    r->watermark_stalls = SumCounter(snap, "saber_watermark_stalls_total");
    r->late_dropped = SumCounter(snap, "saber_ingest_late_dropped_total");
    if (!control.value().Remove(id).ok()) {
      ++r->net_failures;
      sub.value().Shutdown();
    }
    reader.join();
    r->net_failures += reader_failures;
    for (const auto& [w0, w1] : waits) {
      r->subscriber_wait_nanos += std::max<int64_t>(0, w1 - std::max(w0, r->start_nanos));
    }

    const net::ServerStats st = server.stats();
    r->tuple_frames = st.tuple_frames;
    r->net_failures += st.protocol_errors + st.subscriber_overflows;
    const saber::obs::MetricsSnapshot done = engine.metrics()->Snapshot();
    r->tasks_cpu = SumCounter(done, "saber_engine_tasks_total", "processor", "cpu");
    r->tasks_gpu = SumCounter(done, "saber_engine_tasks_total", "processor", "gpu");
    r->bytes_cpu =
        SumCounter(done, "saber_engine_task_bytes_total", "processor", "cpu");
    r->bytes_gpu =
        SumCounter(done, "saber_engine_task_bytes_total", "processor", "gpu");
    r->gpu_task_retries = engine.gpu_task_retries();
    if (engine.trace() != nullptr) r->spans = engine.trace()->Drain();
    server.Stop();
    engine.Stop();
  }

 private:
  std::vector<std::vector<uint8_t>> shards_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "cm2_inproc") return std::make_unique<Cm2InProc>();
  if (name == "lrb1_remote") return std::make_unique<Lrb1Remote>();
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  return {"cm2_inproc", "lrb1_remote"};
}

}  // namespace perfbench
