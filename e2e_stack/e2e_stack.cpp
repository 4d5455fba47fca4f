/**
 * @file
 * End-to-end benchmark of the real serving stack: a seeded trace
 * served by a 4-replica FleetScheduler whose step costs come from
 * ExecutorCostModel → LlmExecutor → compiler stages → simulator.
 * Three named workloads each stress a different layer; README.md
 * next to this file says why each was chosen.
 *
 *   e2e_stack --workload <name> --seed <n> --seconds <s> --trace 0|1
 *             [--chrome-trace <out.json>]
 *   e2e_stack --smoke
 *
 * --trace 0 measures the end-to-end metrics: the median set-up time
 * of fresh executors, the median wall time of repeated untraced fleet
 * runs (one per executor), both relative to a fixed reference piece
 * of host work (referenceSeconds), simulated TTFT/TBT means and p99s
 * at the nominal rate, the highest SLO-meeting rate on a fixed rate
 * ladder, the share of requests completed, and peak RSS.
 * --trace 1 measures the per-layer split. Every layer is timed from
 * outside, around calls into its public API (the trace generators,
 * WeightStreamer::plan, models::buildTransformerBlock,
 * compiler::compile, sim::simulateAll, LlmExecutor::block,
 * StepCostModel::stepMs, FleetScheduler::run); nothing under src/ is
 * instrumented. --smoke runs every workload at 200 requests through
 * both modes (no ladder) with every check, as a quick bitrot test.
 *
 * Every metric is printed as "name = value unit"; the last stdout
 * line is one JSON object {correct, attempted, failed, metrics},
 * where attempted/failed count the requests sent at the nominal rate
 * and those rejected, expired or lost. A failed correctness check
 * prints "CHECK FAILED" on stderr, sets "correct": false and exits 1.
 * The benchmark starts no threads of its own: the only workers are
 * support::ThreadPool::shared(), which the executor and simulator
 * already use. Set-up and runs are timed on one thread (onOneThread);
 * runtime.step_fanout_s in the per-layer split is what the pool's
 * per-step fan-out adds when a run is driven from the main thread.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "hls/platform.h"
#include "models/block_builder.h"
#include "models/bucketing.h"
#include "models/llm_config.h"
#include "runtime/executor.h"
#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/metrics.h"
#include "serving/storage_tier.h"
#include "serving/trace.h"
#include "serving/weights.h"
#include "sim/simulator.h"
#include "support/thread_pool.h"

using namespace streamtensor;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Nearest-rank percentile; 0 on an empty sample. */
double
pct(const std::vector<double> &v, double p)
{
    return serving::percentile(v, p).value_or(0.0);
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Run @p fn on one thread, as an item of a shared-pool job: every
 *  nested ThreadPool::run (the executor's warm-up and per-step fan-out,
 *  the simulator's group fan-out) then executes inline. Host times are
 *  taken this way. Driven from the main thread, each step with several
 *  shapes wakes the pool, which is ~70% of a run's wall time and makes
 *  it a measure of how fast a shared host schedules the other vCPUs. */
void
onOneThread(const std::function<void()> &fn)
{
    support::ThreadPool::shared().run(2, [&](int64_t i) {
        if (i == 0)
            fn();
    });
}

/** Wall seconds of a fixed piece of host work that no code of the
 *  repository runs: ordered-map churn, an integer sort, and string
 *  formatting into a hash map. On a shared host the same one-thread
 *  work swings by up to 2x for seconds to minutes at a time, as
 *  neighbours come and go; timed next to every sample, this work
 *  slows with the host, so host times are reported relative to it
 *  (see kReferenceS). */
double
referenceSeconds()
{
    auto t0 = Clock::now();
    uint64_t x = 12345;
    auto next = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 33;
    };
    std::map<uint64_t, uint64_t> ordered;
    for (uint64_t i = 0; i < 200000; ++i) {
        ordered[next() >> 11] += i;
        if (ordered.size() > 4096)
            ordered.erase(ordered.begin());
    }
    std::vector<uint64_t> values(200000);
    for (auto &v : values)
        v = next();
    std::sort(values.begin(), values.end());
    std::unordered_map<std::string, double> hashed;
    for (int i = 0; i < 60000; ++i) {
        std::ostringstream key;
        key << 'k' << i % 5000 << ':' << 1.5 * i;
        hashed[key.str().substr(0, 6)] += i;
    }
    std::vector<std::string> keys;
    for (const auto &[key, sum] : hashed)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    volatile size_t sink = ordered.size() + values[7] + keys.size();
    (void)sink;
    return secondsSince(t0);
}

/** referenceSeconds() on an idle host: a benchmark run's median read
 *  0.064-0.072 s in the 14 runs made while the host was quiet, on 4
 *  vCPUs of an Intel Xeon (Sapphire Rapids) VM, Release build.
 *  setup_s and run_s are medians of (sample / reference) times this,
 *  so they read as wall seconds on that host when idle and stay put
 *  when a busy neighbour slows the host. */
constexpr double kReferenceS = 0.067;

// ---------------------------------------------------------------------
// Workloads. All: U55C, 4 replicas, max_batch 8, LeastKvLoad, Heap
// event core, open loop. Latencies are simulated and measured from
// each request's arrival, its due time; simulated arrivals are exact,
// so the generator is never late.
// ---------------------------------------------------------------------

constexpr int kReplicas = 4;
constexpr int kLadderRungs = 5;

struct Workload
{
    const char *name;
    models::LlmConfig (*model)();
    serving::TraceShape shape;

    /** Poisson arrival rate; for a bursty trace the quiet-phase
     *  rate, which bursts multiply by kBurstFactor. */
    double rate_req_s;
    int64_t requests;
    int64_t min_input, max_input, min_output, max_output;
    int64_t prefix_groups, prefix_len;
    int64_t kv_budget_tokens;
    double deadline_slack_ms;

    /** Tier the weights stream from. Its plan sets the reload window
     *  of crash recovery and swaps on every workload; with
     *  cold_start every replica also starts with its weights still
     *  streaming (overlap on). */
    serving::StorageTierProfile (*tier)();
    bool cold_start;

    /** Crash, slowdown and swap, anchored to the last arrival. */
    bool faults;

    /** SLO ladder: fixed rates (same meaning as rate_req_s), each
     *  served with requests / 4. */
    double ladder[kLadderRungs];
    double ttft_slo_ms, tbt_slo_ms;
};

// Rates and trace lengths keep every simulated metric's spread
// across seeds (interquartile range over median) under ~7%: a queue
// held near saturation, or two faults stacked into one window, makes
// the p99 swing with the seed. long_context's KV budget makes
// preemptions at least 1% of requests.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"steady_prefix", models::gpt2Config,
         serving::TraceShape::Poisson, 13.0, 40000, 8, 96, 8, 64, 8,
         64, 8192, 0.0, serving::gp3Tier, false, false,
         {13.5, 14.5, 15.5, 16.5, 17.5}, 1000.0, 100.0},
        {"fault_storm", models::gpt2Config,
         serving::TraceShape::Bursty, 2.4, 40000, 16, 512, 8, 64, 0,
         0, 2048, 60000.0, serving::s3Tier, true, true,
         {2.2, 2.5, 2.8, 3.1, 3.4}, 5000.0, 250.0},
        {"long_context", models::llamaConfig,
         serving::TraceShape::Poisson, 1.1, 24000, 32, 768, 8, 128, 0,
         0, 1280, 0.0, serving::gp3Tier, false, false,
         {1.0, 1.2, 1.4, 1.6, 1.8}, 10000.0, 500.0},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

constexpr double kBurstPeriodMs = 2000.0;
constexpr double kBurstDuty = 0.25;
constexpr double kBurstFactor = 8.0;

std::vector<serving::Request>
makeTrace(const Workload &w, uint64_t seed, double rate_req_s,
          int64_t requests)
{
    serving::TraceOptions o;
    o.num_requests = requests;
    o.seed = seed;
    o.mean_interarrival_ms = 1000.0 / rate_req_s;
    o.min_input_len = w.min_input;
    o.max_input_len = w.max_input;
    o.min_output_len = w.min_output;
    o.max_output_len = w.max_output;
    o.num_prefix_groups = w.prefix_groups;
    o.shared_prefix_len = w.prefix_len;
    o.deadline_slack_ms = w.deadline_slack_ms;
    o.burst_period_ms = kBurstPeriodMs;
    o.burst_duty = kBurstDuty;
    o.burst_factor = kBurstFactor;
    return w.shape == serving::TraceShape::Bursty
               ? serving::burstyTrace(o)
               : serving::poissonTrace(o);
}

/** Requests over the span of their arrivals. */
double
offeredReqPerS(const std::vector<serving::Request> &trace)
{
    return static_cast<double>(trace.size()) /
           (trace.back().arrival_ms / 1e3);
}

serving::WeightStreamPlan
planWeights(const Workload &w)
{
    serving::WeightStreamOptions o;
    o.tier = w.tier();
    return serving::WeightStreamer(o).plan(
        serving::ModelArtifact::fromConfig(w.model()));
}

/** Crashes of the closing storm. One crash evacuates only a
 *  replica's batch and queue (about one request at this load), so
 *  failover stays the hot path only if crashes repeat. */
constexpr int kStormCrashes = 96;

/** Burst-window instants of the period holding @p t. */
double
burstMidMs(double t)
{
    return std::floor(t / kBurstPeriodMs) * kBurstPeriodMs +
           0.5 * kBurstDuty * kBurstPeriodMs;
}

double
burstEndMs(double t)
{
    return std::floor(t / kBurstPeriodMs) * kBurstPeriodMs +
           kBurstDuty * kBurstPeriodMs;
}

/** Fleet configuration for one trace. Fault instants scale with the
 *  trace's last arrival T, so every seed and ladder rung sees the
 *  same fault structure:
 *   - replica 0 crashes inside the burst nearest 0.25 T and recovers
 *     at 0.45 T (then reloads its weights);
 *   - replica 2 runs 3x slow from 0.46 T to 0.70 T, after replica 0
 *     is back: stacked on the crash, the slowdown left the fleet
 *     just short of the offered load, and the p99 then swung by 40%
 *     from seed to seed;
 *   - replica 1 hot-swaps its model at 0.60 T;
 *   - from 0.75 T to 0.95 T a storm crashes the replicas in turn at
 *     the end of a burst window, when queues are deepest, each
 *     recovering one second later. */
serving::FleetOptions
fleetOptions(const Workload &w,
             const std::vector<serving::Request> &trace,
             const serving::WeightStreamPlan &plan)
{
    serving::FleetOptions o;
    o.num_replicas = kReplicas;
    o.replica.max_batch = 8;
    o.replica.kv_budget_tokens = w.kv_budget_tokens;
    o.replica.metrics.keep_records =
        serving::MetricsOptions::KeepRecords::Always;
    o.balancer = serving::LbPolicy::LeastKvLoad;
    o.event_core = serving::FleetEventCore::Heap;
    o.recovery_reload_ms = plan.streamMs();
    if (w.cold_start) {
        o.replica.cold_start.plan = plan;
        o.replica.cold_start.overlap = true;
    }
    if (w.faults) {
        double t = trace.back().arrival_ms;
        using serving::FaultKind;
        o.faults.events = {
            {burstMidMs(0.25 * t), 0, FaultKind::Crash, 1.0},
            {0.45 * t, 0, FaultKind::Recover, 1.0},
            {0.46 * t, 2, FaultKind::SlowStart, 3.0},
            {0.70 * t, 2, FaultKind::SlowEnd, 1.0},
            {0.60 * t, 1, FaultKind::Swap, 1.0},
        };
        for (int k = 0; k < kStormCrashes; ++k) {
            double at = burstEndMs((0.75 + 0.2 * k / kStormCrashes) * t);
            int replica = k % kReplicas;
            o.faults.events.push_back(
                {at, replica, FaultKind::Crash, 1.0});
            o.faults.events.push_back(
                {at + 1000.0, replica, FaultKind::Recover, 1.0});
        }
    }
    return o;
}

/** Every prefill and decode bucket up to the bucket of the largest
 *  context a request reaches (prompt + output - 1). Recompute
 *  prefills after a preemption or failover cover the whole context,
 *  so prefill buckets must go that high too. */
std::vector<models::BlockShapes>
shapeSet(const Workload &w)
{
    models::BucketPolicy buckets;
    int64_t top = models::bucketLen(
        w.max_input + w.prefix_len + w.max_output - 1, buckets);
    std::vector<models::BlockShapes> shapes;
    for (int64_t b : models::bucketBoundaries(buckets)) {
        if (b > top)
            break;
        shapes.push_back(models::prefillShapes(b));
        shapes.push_back(models::decodeShapes(b));
    }
    return shapes;
}

// ---------------------------------------------------------------------
// Correctness checks.
// ---------------------------------------------------------------------

class Checks
{
  public:
    void expect(bool ok, const char *what)
    {
        if (ok)
            return;
        ++failed_;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    }

    bool allPassed() const { return failed_ == 0; }

  private:
    int failed_ = 0;
};

/** The simulated outcome of one fleet run: a pure function of the
 *  workload, rate and seed, so it must be bit-identical across
 *  reruns, traced or not. */
struct SimOutcome
{
    int64_t sent = 0;
    int64_t completed = 0;
    int64_t failed = 0; ///< rejected + expired + lost
    int64_t output_tokens = 0;
    int64_t steps = 0;
    int64_t preemptions = 0;
    int64_t failovers = 0;
    double makespan_ms = 0.0;
    double ttft_mean_ms = 0.0, ttft_p50_ms = 0.0, ttft_p99_ms = 0.0;
    double tbt_mean_ms = 0.0, tbt_p50_ms = 0.0, tbt_p99_ms = 0.0;

    double failFrac() const
    {
        return static_cast<double>(failed) / static_cast<double>(sent);
    }

    auto key() const
    {
        return std::tie(sent, completed, failed, output_tokens, steps,
                        preemptions, failovers, makespan_ms,
                        ttft_mean_ms, ttft_p50_ms, ttft_p99_ms,
                        tbt_mean_ms, tbt_p50_ms, tbt_p99_ms);
    }

    bool operator==(const SimOutcome &o) const
    {
        return key() == o.key();
    }
};

/** Summarize @p result (TTFT and TBT are per request; TBT is its
 *  mean gap between output tokens) and check request accounting and
 *  the run-level invariants. */
SimOutcome
summarize(const serving::FleetResult &result, int64_t sent,
          const serving::ExecutorCostModel &cost, Checks &checks)
{
    const auto &m = result.metrics;
    SimOutcome s;
    s.sent = sent;
    s.completed = m.completed;
    s.failed = m.rejected_queue_full + m.rejected_too_long +
               m.rejected_drained + m.expired_deadline +
               m.requests_lost;
    s.output_tokens = m.total_output_tokens;
    s.steps = m.steps;
    s.preemptions = m.preemptions;
    s.failovers = m.failovers;
    s.makespan_ms = m.makespan_ms;

    std::vector<double> ttft, tbt;
    ttft.reserve(m.requests.size());
    tbt.reserve(m.requests.size());
    int64_t record_tokens = 0;
    for (const auto &r : m.requests) {
        ttft.push_back(r.ttftMs());
        tbt.push_back(r.tbtMs());
        record_tokens += r.output_len;
    }
    s.ttft_mean_ms = mean(ttft);
    s.tbt_mean_ms = mean(tbt);
    s.ttft_p50_ms = pct(ttft, 50.0);
    s.ttft_p99_ms = pct(ttft, 99.0);
    s.tbt_p50_ms = pct(tbt, 50.0);
    s.tbt_p99_ms = pct(tbt, 99.0);

    checks.expect(s.completed + s.failed == sent,
                  "completed + rejected + expired + lost == sent");
    checks.expect(m.records_complete &&
                      static_cast<int64_t>(m.requests.size()) ==
                          s.completed,
                  "one record per completed request");
    checks.expect(record_tokens == m.total_output_tokens,
                  "completed output tokens == "
                  "FleetMetrics::total_output_tokens");
    checks.expect(!cost.sawDeadlock(), "no costed block deadlocked");
    checks.expect(!result.hit_step_limit,
                  "the run drained before the step limit");
    return s;
}

// ---------------------------------------------------------------------
// Tracing: spans recorded around calls into each layer, kept in
// memory and written as Chrome trace-event JSON when the run ends.
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;

    double seconds() const { return (end_us - start_us) * 1e-6; }
};

class SpanTrace
{
  public:
    SpanTrace() : origin_(Clock::now()) {}

    double usAt(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    int open(std::string name, int parent = -1)
    {
        return add(std::move(name), usAt(Clock::now()), 0.0, parent);
    }

    void close(int id) { spans_[id].end_us = usAt(Clock::now()); }

    int add(std::string name, double start_us, double end_us,
            int parent)
    {
        spans_.push_back({std::move(name), start_us, end_us, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    const Span &operator[](int id) const { return spans_[id]; }

    /** Σ durations of the spans named @p name. */
    double totalSeconds(const std::string &name) const
    {
        double s = 0.0;
        for (const auto &sp : spans_)
            if (sp.name == name)
                s += sp.seconds();
        return s;
    }

    /** Σ durations of the top-level spans: the traced wall time. */
    double rootSeconds() const
    {
        double s = 0.0;
        for (const auto &sp : spans_)
            if (sp.parent < 0)
                s += sp.seconds();
        return s;
    }

    bool writeChrome(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        char buf[256];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &sp = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}",
                          i ? "," : "", sp.name.c_str(), sp.start_us,
                          sp.end_us - sp.start_us, i, sp.parent);
            out << buf;
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** cost_model.step spans kept individually per traced run; every
 *  timed call still lands in the aggregates. */
constexpr size_t kMaxStepSpans = 10000;

/** One stepMs() call in this many is timed. A median call takes
 *  ~0.25 us and two clock reads ~0.08 us, so timing every call
 *  slowed the traced run by ~15%. */
constexpr int64_t kStepSampleEvery = 16;

/** StepCostModel decorator counting every stepMs() call and timing
 *  one in kStepSampleEvery. */
class TimedCostModel : public serving::StepCostModel
{
  public:
    TimedCostModel(serving::StepCostModel &inner, const SpanTrace &clock)
        : inner_(inner), clock_(clock)
    {}

    double
    stepMs(const std::vector<runtime::StepGroup> &groups) override
    {
        if (calls_++ % kStepSampleEvery)
            return inner_.stepMs(groups);
        auto t0 = Clock::now();
        double ms = inner_.stepMs(groups);
        auto t1 = Clock::now();
        sampled_us_.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (kept_.size() < kMaxStepSpans)
            kept_.emplace_back(clock_.usAt(t0), clock_.usAt(t1));
        return ms;
    }

    int64_t calls_ = 0;
    std::vector<double> sampled_us_;
    std::vector<std::pair<double, double>> kept_;

  private:
    serving::StepCostModel &inner_;
    const SpanTrace &clock_;
};

// ---------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------

class Report
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        std::printf("%-28s = %.6g %s\n", name.c_str(), value, unit);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics_.empty() ? "" : ", ", name.c_str(),
                      std::isfinite(value) ? value : 0.0, unit);
        metrics_ += buf;
    }

    std::string json(bool correct, int64_t attempted,
                     int64_t failed) const
    {
        return std::string("{\"correct\": ") +
               (correct ? "true" : "false") +
               ", \"attempted\": " + std::to_string(attempted) +
               ", \"failed\": " + std::to_string(failed) +
               ", \"metrics\": {" + metrics_ + "}}";
    }

  private:
    std::string metrics_;
};

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string chrome_trace;
};

class Bench
{
  public:
    Bench(const Workload &w, const Options &opt)
        : w_(w), opt_(opt), shapes_(shapeSet(w)),
          requests_(opt.smoke ? 200 : w.requests)
    {}

    /** Run the configured mode; true when every check passed. */
    bool run(Report &report);

    int64_t attempted() const { return nominal_.sent; }
    int64_t failed() const { return nominal_.failed; }

  private:
    /** A fresh executor with every shape of the set compiled and
     *  simulated, handed to the shared pool the way
     *  LlmExecutor::step warms a step's shapes (inline under
     *  onOneThread). */
    std::unique_ptr<runtime::LlmExecutor> warmExecutor() const
    {
        auto executor = std::make_unique<runtime::LlmExecutor>(
            w_.model(), hls::u55c());
        support::ThreadPool::shared().run(
            static_cast<int64_t>(shapes_.size()),
            [&](int64_t i) { (void)executor->block(shapes_[i]); });
        return executor;
    }

    void checkCompileCount(const runtime::LlmExecutor &executor)
    {
        checks_.expect(executor.compileCount() ==
                           static_cast<int64_t>(shapes_.size()),
                       "no lazy compiles: the warmed shape set covers "
                       "every step");
    }

    /** Serve the nominal trace once through @p cost; returns the
     *  wall seconds of FleetScheduler::run. */
    double serve(serving::StepCostModel &cost,
                 serving::FleetResult &result)
    {
        serving::FleetScheduler fleet(fleetOptions(w_, trace_, plan_),
                                      cost);
        auto trace = trace_;
        auto t0 = Clock::now();
        result = fleet.run(std::move(trace));
        return secondsSince(t0);
    }

    /** One untraced nominal run, checked bit-identical to the
     *  first; returns its wall seconds. */
    double untracedRun()
    {
        serving::ExecutorCostModel cost(*executor_);
        serving::FleetResult result;
        double wall = serve(cost, result);
        SimOutcome s = summarize(result, requests_, cost, checks_);
        if (nominal_.sent == 0)
            nominal_ = s;
        checks_.expect(s == nominal_,
                       "simulated metrics are bit-identical across "
                       "runs");
        return wall;
    }

    struct HostTimes
    {
        double setup_s, run_s;
    };

    double setup();
    HostTimes timedRuns(double budget_s);
    void reportEndToEnd(Report &report, const HostTimes &host);
    double ladder();
    void traced(Report &report, double budget_s);
    void stepFanout(Report &report, double budget_s);

    const Workload &w_;
    const Options &opt_;
    std::vector<models::BlockShapes> shapes_;
    int64_t requests_;
    Checks checks_;

    std::vector<serving::Request> trace_;
    serving::WeightStreamPlan plan_;
    std::unique_ptr<runtime::LlmExecutor> executor_;
    double peak_rss_mb_ = 0.0;
    SimOutcome nominal_;
};

/** Set-up is constructing the executor and compiling its shape set,
 *  plus the weight-stream plan; returns its wall seconds. */
double
Bench::setup()
{
    executor_.reset();
    auto t0 = Clock::now();
    executor_ = warmExecutor();
    plan_ = planWeights(w_);
    double seconds = secondsSince(t0);
    checkCompileCount(*executor_);
    return seconds;
}

/** One untimed warm-up run, then samples until @p budget_s has passed
 *  (at least three, one in smoke mode). A sample times a fresh set-up
 *  and a run on it, so set-up is sampled across the same window as
 *  the runs rather than in one burst before them; referenceSeconds()
 *  is timed before the first sample and after each. Each host time is
 *  the median over samples of its wall time over the mean of the two
 *  reference times around it, times kReferenceS. */
Bench::HostTimes
Bench::timedRuns(double budget_s)
{
    untracedRun();
    // Read before the repeated set-ups, whose heap growth would tie
    // the peak to how many runs fit in the budget.
    peak_rss_mb_ = peakRssMb();
    size_t min_runs = opt_.smoke ? 1 : 3;
    std::vector<double> refs{referenceSeconds()}, setups, walls,
        setup_rel, run_rel;
    auto start = Clock::now();
    while (walls.size() < min_runs || secondsSince(start) < budget_s) {
        setups.push_back(setup());
        walls.push_back(untracedRun());
        refs.push_back(referenceSeconds());
        // The reference times on either side of the sample.
        double ref = 0.5 * (refs[refs.size() - 2] + refs.back());
        setup_rel.push_back(setups.back() / ref);
        run_rel.push_back(walls.back() / ref);
    }
    std::printf("timed runs: %zu; wall medians: reference %.4f s "
                "(%.2fx the idle host's), setup %.4f s, run %.4f s\n",
                walls.size(), median(refs), median(refs) / kReferenceS,
                median(setups), median(walls));
    return {median(setup_rel) * kReferenceS,
            median(run_rel) * kReferenceS};
}

/** Serve each ladder rate with requests / 4 and return the highest
 *  offered rate (requests over the trace's span) meeting the SLO,
 *  refined between the last passing and the first failing rung by
 *  linear interpolation of the SLO margin. The margin is the largest
 *  of each condition's value over its limit, so <= 1 meets all:
 *  fail_frac <= 0.01, ttft_p99 and tbt_p99 within the SLO, and
 *  served >= 0.95 offered (no growing backlog). */
double
Bench::ladder()
{
    int64_t n = requests_ / 4;
    double offered[kLadderRungs], margin[kLadderRungs];
    std::printf("ladder: n=%lld per rung, SLO ttft_p99 <= %.0f ms, "
                "tbt_p99 <= %.0f ms\n",
                static_cast<long long>(n), w_.ttft_slo_ms,
                w_.tbt_slo_ms);
    for (int i = 0; i < kLadderRungs; ++i) {
        auto trace = makeTrace(w_, opt_.seed, w_.ladder[i], n);
        offered[i] = offeredReqPerS(trace);
        serving::ExecutorCostModel cost(*executor_);
        serving::FleetScheduler fleet(fleetOptions(w_, trace, plan_),
                                      cost);
        auto result = fleet.run(std::move(trace));
        SimOutcome s = summarize(result, n, cost, checks_);
        double served = s.completed / (s.makespan_ms / 1e3);
        margin[i] = std::max({s.failFrac() / 0.01,
                              s.ttft_p99_ms / w_.ttft_slo_ms,
                              s.tbt_p99_ms / w_.tbt_slo_ms,
                              (1.0 - served / offered[i]) / 0.05});
        std::printf("  rung %d (%.4g): offered %6.3f req/s, served "
                    "%6.3f, ttft_p99 %8.1f ms, tbt_p99 %6.1f ms, "
                    "fail_frac %.4f, margin %.3f %s\n",
                    i, w_.ladder[i], offered[i], served, s.ttft_p99_ms,
                    s.tbt_p99_ms, s.failFrac(), margin[i],
                    margin[i] <= 1.0 ? "pass" : "fail");
    }
    int best = -1;
    for (int i = 0; i < kLadderRungs; ++i)
        if (margin[i] <= 1.0)
            best = i;
    std::printf("highest passing rung: %d of 0..%d\n", best,
                kLadderRungs - 1);
    checks_.expect(best >= 0, "the lowest ladder rung meets the SLO");
    if (best < 0)
        return 0.0;
    if (best + 1 == kLadderRungs)
        return offered[best];
    double lo = margin[best], hi = margin[best + 1];
    return offered[best] + (offered[best + 1] - offered[best]) *
                               (1.0 - lo) / (hi - lo);
}

void
Bench::reportEndToEnd(Report &report, const HostTimes &host)
{
    const SimOutcome &s = nominal_;
    std::printf("requests_sent = %lld, requests_failed = %lld, "
                "latency samples = %lld\n"
                "ttft p50 %.3f ms, tbt p50 %.3f ms (not metrics: "
                "medians land on exact per-bucket step costs)\n",
                static_cast<long long>(s.sent),
                static_cast<long long>(s.failed),
                static_cast<long long>(s.completed), s.ttft_p50_ms,
                s.tbt_p50_ms);
    if (!opt_.smoke)
        checks_.expect(s.completed >= 1000,
                       "p99 has at least ten samples beyond it");
    double slo_rate = opt_.smoke ? 0.0 : ladder();
    report.add("ttft_mean_ms", s.ttft_mean_ms, "ms");
    report.add("ttft_p99_ms", s.ttft_p99_ms, "ms");
    report.add("tbt_mean_ms", s.tbt_mean_ms, "ms");
    report.add("tbt_p99_ms", s.tbt_p99_ms, "ms");
    if (!opt_.smoke)
        report.add("slo_rate_req_per_s", slo_rate, "req/s");
    report.add("completed_frac", 1.0 - s.failFrac(), "fraction");
    report.add("setup_s", host.setup_s, "s");
    report.add("run_s", host.run_s, "s");
    report.add("peak_rss_mb", peak_rss_mb_, "MiB");
}

/** The traced run: trace generation, the weights plan and set-up as
 *  spans (per shape: build, compile with its stages laid end to end
 *  from StageTimes, simulate — called directly, serially), a fresh
 *  executor warm-up, then fleet runs through a sampling cost-model
 *  decorator, alternating with untraced runs, until @p budget_s has
 *  passed. The traced run with the median wall time supplies the
 *  per-layer split; its cost-model time is the sampled mean call
 *  time times the call count. */
void
Bench::traced(Report &report, double budget_s)
{
    SpanTrace spans;
    int sp = spans.open("trace.gen");
    auto trace = makeTrace(w_, opt_.seed, w_.rate_req_s, requests_);
    spans.close(sp);
    sp = spans.open("weights.plan");
    auto plan = planWeights(w_);
    spans.close(sp);

    auto config = w_.model();
    auto platform = hls::u55c();
    std::vector<std::string> stage_names;
    std::map<std::string, double> stage_s;
    std::vector<double> direct_cycles;
    int64_t sim_events = 0, sim_deadlocks = 0;
    double sim_cycles = 0.0;
    int setup = spans.open("setup");
    for (const auto &shape : shapes_) {
        int shape_span = spans.open(
            "shape " + std::to_string(shape.seq_len) + "x" +
                std::to_string(shape.kv_len),
            setup);
        sp = spans.open("models.build", shape_span);
        linalg::Graph graph =
            models::buildTransformerBlock(config, shape);
        spans.close(sp);
        int compile = spans.open("compiler.compile", shape_span);
        auto compiled = compiler::compile(std::move(graph), platform);
        spans.close(compile);
        double at = spans[compile].start_us;
        for (const auto &[name, s] : compiled.times.stages) {
            spans.add("compiler." + name, at, at + s * 1e6, compile);
            at += s * 1e6;
            if (!stage_s.count(name))
                stage_names.push_back(name);
            stage_s[name] += s;
        }
        sp = spans.open("sim.simulate", shape_span);
        auto sims = sim::simulateAll(compiled.design.components);
        spans.close(sp);
        double cycles = 0.0;
        for (const auto &r : sims) {
            cycles += r.cycles;
            sim_events += r.events;
            sim_deadlocks += r.deadlock || r.timed_out;
        }
        direct_cycles.push_back(cycles);
        sim_cycles += cycles;
        spans.close(shape_span);
    }
    spans.close(setup);
    checks_.expect(sim_deadlocks == 0,
                   "no simulated group deadlocked or timed out");

    sp = spans.open("runtime.warm");
    auto executor = warmExecutor();
    spans.close(sp);
    bool same_cycles = true;
    for (size_t i = 0; i < shapes_.size(); ++i)
        same_cycles = same_cycles && executor->block(shapes_[i])
                                             .totalCycles() ==
                                         direct_cycles[i];
    checks_.expect(same_cycles,
                   "direct compile + simulateAll cycles equal the "
                   "executor's cached CompiledBlock::totalCycles()");
    checkCompileCount(*executor);
    executor.reset();

    struct TracedRun
    {
        double start_us, end_us;
        int64_t calls;
        std::vector<double> sampled_us;
        std::vector<std::pair<double, double>> kept;

        double seconds() const { return (end_us - start_us) * 1e-6; }
    };
    std::vector<TracedRun> runs;
    serving::FleetResult result;
    auto tracedRun = [&] {
        serving::ExecutorCostModel inner(*executor_);
        TimedCostModel cost(inner, spans);
        serving::FleetScheduler fleet(fleetOptions(w_, trace, plan),
                                      cost);
        auto copy = trace;
        double t0 = spans.usAt(Clock::now());
        serving::FleetResult fresh = fleet.run(std::move(copy));
        double t1 = spans.usAt(Clock::now());
        // Destroying the previous result is not this run's work.
        result = std::move(fresh);
        SimOutcome s = summarize(result, requests_, inner, checks_);
        checks_.expect(s == nominal_, "traced runs are bit-identical "
                                      "to the untraced runs");
        runs.push_back({t0, t1, cost.calls_, std::move(cost.sampled_us_),
                        std::move(cost.kept_)});
    };

    // Traced and untraced runs alternate on one executor, and each
    // pair swaps which goes first, so the overhead estimate compares
    // like with like.
    std::vector<double> untraced_s;
    size_t min_runs = opt_.smoke ? 1 : 3;
    untracedRun();
    auto start = Clock::now();
    while (runs.size() < min_runs || secondsSince(start) < budget_s) {
        if (runs.size() % 2) {
            tracedRun();
            untraced_s.push_back(untracedRun());
        } else {
            untraced_s.push_back(untracedRun());
            tracedRun();
        }
    }
    std::vector<double> walls;
    for (const auto &r : runs)
        walls.push_back(r.seconds());
    double run_s = median(untraced_s);
    std::sort(runs.begin(), runs.end(),
              [](const TracedRun &a, const TracedRun &b) {
                  return a.seconds() < b.seconds();
              });
    const TracedRun &run = runs[(runs.size() - 1) / 2];
    int fleet_span = spans.add("fleet.run", run.start_us, run.end_us, -1);
    for (const auto &[t0, t1] : run.kept)
        spans.add("cost_model.step", t0, t1, fleet_span);

    double fleet_s = run.seconds();
    double cost_s = mean(run.sampled_us) * 1e-6 *
                    static_cast<double>(run.calls);
    double fleet_self_s = fleet_s - cost_s;

    const auto &fm = result.metrics;
    int64_t batched = 0, replica_steps = 0, page_steps = 0,
            page_capacity = 0, max_queue = 0, peak_pages = 0,
            prefix_hit = 0, prefix_touch = 0;
    double busy_ms = 0.0, overlap = 0.0;
    for (const auto &r : result.replicas) {
        const auto &m = r.metrics;
        batched += m.total_batched_seqs;
        replica_steps += m.steps;
        busy_ms += m.busy_ms;
        page_steps += m.page_step_sum;
        page_capacity += m.pool_pages * m.steps;
        max_queue = std::max(max_queue, m.max_queue_depth);
        peak_pages = std::max(peak_pages, m.peak_pages_active);
        prefix_hit += m.prefix_hit_pages;
        prefix_touch += m.prefix_hit_pages + m.prefix_miss_pages;
        overlap += m.weightOverlapFraction() / kReplicas;
    }
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    double layers_s = spans.totalSeconds("trace.gen") +
                      spans.totalSeconds("weights.plan") +
                      spans.totalSeconds("models.build") +
                      spans.totalSeconds("compiler.compile") +
                      spans.totalSeconds("sim.simulate") +
                      spans.totalSeconds("runtime.warm") +
                      fleet_self_s + cost_s;
    double traced_wall_s = spans.rootSeconds();

    std::printf("traced runs: %zu, untraced median %.4f s; "
                "weights.stream_ms = %.3f, weights.stall_ms = %.3f "
                "(Σ replicas)\n",
                runs.size(), run_s, plan.streamMs(),
                fm.weight_stall_ms);
    report.add("trace.gen_s", spans.totalSeconds("trace.gen"), "s");
    report.add("weights.plan_s", spans.totalSeconds("weights.plan"),
               "s");
    report.add("weights.overlap_frac", overlap, "fraction");
    report.add("runtime.shapes", static_cast<double>(shapes_.size()),
               "count");
    report.add("runtime.warm_s", spans.totalSeconds("runtime.warm"),
               "s");
    report.add("models.build_s", spans.totalSeconds("models.build"),
               "s");
    for (const auto &name : stage_names)
        report.add("compiler." + name + "_s", stage_s[name], "s");
    report.add("compiler.total_s",
               spans.totalSeconds("compiler.compile"), "s");
    double sim_s = spans.totalSeconds("sim.simulate");
    report.add("sim.s", sim_s, "s");
    report.add("sim.events", static_cast<double>(sim_events), "count");
    report.add("sim.events_per_s", ratio(sim_events, sim_s), "1/s");
    report.add("sim.cycles", sim_cycles, "cycles");
    report.add("cost_model.calls", static_cast<double>(run.calls),
               "count");
    report.add("cost_model.s", cost_s, "s");
    report.add("cost_model.call_us_p50", pct(run.sampled_us, 50.0),
               "us");
    report.add("cost_model.call_us_p99", pct(run.sampled_us, 99.0),
               "us");
    report.add("cost_model.share", ratio(cost_s, fleet_s), "fraction");
    report.add("fleet.self_s", fleet_self_s, "s");
    report.add("fleet.self_us_per_step",
               ratio(fleet_self_s * 1e6, static_cast<double>(fm.steps)),
               "us");
    report.add("fleet.steps", static_cast<double>(fm.steps), "count");
    report.add("fleet.failovers", static_cast<double>(fm.failovers),
               "count");
    report.add("fleet.aborted_steps",
               static_cast<double>(fm.aborted_steps), "count");
    report.add("fleet.reloads", static_cast<double>(fm.reloads),
               "count");
    report.add("fleet.lost", static_cast<double>(fm.requests_lost),
               "count");
    report.add("fleet.uptime_frac", fm.uptimeFraction(), "fraction");
    report.add("replica.mean_batch",
               ratio(static_cast<double>(batched),
                     static_cast<double>(replica_steps)),
               "seqs");
    report.add("replica.utilization",
               ratio(busy_ms, kReplicas * fm.makespan_ms), "fraction");
    report.add("replica.max_queue_depth", static_cast<double>(max_queue),
               "count");
    report.add("replica.expired",
               static_cast<double>(fm.expired_deadline), "count");
    report.add("replica.rejected",
               static_cast<double>(fm.rejected_queue_full +
                                   fm.rejected_too_long +
                                   fm.rejected_drained),
               "count");
    report.add("kv.prefix_hit_rate",
               ratio(static_cast<double>(prefix_hit),
                     static_cast<double>(prefix_touch)),
               "fraction");
    report.add("kv.preemptions", static_cast<double>(fm.preemptions),
               "count");
    report.add("kv.page_util",
               ratio(static_cast<double>(page_steps),
                     static_cast<double>(page_capacity)),
               "fraction");
    report.add("kv.peak_pages_active", static_cast<double>(peak_pages),
               "pages");
    report.add("tracing.overhead_frac",
               ratio(median(walls) - run_s, run_s), "fraction");
    report.add("tracing.attributed_frac",
               ratio(layers_s, traced_wall_s), "fraction");

    if (!opt_.chrome_trace.empty()) {
        checks_.expect(spans.writeChrome(opt_.chrome_trace),
                       "the Chrome trace was written");
        std::printf("chrome trace: %s\n", opt_.chrome_trace.c_str());
    }
}

/** What LlmExecutor::step's per-step fan-out over the shared pool
 *  adds to a run: untraced runs driven from the main thread, where
 *  every step with several shapes wakes the pool, alternate with runs
 *  on one thread until @p budget_s has passed (at least three pairs);
 *  reports the difference of their median wall times. */
void
Bench::stepFanout(Report &report, double budget_s)
{
    std::vector<double> pooled, single;
    size_t min_pairs = opt_.smoke ? 1 : 3;
    auto start = Clock::now();
    while (pooled.size() < min_pairs || secondsSince(start) < budget_s) {
        pooled.push_back(untracedRun());
        onOneThread([&] { single.push_back(untracedRun()); });
    }
    std::printf("fan-out pairs: %zu, pooled median %.4f s, one-thread "
                "median %.4f s\n",
                pooled.size(), median(pooled), median(single));
    report.add("runtime.step_fanout_s", median(pooled) - median(single),
               "s");
}

bool
Bench::run(Report &report)
{
    const Workload &w = w_;
    trace_ = makeTrace(w_, opt_.seed, w_.rate_req_s, requests_);
    std::printf(
        "workload %s: %s, %s %.4g req/s (offered %.4g), %lld requests, "
        "input %lld-%lld (+%lld shared prefix, %lld groups), output "
        "%lld-%lld, kv %lld tokens/replica, %d replicas, %zu shapes, "
        "seed %llu\n",
        w.name, w.model().name.c_str(),
        w.shape == serving::TraceShape::Bursty
            ? "bursty, quiet-phase"
            : "poisson",
        w.rate_req_s,
        offeredReqPerS(trace_),
        static_cast<long long>(requests_),
        static_cast<long long>(w.min_input),
        static_cast<long long>(w.max_input),
        static_cast<long long>(w.prefix_len),
        static_cast<long long>(w.prefix_groups),
        static_cast<long long>(w.min_output),
        static_cast<long long>(w.max_output),
        static_cast<long long>(w.kv_budget_tokens), kReplicas,
        shapes_.size(), static_cast<unsigned long long>(opt_.seed));

    onOneThread([&] {
        setup();
        if (!opt_.trace || opt_.smoke)
            reportEndToEnd(report, timedRuns(opt_.seconds));
        if (opt_.trace || opt_.smoke)
            traced(report, 0.75 * opt_.seconds);
    });
    if (opt_.trace || opt_.smoke)
        stepFanout(report, 0.25 * opt_.seconds);
    checkCompileCount(*executor_);
    return checks_.allPassed();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_stack --workload <name> --seed <n> "
                 "--seconds <s> --trace 0|1 [--chrome-trace <path>]\n"
                 "       e2e_stack --smoke\nworkloads:");
    for (const auto &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = findWorkload(value);
            if (!opt.workload)
                return usage();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            opt.trace = value == "1";
            if (value != "0" && value != "1")
                return usage();
        } else if (arg == "--chrome-trace") {
            opt.chrome_trace = value;
        } else {
            return usage();
        }
        if (end && (*end != '\0' || value.empty()))
            return usage();
    }
    if (!opt.smoke && !opt.workload)
        return usage();

    try {
        if (opt.smoke) {
            bool ok = true;
            opt.seconds = 0.0;
            for (const auto &w : workloads()) {
                Report report;
                Bench bench(w, opt);
                ok = bench.run(report) && ok;
            }
            std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
            return ok ? 0 : 1;
        }
        Report report;
        Bench bench(*opt.workload, opt);
        bool ok = bench.run(report);
        std::printf("%s\n",
                    report.json(ok, bench.attempted(), bench.failed())
                        .c_str());
        return ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_stack: %s\n", e.what());
        return 2;
    }
}
