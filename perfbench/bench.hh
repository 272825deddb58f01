/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): the span
 * recorder the traced run uses, the workload interface, and the
 * kernel-replay attribution. Everything here lives on the benchmark
 * side; the program under test is only called through its public
 * entry points. See README.md for the workloads and metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "edgebench/graph/graph.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p t0. */
double msSince(Clock::time_point t0);

/** Linear-interpolated percentile (@p p in [0, 1]) of @p v. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/**
 * In-memory span recorder of the traced run. Spans are taken around
 * calls into the program's public functions, kept in memory, and
 * written out as a Chrome trace when the run ends. Spans of one
 * operation share its index (@c op, -1 for set-up work).
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t op = -1;
        std::int32_t parent = -1;
        double startUs = 0.0;
        double endUs = -1.0;
    };

    Spans() : origin_(Clock::now()) {}

    /** Open a span; its parent is the innermost span still open. */
    std::int32_t begin(std::string name, std::int64_t op);
    void end(std::int32_t id);

    /** Durations (ms) of every closed span called @p name. */
    std::vector<double> durationsMs(const std::string& name) const;

    /** Write all spans as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** Span over a scope; a no-op when @p spans is null (untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(Spans* spans, std::string name, std::int64_t op = -1)
        : spans_(spans),
          id_(spans ? spans->begin(std::move(name), op) : -1)
    {}
    ~ScopedSpan()
    {
        if (spans_)
            spans_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Spans* spans_;
    std::int32_t id_;
};

/**
 * One benchmark workload. main.cc drives it: setup() several times
 * (timed as setup_s), prepare() once, then run()/check() in a closed
 * loop for the measured seconds, then layerMetrics() in traced runs.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything from nothing to ready. */
    virtual void setup(Spans* spans) = 0;

    /**
     * After the last setup(): compute references and warm up.
     * Returns an empty string, or why the workload cannot be checked.
     */
    virtual std::string prepare() = 0;

    /** One timed operation. May throw; that counts as a failure. */
    virtual void run(std::int64_t index, Spans* spans) = 0;

    /** Whether the outputs of the last run() are correct. */
    virtual bool check(std::int64_t index) const = 0;

    /**
     * Per-layer metrics of a traced run, after the timed phase.
     * Appends to @p out; returns an empty string or a failed
     * self-check (replay coverage).
     */
    virtual std::string layerMetrics(const Spans& spans,
                                     Metrics& out) = 0;

    /**
     * Shows the output check works: a reference perturbed by one bit
     * must be flagged, the true reference must not. Empty = passed.
     */
    virtual std::string selfTest() = 0;
};

/** Names of all workloads, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** The workload called @p name, or null when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

/** Kernel-replay totals of one op-kind bucket, per inference. */
struct KindStats
{
    double ms = 0.0;
    std::int64_t calls = 0;
    std::int64_t macs = 0;
    /** Input + parameter + output bytes, from tensor sizes. */
    std::int64_t bytes = 0;
};

/** Bucket names in reporting order. */
const std::vector<std::string>& replayKinds();

/**
 * Replay every node of the deployed graph @p g on the public kernel
 * the interpreter uses for it, on the node's own weights and geometry
 * and a seeded input of the node's input shape, at the current
 * parallelism. Returns one entry per replayKinds() bucket. Throws
 * when a node maps to no bucket.
 */
std::vector<KindStats> replayKernels(const edgebench::graph::Graph& g,
                                     std::uint64_t seed, int reps);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
