/**
 * @file
 * perfbench binary: runs one workload for a fixed wall-clock
 * time and prints its metrics. perfbench/run.py builds and invokes it;
 * the last stdout line is the JSON result object.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>]
 *   perfbench --self-test
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * (--trace 1) record spans around the calls into each layer and report
 * the per-layer metrics. The two are separate runs so end-to-end
 * numbers never carry tracing cost; a traced run reports its own
 * untraced and traced op medians to show what tracing costs.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hh"

namespace perfbench
{

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile of no samples");
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::int32_t
Spans::begin(std::string name, std::int64_t op)
{
    const auto id = static_cast<std::int32_t>(spans_.size());
    Span s;
    s.name = std::move(name);
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startUs = msSince(origin_) * 1000.0;
    spans_.push_back(std::move(s));
    open_.push_back(id);
    return id;
}

void
Spans::end(std::int32_t id)
{
    spans_[static_cast<std::size_t>(id)].endUs = msSince(origin_) * 1000.0;
    open_.erase(std::find(open_.begin(), open_.end(), id));
}

std::vector<double>
Spans::durationsMs(const std::string& name) const
{
    std::vector<double> ms;
    for (const auto& s : spans_)
        if (s.name == name && s.endUs >= 0.0)
            ms.push_back((s.endUs - s.startUs) / 1000.0);
    return ms;
}

bool
Spans::writeChromeTrace(const std::string& path) const
{
    std::ofstream f(path);
    f << std::setprecision(std::numeric_limits<double>::max_digits10);
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        f << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": 1, \"ts\": " << s.startUs
          << ", \"dur\": " << (s.endUs - s.startUs)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"op\": " << s.op << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]}\n";
    return static_cast<bool>(f);
}

namespace
{

/**
 * At least kMinSetups set-ups, and more until kMinSetupS seconds of
 * set-up work (capped at kMaxSetups), so the median is stable.
 */
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 1000;
constexpr double kMinSetupS = 2.0;
/** p90 needs ten samples beyond it. */
constexpr std::int64_t kMinOps = 100;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
    bool selfTest = false;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why << "\nusage: perfbench --workload "
              << "<name> --seed <n> --seconds <s> --trace <0|1> "
              << "[--trace-out <file>]\n       perfbench --self-test\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                a.workload = v;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v, &used);
                have_seed = used == v.size();
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v, &used);
                have_seconds = used == v.size() && a.seconds > 0.0 &&
                    a.seconds <= 600.0;
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
                have_trace = true;
            } else if (flag == "--trace-out") {
                a.traceOut = v;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::exception&) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.selfTest)
        return a;
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds (0 < s <= 600) and --trace are required");
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  a.workload) == workloadNames().end())
        usage("unknown workload '" + a.workload + "'");
    return a;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Set up a fresh workload repeatedly; returns the last, ready one. */
std::unique_ptr<Workload>
setUp(const Args& a, Spans* spans, std::vector<double>& setup_s)
{
    std::unique_ptr<Workload> wl;
    double total = 0.0;
    while (setup_s.size() < static_cast<std::size_t>(kMinSetups) ||
           (total < kMinSetupS &&
            setup_s.size() < static_cast<std::size_t>(kMaxSetups))) {
        wl.reset();
        wl = makeWorkload(a.workload, a.seed);
        const auto t0 = Clock::now();
        wl->setup(spans);
        setup_s.push_back(msSince(t0) / 1000.0);
        total += setup_s.back();
    }
    return wl;
}

void
printResult(bool correct, std::int64_t attempted, std::int64_t failed,
            const Metrics& metrics)
{
    std::ostringstream o;
    o << std::setprecision(std::numeric_limits<double>::max_digits10);
    o << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value)
            ? metrics[i].value : 0.0;
        o << (i ? ", " : "") << "\"" << metrics[i].name
          << "\": {\"value\": " << v << ", \"unit\": \""
          << metrics[i].unit << "\"}";
    }
    o << "}}";
    std::cout << o.str() << std::endl;
}

int
selfTestAll()
{
    int failures = 0;
    for (const auto& name : workloadNames()) {
        auto wl = makeWorkload(name, 1);
        wl->setup(nullptr);
        // prepare() computes the references and runs selfTest().
        const std::string err = wl->prepare();
        std::cout << (err.empty() ? "ok   " : "FAIL ") << name
                  << (err.empty() ? "" : ": " + err) << "\n";
        failures += err.empty() ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

int
runWorkload(const Args& a)
{
    Spans spans;
    Spans* const tr = a.trace ? &spans : nullptr;
    std::vector<double> setup_s;
    auto wl = setUp(a, tr, setup_s);
    std::string error = wl->prepare();

    // A traced run alternates blocks (1 s, or a tenth of the run when
    // shorter) without and with spans, so the tracing overhead is
    // measured under the same host conditions.
    const double block_ms = std::min(1000.0, a.seconds * 100.0);
    std::vector<double> lat_ms, traced_ms;
    std::int64_t failed = 0;
    const auto start = Clock::now();
    for (std::int64_t i = 0; msSince(start) < a.seconds * 1000.0; ++i) {
        const bool traced_op =
            tr && static_cast<std::int64_t>(msSince(start) / block_ms) % 2;
        Spans* const op_tr = traced_op ? tr : nullptr;
        bool ok = true;
        const auto t0 = Clock::now();
        try {
            ScopedSpan op(op_tr, "op", i);
            wl->run(i, op_tr);
        } catch (const std::exception& e) {
            std::cerr << "op " << i << " threw: " << e.what() << "\n";
            ok = false;
        }
        (traced_op ? traced_ms : lat_ms).push_back(msSince(t0));
        if (ok && !wl->check(i))
            ok = false;
        failed += ok ? 0 : 1;
    }
    const double phase_s = msSince(start) / 1000.0;
    const auto ops = static_cast<std::int64_t>(lat_ms.size() +
                                               traced_ms.size());

    Metrics m;
    if (a.trace) {
        m.push_back({"untraced.latency_p50_ms", median(lat_ms), "ms"});
        m.push_back({"traced.latency_p50_ms", median(traced_ms), "ms"});
        const std::string layer_error = wl->layerMetrics(spans, m);
        if (error.empty())
            error = layer_error;
        if (!a.traceOut.empty() && !spans.writeChromeTrace(a.traceOut))
            std::cerr << "perfbench: cannot write " << a.traceOut << "\n";
    } else {
        m.push_back({"latency_p90_ms", percentile(lat_ms, 0.90), "ms"});
        m.push_back({"throughput_ops_s",
                     static_cast<double>(ops) / phase_s, "1/s"});
        m.push_back({"setup_s", median(setup_s), "s"});
        m.push_back({"rss_peak_mib", peakRssMiB(), "MiB"});
    }

    std::cout << "workload " << a.workload << " seed " << a.seed
              << (a.trace ? " (traced)" : "") << ": " << ops << " ops in "
              << phase_s << " s, " << failed << " failed, "
              << setup_s.size() << " set-ups\n";
    if (ops < kMinOps)
        std::cout << "warning: fewer than " << kMinOps
                  << " ops; latency_p90_ms has under 10 samples beyond "
                  << "it\n";
    if (!a.trace)
        std::cout << "  median op time " << median(lat_ms)
                  << " ms (not gated; see README.md)\n";
    if (a.trace)
        std::cout << "note: core.<kind>.bytes are computed from tensor "
                  << "sizes (inputs + parameters + outputs), not "
                  << "measured\n";
    for (const auto& x : m)
        std::cout << "  " << std::left << std::setw(32) << x.name
                  << std::right << std::setw(16) << x.value << " "
                  << x.unit << "\n";
    if (!error.empty())
        std::cout << "error: " << error << "\n";
    printResult(error.empty() && failed == 0, ops, failed, m);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    const auto args = perfbench::parseArgs(argc, argv);
    try {
        return args.selfTest ? perfbench::selfTestAll()
                             : perfbench::runWorkload(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
