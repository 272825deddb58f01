/**
 * @file
 * The benchmark workloads. Each one operation is a closed-loop call
 * into the program's public entry points; README.md records why each
 * workload exists and which per-layer metric should move which
 * end-to-end metric on it.
 */

#include <functional>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "edgebench/core/kernels.hh"
#include "edgebench/core/parallel.hh"
#include "edgebench/core/simd.hh"
#include "edgebench/distrib/pipeline_sim.hh"
#include "edgebench/frameworks/deploy.hh"
#include "edgebench/graph/interpreter.hh"
#include "edgebench/graph/memplan.hh"
#include "edgebench/graph/passes.hh"
#include "edgebench/graph/verify.hh"
#include "edgebench/models/zoo.hh"
#include "edgebench/serving/fleet.hh"

namespace perfbench
{

namespace ec = edgebench::core;
namespace eg = edgebench::graph;
namespace ed = edgebench::distrib;
namespace ef = edgebench::frameworks;
namespace em = edgebench::models;
namespace es = edgebench::serving;
namespace eh = edgebench::hw;

namespace
{

/** Independent sub-seed @p stream of the workload seed (splitmix64). */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

enum Stream : std::uint64_t
{
    kWeights, kImages, kCalibration, kReplay, kFleet, kPipeline,
    kPerturb,
};

/** Flip one seeded bit of @p bytes at or after @p from. */
void
flipOneBit(std::string& bytes, std::size_t from, std::uint64_t seed)
{
    ec::Rng rng(subSeed(seed, kPerturb));
    const auto pos = static_cast<std::size_t>(rng.uniformInt(
        static_cast<std::int64_t>(from),
        static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<char>(
        bytes[pos] ^ (1 << rng.uniformInt(0, 7)));
}

// ---------------------------------------------------------------------
// Interpreter workloads: MobileNet-v1, 96 px, batch 1, 1000 classes.
// ---------------------------------------------------------------------

constexpr std::int64_t kImage = 96;
constexpr std::int64_t kClasses = 1000;
/** Distinct timed inputs, cycled through the ops. */
constexpr int kPoolImages = 4;
/** Whole-graph passes of the kernel replay (after one warm-up). */
constexpr int kReplayReps = 10;
/** Standalone verifyGraph/planMemory calls timed per traced run. */
constexpr int kPassReps = 5;
/**
 * Inference runs on one kernel thread: on a shared VM, steal episodes
 * tripled the tail of 2-thread inference between runs (README.md).
 * The pool is measured per layer instead, at this width.
 */
constexpr int kPoolThreads = 2;

struct InterpConfig
{
    bool fuse = true;
    bool int8 = false;
};

/** Payload bytes of the outputs: dtype, shape, then raw data. */
std::string
serialize(const std::vector<ec::Tensor>& outs)
{
    std::string s;
    for (const auto& t : outs) {
        s.push_back(static_cast<char>(t.dtype()));
        for (std::int64_t d : t.shape())
            s.append(reinterpret_cast<const char*>(&d), sizeof(d));
        if (t.dtype() == ec::DType::kI8) {
            const auto q = t.qdata();
            s.append(reinterpret_cast<const char*>(q.data()), q.size());
        } else {
            const auto f = t.data();
            s.append(reinterpret_cast<const char*>(f.data()),
                     f.size() * sizeof(float));
        }
    }
    return s;
}

/** Bytes of serialize() that precede the first tensor's payload. */
std::size_t
headerBytes(const std::vector<ec::Tensor>& outs)
{
    return 1 + outs.at(0).shape().size() * sizeof(std::int64_t);
}

/** Median wall time of one parallelFor region over many calls, us. */
double
regionUs(const std::function<void()>& region, int calls_per_sample)
{
    std::vector<double> us;
    for (int s = 0; s < 201; ++s) {
        const auto t0 = Clock::now();
        for (int c = 0; c < calls_per_sample; ++c)
            region();
        us.push_back(msSince(t0) * 1000.0 / calls_per_sample);
    }
    return median(us);
}

class InterpreterWorkload : public Workload
{
  public:
    InterpreterWorkload(InterpConfig cfg, std::uint64_t seed)
        : cfg_(cfg), seed_(seed)
    {
        const ec::Shape shape{1, 3, kImage, kImage};
        ec::Rng img_rng(subSeed(seed, kImages));
        for (int i = 0; i < kPoolImages; ++i)
            images_.push_back(
                ec::Tensor::randomUniform(shape, img_rng, 0.0, 1.0));
        // quantizeInt8 calibrates on one input set; it is drawn from
        // its own stream and never timed.
        ec::Rng cal_rng(subSeed(seed, kCalibration));
        calibration_.push_back(
            ec::Tensor::randomUniform(shape, cal_rng, 0.0, 1.0));
    }

    void setup(Spans* spans) override
    {
        ec::setParallelism(1);
        {
            ScopedSpan s(spans, "models.build");
            graph_ = std::make_unique<eg::Graph>(
                em::buildMobileNetV1(kClasses, kImage));
            ec::Rng rng(subSeed(seed_, kWeights));
            graph_->materializeParams(rng);
        }
        if (cfg_.fuse) {
            ScopedSpan s(spans, "graph.fuse");
            *graph_ = eg::fuseConvBnAct(*graph_).graph;
        }
        if (cfg_.int8) {
            ScopedSpan s(spans, "graph.quantize");
            *graph_ = eg::quantizeInt8(*graph_, &calibration_).graph;
        }
        {
            ScopedSpan s(spans, "graph.interpreter_ctor");
            interp_ = std::make_unique<eg::Interpreter>(*graph_);
        }
        ScopedSpan s(spans, "graph.first_run");
        out_ = interp_->run({images_[0]});
    }

    std::string prepare() override
    {
        // References: the same deployed graph on the scalar kernels.
        // Results are byte-identical with SIMD on and off, so every
        // timed op must match.
        const bool simd = ec::simdActive();
        ec::setSimdActive(false);
        for (const auto& img : images_)
            refs_.push_back(serialize(interp_->run({img})));
        ec::setSimdActive(simd);
        for (std::int64_t i = 0; i < kPoolImages; ++i)
            run(i, nullptr);
        return selfTest();
    }

    void run(std::int64_t index, Spans* spans) override
    {
        const auto& img = images_[static_cast<std::size_t>(
            index % kPoolImages)];
        ScopedSpan s(spans, "graph.run", index);
        out_ = interp_->run({img});
    }

    bool check(std::int64_t index) const override
    {
        return serialize(out_) ==
            refs_[static_cast<std::size_t>(index % kPoolImages)];
    }

    std::string selfTest() override
    {
        run(0, nullptr);
        if (!check(0))
            return "output check rejects a correct output";
        const std::string good = refs_[0];
        flipOneBit(refs_[0], headerBytes(out_), seed_);
        const bool flagged = !check(0);
        refs_[0] = good;
        return flagged ? ""
                       : "output check misses a one-bit perturbation";
    }

    std::string layerMetrics(const Spans& spans, Metrics& out) override
    {
        for (const char* name :
             {"models.build", "graph.fuse", "graph.quantize",
              "graph.interpreter_ctor", "graph.first_run"}) {
            const auto d = spans.durationsMs(name);
            out.push_back({std::string(name) + "_ms",
                           d.empty() ? 0.0 : median(d), "ms"});
        }

        std::vector<double> verify_ms, memplan_ms;
        std::optional<eg::MemoryPlan> plan;
        for (int i = 0; i < kPassReps; ++i) {
            auto t0 = Clock::now();
            const auto report = eg::verifyGraph(*graph_);
            verify_ms.push_back(msSince(t0));
            if (report.count(eg::Severity::kError) != 0)
                return "verifyGraph reports errors on the deployed graph";
            t0 = Clock::now();
            plan = eg::planMemory(*graph_, false);
            memplan_ms.push_back(msSince(t0));
        }
        out.push_back({"graph.verify_ms", median(verify_ms), "ms"});
        out.push_back({"graph.memplan_ms", median(memplan_ms), "ms"});
        out.push_back({"graph.arena_bytes",
                       static_cast<double>(plan->arenaBytes), "B"});
        out.push_back({"graph.refcount_peak_bytes",
                       static_cast<double>(plan->refcountPeakBytes),
                       "B"});

        const double run_ms = median(spans.durationsMs("graph.run"));
        std::vector<KindStats> kinds;
        try {
            kinds = replayKernels(*graph_, subSeed(seed_, kReplay),
                                  kReplayReps);
        } catch (const std::exception& e) {
            return e.what();
        }
        double kernel_ms = 0.0;
        std::int64_t calls = 0, macs = 0;
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const std::string p = "core." + replayKinds()[k];
            out.push_back({p + ".ms", kinds[k].ms, "ms"});
            out.push_back({p + ".calls",
                           static_cast<double>(kinds[k].calls), "count"});
            out.push_back({p + ".macs",
                           static_cast<double>(kinds[k].macs), "count"});
            out.push_back({p + ".bytes",
                           static_cast<double>(kinds[k].bytes), "B"});
            kernel_ms += kinds[k].ms;
            calls += kinds[k].calls;
            macs += kinds[k].macs;
        }
        out.push_back({"graph.run_ms", run_ms, "ms"});
        out.push_back({"graph.self_ms", run_ms - kernel_ms, "ms"});

        ec::setParallelism(kPoolThreads);
        ec::Tensor ew(ec::Shape{1, 65536});
        out.push_back({"core.parallel.empty_us",
                       regionUs([] {
                           ec::parallelFor(
                               1024, [](std::int64_t, std::int64_t) {});
                       }, 20),
                       "us"});
        out.push_back({"core.parallel.ew64k_us",
                       regionUs([&ew] { ec::reluInPlace(ew); }, 5),
                       "us"});
        ec::setParallelism(1);

        // Replay coverage: every executed node in exactly one bucket.
        if (calls != interp_->lastStats().nodesExecuted)
            return "replay covers " + std::to_string(calls) +
                " nodes, the interpreter executed " +
                std::to_string(interp_->lastStats().nodesExecuted);
        if (macs != graph_->stats().macs)
            return "replay covers " + std::to_string(macs) +
                " MACs, the deployed graph has " +
                std::to_string(graph_->stats().macs);
        return "";
    }

  private:
    InterpConfig cfg_;
    std::uint64_t seed_;
    std::vector<ec::Tensor> images_;
    std::vector<ec::Tensor> calibration_;
    std::unique_ptr<eg::Graph> graph_;
    std::unique_ptr<eg::Interpreter> interp_;
    std::vector<std::string> refs_;
    std::vector<ec::Tensor> out_;
};

// ---------------------------------------------------------------------
// Simulator workload: serving fleet, then distributed pipeline.
// ---------------------------------------------------------------------

/** Every count of both reports; any difference is a failed op. */
std::vector<std::int64_t>
counts(const es::FleetReport& f, const ed::PipelineSimReport& p)
{
    std::vector<std::int64_t> c = {f.offered, f.served, f.dropped,
                                   f.inFlight, f.rejected, f.retries,
                                   f.aliveReplicas};
    for (const auto& r : f.replicas)
        c.insert(c.end(), {r.served, r.dropped, r.batches});
    c.insert(c.end(), {p.offered, p.completed, p.dropped});
    for (const auto& s : p.stages)
        c.insert(c.end(), {s.framesIn, s.framesOut, s.queueDrops});
    for (const auto& l : p.links)
        c.insert(c.end(), {l.transfers, l.retransmits, l.lostFrames});
    return c;
}

class SimWorkload : public Workload
{
  public:
    explicit SimWorkload(std::uint64_t seed)
    {
        fleetCfg_.durationS = 60.0;
        fleetCfg_.arrivalRateHz = 300.0;
        fleetCfg_.seed = subSeed(seed, kFleet);
        fleetCfg_.queueCapacity = 16;
        fleetCfg_.maxBatch = 4;
        fleetCfg_.retry.maxAttempts = 2;
        fleetCfg_.balancer = es::BalancerPolicy::kPowerOfTwo;
        fleetCfg_.enableThermal = true;

        net_.link = ed::linkSpec(ed::wifiLink());
        net_.link.lossRate = 0.05;
        net_.medium = ed::MediumMode::kShared;
        pipeCfg_.frames = 2000;
        pipeCfg_.serviceJitter = 0.05;
        pipeCfg_.enableThermal = true;
        pipeCfg_.seed = subSeed(seed, kPipeline);
    }

    void setup(Spans* spans) override
    {
        {
            ScopedSpan s(spans, "frameworks.deploy");
            auto nano = ef::bestDeployment(
                em::buildModel(em::ModelId::kMobileNetV2),
                eh::DeviceId::kJetsonNano);
            auto rpi = ef::tryDeploy(
                ef::FrameworkId::kTensorFlow,
                em::buildModel(em::ModelId::kMobileNetV2),
                eh::DeviceId::kRpi3);
            if (!nano || !rpi)
                throw std::runtime_error("MobileNet-v2 did not deploy");
            session_ = std::make_unique<ef::InferenceSession>(nano->model);
            stageModel_ = std::make_unique<ef::CompiledModel>(rpi->model);
        }
        ScopedSpan s(spans, "distrib.partition");
        plan_ = ed::pipelinePartition(*stageModel_, ed::wifiLink(), 4);
    }

    std::string prepare() override
    {
        run(0, nullptr);
        if (!fleet_.accountingConsistent() ||
            !pipe_.accountingConsistent())
            return "reference reports break the accounting invariant";
        ref_ = counts(fleet_, pipe_);
        return selfTest();
    }

    void run(std::int64_t index, Spans* spans) override
    {
        {
            ScopedSpan s(spans, "serving.fleet", index);
            fleet_ = es::simulateFleet(*session_, 4, fleetCfg_);
        }
        ScopedSpan s(spans, "distrib.pipeline", index);
        pipe_ = ed::simulatePipeline(plan_, *stageModel_, net_, pipeCfg_);
    }

    bool check(std::int64_t) const override
    {
        return fleet_.accountingConsistent() &&
            pipe_.accountingConsistent() && counts(fleet_, pipe_) == ref_;
    }

    std::string selfTest() override
    {
        run(0, nullptr);
        if (!check(0))
            return "output check rejects a correct report";
        fleet_.served += 1;
        fleet_.inFlight -= 1;
        const bool flagged = !check(0);
        return flagged ? "" : "output check misses a perturbed count";
    }

    std::string layerMetrics(const Spans& spans, Metrics& out) override
    {
        for (const char* name : {"frameworks.deploy", "distrib.partition",
                                 "serving.fleet", "distrib.pipeline"})
            out.push_back({std::string(name) + "_ms",
                           median(spans.durationsMs(name)), "ms"});
        std::int64_t retransmits = 0;
        for (const auto& l : pipe_.links)
            retransmits += l.retransmits;
        out.push_back({"serving.fleet_requests",
                       static_cast<double>(fleet_.offered), "count"});
        out.push_back({"distrib.pipeline_frames",
                       static_cast<double>(pipe_.completed), "count"});
        out.push_back({"distrib.retransmits",
                       static_cast<double>(retransmits), "count"});
        return "";
    }

  private:
    es::FleetConfig fleetCfg_;
    ed::NetworkConfig net_;
    ed::PipelineSimConfig pipeCfg_;
    std::unique_ptr<ef::InferenceSession> session_;
    std::unique_ptr<ef::CompiledModel> stageModel_;
    ed::PipelineResult plan_;
    es::FleetReport fleet_;
    ed::PipelineSimReport pipe_;
    std::vector<std::int64_t> ref_;
};

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "mbv1_f32_fused_1t", "mbv1_int8_fused_1t", "mbv1_f32_unfused_1t",
        "sim_fleet_pipeline",
    };
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "mbv1_f32_fused_1t")
        return std::make_unique<InterpreterWorkload>(
            InterpConfig{true, false}, seed);
    if (name == "mbv1_int8_fused_1t")
        return std::make_unique<InterpreterWorkload>(
            InterpConfig{true, true}, seed);
    if (name == "mbv1_f32_unfused_1t")
        return std::make_unique<InterpreterWorkload>(
            InterpConfig{false, false}, seed);
    if (name == "sim_fleet_pipeline")
        return std::make_unique<SimWorkload>(seed);
    return nullptr;
}

} // namespace perfbench
