/**
 * @file
 * Per-op-kind attribution by kernel replay: after the timed phase the
 * deployed graph is walked once more and every node's kernel is
 * called directly, the way Interpreter::execNode calls it, so the
 * per-layer times come from the benchmark's own timers around public
 * core functions rather than from spans inside the program.
 */

#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "edgebench/core/kernels.hh"
#include "edgebench/core/kernels_int8.hh"
#include "edgebench/core/rng.hh"
#include "edgebench/graph/memplan.hh"

namespace perfbench
{

namespace ec = edgebench::core;
namespace eg = edgebench::graph;

namespace
{

enum Kind
{
    kConv, kConvPw, kConvDw, kDense, kBn, kAct, kPool, kSoftmax, kCopy,
    kConvI8, kConvPwI8, kConvDwI8, kDenseI8, kPoolI8, kRequant,
};

/** conv, conv_pw or conv_dw (the three engine paths). */
Kind
convKind(const ec::Conv2dGeom& g, bool i8)
{
    const bool dw = g.groups > 1 && g.groups == g.inC &&
        g.groups == g.outC;
    const bool pw = g.groups == 1 && g.kH == 1 && g.kW == 1 &&
        g.strideH == 1 && g.strideW == 1 && g.padH == 0 && g.padW == 0;
    if (dw)
        return i8 ? kConvDwI8 : kConvDw;
    if (pw)
        return i8 ? kConvPwI8 : kConvPw;
    return i8 ? kConvI8 : kConv;
}

ec::EpilogueAct
fusedAct(const eg::Node& n)
{
    if (n.kind != eg::OpKind::kFusedConvBnAct)
        return ec::EpilogueAct::kNone;
    switch (n.attrs.activation) {
      case eg::ActKind::kNone: return ec::EpilogueAct::kNone;
      case eg::ActKind::kRelu: return ec::EpilogueAct::kRelu;
      case eg::ActKind::kRelu6: return ec::EpilogueAct::kRelu6;
      default:
        throw std::runtime_error("replay: fused activation of " +
                                 eg::nodeDesc(n) + " has no bucket");
    }
}

/** Everything one node's timed call needs, built outside timing. */
struct NodeReplay
{
    Kind kind = kCopy;
    ec::Shape shape;
    std::int64_t macs = 0;
    std::int64_t bytes = 0;
    std::vector<ec::Tensor> inputs;
    std::vector<ec::Tensor> params;
    std::optional<ec::PackedConvWeights> conv;
    std::optional<ec::PackedConvWeightsI8> convI8;
    std::optional<ec::PackedA> dense;
    std::optional<ec::PackedAI8> denseI8;
    /** Planned-slot stand-in the output sink is armed with. */
    std::vector<float> outF32;
    std::vector<std::int8_t> outI8;
    /** Arm the output sink first, as the interpreter does for every
        node that is not executed in place. */
    bool sink = true;
    std::function<void(NodeReplay&)> call;
};

/** Seeded activation of @p producer's shape in its runtime dtype. */
ec::Tensor
seededActivation(const eg::Node& producer, ec::Rng& rng)
{
    ec::Tensor t =
        ec::Tensor::randomUniform(producer.outShape, rng, 0.0, 1.0);
    if (eg::runtimeDType(producer, false) == ec::DType::kI8)
        return t.toInt8(*producer.outQuant);
    return t;
}

ec::Tensor
asF32(const ec::Tensor& t)
{
    return t.dtype() == ec::DType::kF32 ? t : t.toF32();
}

ec::Tensor
asI8(const ec::Tensor& t)
{
    return t.dtype() == ec::DType::kI8 ? t : t.toInt8();
}

NodeReplay
prepareNode(const eg::Graph& g, const eg::Node& n,
            const eg::MemoryPlan& plan, ec::Rng& rng)
{
    NodeReplay r;
    r.shape = n.outShape;
    r.macs = n.macs();
    double bytes = n.outputBytes() + n.paramBytes();
    for (eg::NodeId in : n.inputs)
        bytes += g.node(in).outputBytes();
    r.bytes = static_cast<std::int64_t>(bytes);
    for (eg::NodeId in : n.inputs)
        r.inputs.push_back(seededActivation(g.node(in), rng));

    const bool i8 = eg::runtimeDType(n, false) == ec::DType::kI8;
    if (i8)
        r.outI8.resize(static_cast<std::size_t>(n.outputElems()));
    else
        r.outF32.resize(static_cast<std::size_t>(n.outputElems()));
    const bool inplace =
        plan.slots[static_cast<std::size_t>(n.id)].inplaceSrc >= 0;
    const auto bias = [&n]() -> ec::Tensor {
        return n.params.size() > 1 ? asF32(n.params[1]) : ec::Tensor();
    };
    switch (n.kind) {
      case eg::OpKind::kInput: {
        r.kind = i8 ? kRequant : kCopy;
        r.sink = false;
        r.inputs.push_back(
            ec::Tensor::randomUniform(n.outShape, rng, 0.0, 1.0));
        const std::optional<ec::QuantParams> q = n.outQuant;
        r.call = [i8, q](NodeReplay& s) {
            ec::Tensor t = s.inputs[0].toF32();
            if (i8) {
                t = t.toInt8(*q);
                std::memcpy(s.outI8.data(), t.qdata().data(),
                            s.outI8.size());
            } else {
                std::memcpy(s.outF32.data(), t.data().data(),
                            s.outF32.size() * sizeof(float));
            }
        };
        return r;
      }
      case eg::OpKind::kConv2d:
      case eg::OpKind::kFusedConvBnAct: {
        const auto geom = n.attrs.conv2d;
        const auto act = fusedAct(n);
        r.kind = convKind(geom, i8);
        if (i8) {
            if (r.inputs[0].dtype() != ec::DType::kI8)
                r.inputs[0] = r.inputs[0].toInt8();
            r.params = {asI8(n.params[0]), bias()};
            r.convI8 = ec::packConv2dWeightsInt8(r.params[0], geom);
            const auto q = *n.outQuant;
            r.call = [geom, act, q](NodeReplay& s) {
                ec::conv2dInt8Packed(s.inputs[0], s.params[0], *s.convI8,
                                     s.params[1], geom, q, act);
            };
        } else {
            r.params = {asF32(n.params[0]), bias()};
            r.conv = ec::packConv2dWeights(r.params[0], geom);
            r.call = [geom, act](NodeReplay& s) {
                ec::conv2dPacked(s.inputs[0], s.params[0], *s.conv,
                                 s.params[1], geom, act);
            };
        }
        return r;
      }
      case eg::OpKind::kDense: {
        const auto geom = n.attrs.dense;
        if (i8) {
            r.kind = kDenseI8;
            if (r.inputs[0].dtype() != ec::DType::kI8)
                r.inputs[0] = r.inputs[0].toInt8();
            r.params = {asI8(n.params[0]), bias()};
            r.denseI8 = ec::packDenseWeightsInt8(r.params[0], geom);
            const auto q = *n.outQuant;
            r.call = [geom, q](NodeReplay& s) {
                ec::denseInt8Packed(s.inputs[0], s.params[0], *s.denseI8,
                                    s.params[1], geom, q);
            };
        } else {
            r.kind = kDense;
            r.params = {bias()};
            r.dense = ec::packDenseWeights(asF32(n.params[0]), geom);
            r.call = [geom](NodeReplay& s) {
                ec::densePacked(s.inputs[0], *s.dense, s.params[0], geom);
            };
        }
        return r;
      }
      case eg::OpKind::kBatchNorm: {
        if (i8)
            break;
        r.kind = kBn;
        for (const auto& p : n.params)
            r.params.push_back(asF32(p));
        const double eps = n.attrs.bnEpsilon;
        r.sink = !inplace;
        if (inplace) {
            r.call = [eps](NodeReplay& s) {
                ec::batchNormInPlace(s.inputs[0], s.params[0], s.params[1],
                                     s.params[2], s.params[3], eps);
            };
        } else {
            r.call = [eps](NodeReplay& s) {
                ec::batchNorm(s.inputs[0], s.params[0], s.params[1],
                              s.params[2], s.params[3], eps);
            };
        }
        return r;
      }
      case eg::OpKind::kActivation: {
        const auto a = n.attrs.activation;
        if (i8 || (a != eg::ActKind::kRelu && a != eg::ActKind::kRelu6))
            break;
        r.kind = kAct;
        const bool six = a == eg::ActKind::kRelu6;
        r.sink = !inplace;
        if (inplace) {
            r.call = [six](NodeReplay& s) {
                six ? ec::relu6InPlace(s.inputs[0])
                    : ec::reluInPlace(s.inputs[0]);
            };
        } else {
            r.call = [six](NodeReplay& s) {
                six ? ec::relu6(s.inputs[0]) : ec::relu(s.inputs[0]);
            };
        }
        return r;
      }
      case eg::OpKind::kGlobalAvgPool: {
        // The int8 interpreter has no integer pool: it dequantizes,
        // pools in fp32 and requantizes (TFLite-style fallback).
        r.kind = i8 ? kPoolI8 : kPool;
        const std::optional<ec::QuantParams> q = n.outQuant;
        r.call = [i8, q](NodeReplay& s) {
            if (i8)
                ec::globalAvgPool(s.inputs[0].toF32()).toInt8(*q);
            else
                ec::globalAvgPool(s.inputs[0]);
        };
        return r;
      }
      case eg::OpKind::kSoftmax: {
        if (i8)
            break;
        r.kind = kSoftmax;
        r.call = [](NodeReplay& s) {
            if (s.inputs[0].dtype() == ec::DType::kF32)
                ec::softmax(s.inputs[0]);
            else
                ec::softmax(s.inputs[0].toF32());
        };
        return r;
      }
      default:
        break;
    }
    throw std::runtime_error("replay: " + eg::nodeDesc(n) +
                             " maps to no core.<kind> bucket");
}

/**
 * Read every cache line of the node's inputs and output slot. In an
 * inference the producer has just written the input and the arena
 * slot was recently used, so both are cache-hot; without this the
 * replay would charge each kernel for cold activations.
 */
std::uint8_t
warmActivations(const NodeReplay& r)
{
    std::uint8_t acc = 0;
    const auto touch = [&acc](const void* p, std::size_t bytes) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        for (std::size_t i = 0; i < bytes; i += 64)
            acc = static_cast<std::uint8_t>(acc + b[i]);
    };
    for (const auto& t : r.inputs) {
        if (t.dtype() == ec::DType::kI8)
            touch(t.qdata().data(), t.qdata().size());
        else
            touch(t.data().data(), t.data().size() * sizeof(float));
    }
    touch(r.outI8.data(), r.outI8.size());
    touch(r.outF32.data(), r.outF32.size() * sizeof(float));
    return acc;
}

} // namespace

const std::vector<std::string>&
replayKinds()
{
    static const std::vector<std::string> kinds = {
        "conv", "conv_pw", "conv_dw", "dense", "bn", "act", "pool",
        "softmax", "copy", "conv_i8", "conv_pw_i8", "conv_dw_i8",
        "dense_i8", "pool_i8", "requant",
    };
    return kinds;
}

std::vector<KindStats>
replayKernels(const eg::Graph& g, std::uint64_t seed, int reps)
{
    ec::Rng rng(seed);
    const eg::MemoryPlan plan = eg::planMemory(g, false);
    std::vector<NodeReplay> nodes;
    nodes.reserve(static_cast<std::size_t>(g.numNodes()));
    for (const auto& n : g.nodes())
        nodes.push_back(prepareNode(g, n, plan, rng));

    // Whole-graph passes in execution order (not each node back to
    // back), so caches see the node sequence an inference sees. The
    // first pass is a warm-up.
    std::vector<std::vector<double>> ms(nodes.size());
    volatile std::uint8_t touched = 0;
    for (int rep = 0; rep <= reps; ++rep) {
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            NodeReplay& r = nodes[i];
            touched =
                static_cast<std::uint8_t>(touched + warmActivations(r));
            const auto t0 = Clock::now();
            if (r.sink && !r.outI8.empty())
                ec::OutputSink::armI8(r.shape, r.outI8, false);
            else if (r.sink)
                ec::OutputSink::armF32(r.shape, r.outF32, false);
            r.call(r);
            const double dt = msSince(t0);
            ec::OutputSink::disarm();
            if (rep > 0)
                ms[i].push_back(dt);
        }
    }

    std::vector<KindStats> out(replayKinds().size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        KindStats& k = out[static_cast<std::size_t>(nodes[i].kind)];
        k.ms += median(ms[i]);
        k.calls += 1;
        k.macs += nodes[i].macs;
        k.bytes += nodes[i].bytes;
    }
    return out;
}

} // namespace perfbench
