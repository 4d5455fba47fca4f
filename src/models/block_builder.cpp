#include "models/block_builder.h"

#include "linalg/builders.h"
#include "support/error.h"

namespace streamtensor {
namespace models {

namespace {

using linalg::Graph;
using linalg::IndexingMap;
using linalg::IteratorKind;
using linalg::OpInfo;

/** Generic contraction helper. */
int64_t
addContraction(Graph &g, const std::string &name,
               std::vector<int64_t> extents,
               std::vector<IteratorKind> iterators,
               std::vector<int64_t> inputs,
               std::vector<IndexingMap> input_indexing,
               ir::TensorType out_type, IndexingMap out_indexing)
{
    int64_t out = g.addTensor(std::move(out_type), name);
    OpInfo op;
    op.kind = linalg::OpKind::MatMul;
    op.name = name;
    op.inputs = std::move(inputs);
    op.output = out;
    op.loop_extents = std::move(extents);
    op.iterators = std::move(iterators);
    op.input_indexing = std::move(input_indexing);
    op.output_indexing = std::move(out_indexing);
    op.flops_per_point = 2.0;
    g.addOp(std::move(op));
    return out;
}

constexpr auto P = IteratorKind::Parallel;
constexpr auto R = IteratorKind::Reduction;

} // namespace

BlockShapes
prefillShapes(int64_t input_len)
{
    return BlockShapes{input_len, input_len};
}

BlockShapes
decodeShapes(int64_t kv_len)
{
    return BlockShapes{1, kv_len};
}

linalg::Graph
buildTransformerBlock(const LlmConfig &config,
                      const BlockShapes &shapes)
{
    ST_CHECK(shapes.seq_len >= 1 && shapes.kv_len >= 1,
             "block shapes must be positive");
    ST_CHECK(shapes.kv_len >= shapes.seq_len,
             "attention context (kv_len) must hold every query "
             "token (seq_len)");
    int64_t s = shapes.seq_len;
    int64_t l = shapes.kv_len;
    int64_t h = config.hidden;
    int64_t f = config.ffn_hidden;
    int64_t kvh = config.kv_heads;
    int64_t grp = config.groupSize();
    int64_t hd = config.head_dim;
    ir::DataType act = config.act_dtype;
    ir::DataType wt = config.weight_dtype;

    Graph g(config.name + "_block_s" + std::to_string(s) + "_l" +
            std::to_string(l));

    using ir::TensorType;
    using linalg::TensorRole;

    int64_t x = g.addTensor(TensorType(act, {s, h}), "x",
                            TensorRole::Input);
    int64_t w_norm1 = g.addTensor(TensorType(ir::DataType::F32, {h}),
                                  "w_norm1", TensorRole::Parameter);
    int64_t w_norm2 = g.addTensor(TensorType(ir::DataType::F32, {h}),
                                  "w_norm2", TensorRole::Parameter);

    // ---- Attention ----
    int64_t h1 =
        config.norm == NormKind::LayerNorm
            ? linalg::layerNorm(g, x, w_norm1, "norm1")
            : linalg::rmsNorm(g, x, w_norm1, "norm1");

    int64_t wq = g.addTensor(TensorType(wt, {h, kvh, grp, hd}),
                             "wq", TensorRole::Parameter);
    int64_t wk = g.addTensor(TensorType(wt, {h, kvh, hd}), "wk",
                             TensorRole::Parameter);
    int64_t wv = g.addTensor(TensorType(wt, {h, kvh, hd}), "wv",
                             TensorRole::Parameter);

    // q[kvh, grp, s, hd] = sum_h x[s, h] * wq[h, kvh, grp, hd]
    int64_t q = addContraction(
        g, "q_proj", {kvh, grp, s, hd, h}, {P, P, P, P, R},
        {h1, wq},
        {IndexingMap{{2, 4}}, IndexingMap{{4, 0, 1, 3}}},
        TensorType(act, {kvh, grp, s, hd}),
        IndexingMap{{0, 1, 2, 3}});

    // k_new[kvh, s, hd] = sum_h x[s, h] * wk[h, kvh, hd]
    int64_t k_new = addContraction(
        g, "k_proj", {kvh, s, hd, h}, {P, P, P, R}, {h1, wk},
        {IndexingMap{{1, 3}}, IndexingMap{{3, 0, 2}}},
        TensorType(act, {kvh, s, hd}), IndexingMap{{0, 1, 2}});
    int64_t v_new = addContraction(
        g, "v_proj", {kvh, s, hd, h}, {P, P, P, R}, {h1, wv},
        {IndexingMap{{1, 3}}, IndexingMap{{3, 0, 2}}},
        TensorType(act, {kvh, s, hd}), IndexingMap{{0, 1, 2}});

    if (config.rope) {
        q = linalg::rope(g, q, "rope_q");
        k_new = linalg::rope(g, k_new, "rope_k");
    }

    // KV caches hold the full context (past + current).
    int64_t k_cache = g.addTensor(TensorType(act, {kvh, l, hd}),
                                  "k_cache", TensorRole::KvCache);
    int64_t v_cache = g.addTensor(TensorType(act, {kvh, l, hd}),
                                  "v_cache", TensorRole::KvCache);

    // scores[kvh, grp, s, l] = sum_hd q * k_cache
    int64_t scores = addContraction(
        g, "qk", {kvh, grp, s, l, hd}, {P, P, P, P, R},
        {q, k_cache},
        {IndexingMap{{0, 1, 2, 4}}, IndexingMap{{0, 3, 4}}},
        TensorType(act, {kvh, grp, s, l}),
        IndexingMap{{0, 1, 2, 3}});

    int64_t probs = linalg::softmax(g, scores, "softmax");

    // attn[kvh, grp, s, hd] = sum_l probs * v_cache
    int64_t attn = addContraction(
        g, "pv", {kvh, grp, s, hd, l}, {P, P, P, P, R},
        {probs, v_cache},
        {IndexingMap{{0, 1, 2, 4}}, IndexingMap{{0, 4, 3}}},
        TensorType(act, {kvh, grp, s, hd}),
        IndexingMap{{0, 1, 2, 3}});

    // o[s, h] = sum_{kvh, grp, hd} attn * wo
    int64_t wo = g.addTensor(TensorType(wt, {kvh, grp, hd, h}),
                             "wo", TensorRole::Parameter);
    int64_t o = addContraction(
        g, "o_proj", {s, h, kvh, grp, hd}, {P, P, R, R, R},
        {attn, wo},
        {IndexingMap{{2, 3, 0, 4}}, IndexingMap{{2, 3, 4, 1}}},
        TensorType(act, {s, h}), IndexingMap{{0, 1}});

    int64_t x2 = linalg::ewiseBinary(g, x, o, linalg::EwiseFn::Add,
                                     "residual1");

    // ---- FFN ----
    int64_t h2 =
        config.norm == NormKind::LayerNorm
            ? linalg::layerNorm(g, x2, w_norm2, "norm2")
            : linalg::rmsNorm(g, x2, w_norm2, "norm2");

    int64_t ffn_out;
    if (config.activation == Activation::Silu) {
        int64_t wg = g.addTensor(TensorType(wt, {h, f}), "w_gate",
                                 TensorRole::Parameter);
        int64_t wu = g.addTensor(TensorType(wt, {h, f}), "w_up",
                                 TensorRole::Parameter);
        int64_t wd = g.addTensor(TensorType(wt, {f, h}), "w_down",
                                 TensorRole::Parameter);
        int64_t gate = linalg::matmul(g, h2, wg, act, "gate_proj");
        int64_t up = linalg::matmul(g, h2, wu, act, "up_proj");
        int64_t gact =
            linalg::ewiseUnary(g, gate, linalg::EwiseFn::Silu,
                               "silu");
        int64_t prod = linalg::ewiseBinary(
            g, gact, up, linalg::EwiseFn::Mul, "gate_mul");
        ffn_out = linalg::matmul(g, prod, wd, act, "down_proj");
    } else {
        int64_t w1 = g.addTensor(TensorType(wt, {h, f}), "w_fc1",
                                 TensorRole::Parameter);
        int64_t w2 = g.addTensor(TensorType(wt, {f, h}), "w_fc2",
                                 TensorRole::Parameter);
        int64_t f1 = linalg::matmul(g, h2, w1, act, "fc1");
        int64_t a =
            linalg::ewiseUnary(g, f1, linalg::EwiseFn::Gelu,
                               "gelu");
        ffn_out = linalg::matmul(g, a, w2, act, "fc2");
    }

    int64_t out = linalg::ewiseBinary(
        g, x2, ffn_out, linalg::EwiseFn::Add, "residual2");

    g.tensor(out).role = TensorRole::Output;
    g.tensor(out).name = "block_out";
    g.tensor(k_new).role = TensorRole::Output;
    g.tensor(v_new).role = TensorRole::Output;
    return g;
}

} // namespace models
} // namespace streamtensor
