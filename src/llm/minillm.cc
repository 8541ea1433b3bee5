#include "llm/minillm.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "core/check.h"
#include "obs/flops.h"
#include "obs/trace.h"

namespace lcrec::llm {

MiniLlm::MiniLlm(const MiniLlmConfig& config)
    : config_(config), rng_(config.seed) {
  LCREC_CHECK_GT(config_.vocab_size, 0);
  LCREC_CHECK_EQ(config_.d_model % config_.n_heads, 0);
  int d = config_.d_model, ff = config_.d_ff;
  auto init = [&](int fan_in, std::vector<int64_t> shape) {
    return rng_.GaussianTensor(std::move(shape), 1.0 / std::sqrt(fan_in));
  };
  tok_emb_ = store_.Create("tok_emb",
                           rng_.GaussianTensor({config_.vocab_size, d}, 0.02));
  pos_emb_ =
      store_.Create("pos_emb", rng_.GaussianTensor({config_.max_seq, d}, 0.02));
  final_norm_ = store_.Create("final_norm", core::Tensor::Ones({d}));
  for (int l = 0; l < config_.n_layers; ++l) {
    std::string p = "layer" + std::to_string(l) + ".";
    Layer layer;
    layer.attn_norm = store_.Create(p + "attn_norm", core::Tensor::Ones({d}));
    layer.wq = store_.Create(p + "wq", init(d, {d, d}));
    layer.wk = store_.Create(p + "wk", init(d, {d, d}));
    layer.wv = store_.Create(p + "wv", init(d, {d, d}));
    layer.wo = store_.Create(p + "wo", init(d, {d, d}));
    layer.ffn_norm = store_.Create(p + "ffn_norm", core::Tensor::Ones({d}));
    layer.w1 = store_.Create(p + "w1", init(d, {d, ff}));
    layer.w3 = store_.Create(p + "w3", init(d, {d, ff}));
    layer.w2 = store_.Create(p + "w2", init(ff, {ff, d}));
    layers_.push_back(layer);
  }
}

core::VarId MiniLlm::BuildLogits(core::Graph& g,
                                 const std::vector<int>& tokens, bool train) {
  int t = static_cast<int>(tokens.size());
  LCREC_CHECK_GT(t, 0);
  LCREC_CHECK_LE(t, config_.max_seq);
  int heads = config_.n_heads;
  int dh = config_.d_model / heads;
  float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  core::VarId emb_table = g.Param(tok_emb_);
  std::vector<int> positions(t);
  for (int i = 0; i < t; ++i) positions[i] = i;
  core::VarId x = g.Add(g.Rows(emb_table, tokens),
                        g.Rows(g.Param(pos_emb_), positions));
  for (const Layer& layer : layers_) {
    core::VarId xn = g.RmsNorm(x, g.Param(layer.attn_norm));
    core::VarId q = g.MatMul(xn, g.Param(layer.wq));
    core::VarId k = g.MatMul(xn, g.Param(layer.wk));
    core::VarId v = g.MatMul(xn, g.Param(layer.wv));
    std::vector<core::VarId> head_outs;
    head_outs.reserve(heads);
    for (int h = 0; h < heads; ++h) {
      core::VarId qh = g.SliceCols(q, h * dh, (h + 1) * dh);
      core::VarId kh = g.SliceCols(k, h * dh, (h + 1) * dh);
      core::VarId vh = g.SliceCols(v, h * dh, (h + 1) * dh);
      core::VarId scores = g.Scale(g.MatMulNT(qh, kh), scale);
      core::VarId probs = g.CausalSoftmax(scores);
      if (train && config_.dropout > 0.0f) {
        probs = g.Dropout(probs, config_.dropout, rng_, train);
      }
      head_outs.push_back(g.MatMul(probs, vh));
    }
    core::VarId attn = g.MatMul(g.ConcatCols(head_outs), g.Param(layer.wo));
    x = g.Add(x, attn);
    core::VarId fn = g.RmsNorm(x, g.Param(layer.ffn_norm));
    core::VarId gate = g.Silu(g.MatMul(fn, g.Param(layer.w1)));
    core::VarId up = g.MatMul(fn, g.Param(layer.w3));
    core::VarId ffn = g.MatMul(g.Mul(gate, up), g.Param(layer.w2));
    x = g.Add(x, ffn);
  }
  core::VarId xf = g.RmsNorm(x, g.Param(final_norm_));
  // Weight-tied output head: logits = X_f * E^T.
  return g.MatMulNT(xf, emb_table);
}

core::VarId MiniLlm::BuildLoss(core::Graph& g, const std::vector<int>& tokens,
                               const std::vector<int>& targets, bool train) {
  LCREC_CHECK_EQ(tokens.size(), targets.size());
  core::VarId logits = BuildLogits(g, tokens, train);
  return g.SoftmaxCrossEntropy(logits, targets);
}

MiniLlm::KvCache MiniLlm::MakeCache() const {
  KvCache cache;
  cache.k.resize(config_.n_layers);
  cache.v.resize(config_.n_layers);
  return cache;
}

namespace {

void RmsNormVec(const float* x, const core::Tensor& gamma, int d, float* y) {
  float ss = 0.0f;
  for (int i = 0; i < d; ++i) ss += x[i] * x[i];
  float ir = 1.0f / std::sqrt(ss / static_cast<float>(d) + 1e-6f);
  for (int i = 0; i < d; ++i) y[i] = x[i] * ir * gamma.at(i);
}

/// Multi-head attention of one new token's query `q` against `ctx` cached
/// K/V rows.
void AttendToken(const float* q, const float* kc, const float* vc, int ctx,
                 int heads, int dh, float scale, float* attn) {
  int d = heads * dh;
  for (int h = 0; h < heads; ++h) {
    const float* qh = q + h * dh;
    // Scores over all cached positions for this head.
    std::vector<float> s(static_cast<size_t>(ctx));
    float mx = -1e30f;
    for (int t = 0; t < ctx; ++t) {
      const float* kh = kc + static_cast<int64_t>(t) * d + h * dh;
      float dot = 0.0f;
      for (int c = 0; c < dh; ++c) dot += qh[c] * kh[c];
      s[t] = dot * scale;
      mx = std::max(mx, s[t]);
    }
    float z = 0.0f;
    for (int t = 0; t < ctx; ++t) {
      s[t] = std::exp(s[t] - mx);
      z += s[t];
    }
    float* ah = attn + h * dh;
    std::memset(ah, 0, sizeof(float) * static_cast<size_t>(dh));
    for (int t = 0; t < ctx; ++t) {
      float w = s[t] / z;
      const float* vh = vc + static_cast<int64_t>(t) * d + h * dh;
      for (int c = 0; c < dh; ++c) ah[c] += w * vh[c];
    }
  }
}

/// ys[b][n] = xs[b][d] * W[d, n] for every lane b. Outer loop over W's
/// rows, so each weight row is read once per step for all lanes instead
/// of once per lane (the batching win on a memory-bound decode). Every
/// ys[b][j] accumulates over p in ascending order whatever the lane
/// count, so a lane's result does not depend on which lanes share it.
void VecMatBatch(const std::vector<const float*>& xs, const core::Tensor& w,
                 const std::vector<float*>& ys) {
  int64_t d = w.rows(), n = w.cols();
  for (float* y : ys) std::memset(y, 0, sizeof(float) * static_cast<size_t>(n));
  for (int64_t p = 0; p < d; ++p) {
    const float* wp = w.data() + p * n;
    for (size_t b = 0; b < xs.size(); ++b) {
      float xp = xs[b][p];
      if (xp == 0.0f) continue;
      float* y = ys[b];
      for (int64_t j = 0; j < n; ++j) y[j] += xp * wp[j];
    }
  }
}

}  // namespace

core::Tensor MiniLlm::Forward(KvCache& cache,
                              const std::vector<int>& tokens) const {
  return std::move(ForwardBatch({&cache}, {tokens})[0]);
}

std::vector<core::Tensor> MiniLlm::ForwardBatch(
    const std::vector<KvCache*>& caches,
    const std::vector<std::vector<int>>& tokens) const {
  size_t lanes = caches.size();
  LCREC_CHECK_EQ(lanes, tokens.size());
  if (lanes == 0) return {};
  int d = config_.d_model, heads = config_.n_heads;
  int dh = d / heads;
  float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  int vocab = config_.vocab_size;
  size_t max_len = 0;
  for (size_t b = 0; b < lanes; ++b) {
    LCREC_CHECK(!tokens[b].empty());
    LCREC_CHECK(caches[b] != nullptr);
    LCREC_CHECK_LE(caches[b]->length + static_cast<int>(tokens[b].size()),
                   config_.max_seq);
    max_len = std::max(max_len, tokens[b].size());
  }
  obs::ScopedSpan span("llm.decode_batch");
  int64_t acc_flops = 0, acc_bytes = 0;

  // Lane-major scratch rows: lane b's vector for buffer `buf` is
  // buf[b * stride .. b * stride + stride).
  auto rows = [lanes](int stride) {
    return std::vector<float>(lanes * static_cast<size_t>(stride));
  };
  std::vector<float> x = rows(d), xn = rows(d), q = rows(d), k = rows(d),
                     v = rows(d), attn = rows(d), proj = rows(d),
                     gate = rows(config_.d_ff), up = rows(config_.d_ff),
                     down = rows(d);

  std::vector<core::Tensor> out(lanes);
  for (size_t b = 0; b < lanes; ++b) out[b] = core::Tensor({1, vocab});

  for (size_t step = 0; step < max_len; ++step) {
    // Lanes that still have a token to feed at this step.
    std::vector<size_t> active;
    for (size_t b = 0; b < lanes; ++b) {
      if (step < tokens[b].size()) active.push_back(b);
    }
    auto row_ptrs = [&active](std::vector<float>& buf, int stride) {
      std::vector<float*> ps;
      ps.reserve(active.size());
      for (size_t b : active) ps.push_back(buf.data() + b * stride);
      return ps;
    };
    auto crow_ptrs = [&active](const std::vector<float>& buf, int stride) {
      std::vector<const float*> ps;
      ps.reserve(active.size());
      for (size_t b : active) ps.push_back(buf.data() + b * stride);
      return ps;
    };

    for (size_t b : active) {
      int tok = tokens[b][step];
      int pos = caches[b]->length;
      LCREC_CHECK_GE(tok, 0);
      LCREC_CHECK_LT(tok, vocab);
      float* xb = x.data() + b * d;
      for (int i = 0; i < d; ++i) {
        xb[i] = tok_emb_->value.at(static_cast<int64_t>(tok) * d + i) +
                pos_emb_->value.at(static_cast<int64_t>(pos) * d + i);
      }
    }
    for (int l = 0; l < config_.n_layers; ++l) {
      const Layer& layer = layers_[l];
      for (size_t b : active) {
        RmsNormVec(x.data() + b * d, layer.attn_norm->value, d,
                   xn.data() + b * d);
      }
      VecMatBatch(crow_ptrs(xn, d), layer.wq->value, row_ptrs(q, d));
      VecMatBatch(crow_ptrs(xn, d), layer.wk->value, row_ptrs(k, d));
      VecMatBatch(crow_ptrs(xn, d), layer.wv->value, row_ptrs(v, d));
      for (size_t b : active) {
        KvCache& cache = *caches[b];
        const float* kb = k.data() + b * d;
        const float* vb = v.data() + b * d;
        cache.k[l].insert(cache.k[l].end(), kb, kb + d);
        cache.v[l].insert(cache.v[l].end(), vb, vb + d);
        int ctx = cache.length + 1;
        AttendToken(q.data() + b * d, cache.k[l].data(), cache.v[l].data(),
                    ctx, heads, dh, scale, attn.data() + b * d);
        acc_flops += 8LL * d * d + 4LL * ctx * d + 6LL * d * config_.d_ff;
        acc_bytes += 4LL * (2LL * ctx * d);
      }
      VecMatBatch(crow_ptrs(attn, d), layer.wo->value, row_ptrs(proj, d));
      for (size_t b : active) {
        float* xb = x.data() + b * d;
        const float* pb = proj.data() + b * d;
        for (int i = 0; i < d; ++i) xb[i] += pb[i];
        RmsNormVec(xb, layer.ffn_norm->value, d, xn.data() + b * d);
      }
      VecMatBatch(crow_ptrs(xn, d), layer.w1->value,
                  row_ptrs(gate, config_.d_ff));
      VecMatBatch(crow_ptrs(xn, d), layer.w3->value,
                  row_ptrs(up, config_.d_ff));
      for (size_t b : active) {
        float* gb = gate.data() + b * config_.d_ff;
        const float* ub = up.data() + b * config_.d_ff;
        for (int i = 0; i < config_.d_ff; ++i) {
          float g = gb[i];
          gb[i] = g / (1.0f + std::exp(-g)) * ub[i];
        }
      }
      VecMatBatch(crow_ptrs(gate, config_.d_ff), layer.w2->value,
                  row_ptrs(down, d));
      for (size_t b : active) {
        float* xb = x.data() + b * d;
        const float* db = down.data() + b * d;
        for (int i = 0; i < d; ++i) xb[i] += db[i];
      }
      // Weights are read once per step for all active lanes.
      acc_bytes += 4LL * (4LL * d * d + 3LL * d * config_.d_ff);
    }
    std::vector<size_t> emitting;
    for (size_t b : active) {
      ++caches[b]->length;
      if (step == tokens[b].size() - 1) {
        RmsNormVec(x.data() + b * d, final_norm_->value, d, xn.data() + b * d);
        emitting.push_back(b);
      }
    }
    if (!emitting.empty()) {
      // Output head for every lane ending at this step; each embedding
      // row is read once for all of them.
      const core::Tensor& e = tok_emb_->value;
      for (int vtok = 0; vtok < vocab; ++vtok) {
        const float* ev = e.data() + static_cast<int64_t>(vtok) * d;
        for (size_t b : emitting) {
          const float* xb = xn.data() + b * d;
          float dot = 0.0f;
          for (int i = 0; i < d; ++i) dot += xb[i] * ev[i];
          out[b].at(vtok) = dot;
        }
      }
      acc_flops += 2LL * d * vocab * static_cast<int64_t>(emitting.size());
      acc_bytes += 4LL * d * vocab;
    }
  }
  static obs::KernelFlops kf("llm.decode_batch");
  kf.Add(acc_flops, acc_bytes);
  return out;
}

}  // namespace lcrec::llm
