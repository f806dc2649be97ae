#include "core/attention_math.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "numeric/precision.hpp"

namespace et::core::detail {

namespace {
using numeric::Precision;

constexpr std::size_t kLanes = numeric::kDotLanes;

constexpr std::size_t lane_blocks(std::size_t n) {
  return (n + kLanes - 1) / kLanes;
}

/// One output of the per-step loop: Σ_t a[t]·b(t) in t order, rounded
/// per p at every step and at the end.
template <class B>
float dot_per_step(Precision p, const float* a, std::size_t n, const B& b) {
  float acc = 0.0f;
  if (p == Precision::kFp32) {
    for (std::size_t t = 0; t < n; ++t) acc += a[t] * b(t);
    return acc;
  }
  for (std::size_t t = 0; t < n; ++t) {
    acc = numeric::fma_step(p, a[t], b(t), acc);
  }
  return numeric::round_to_storage(p, acc);
}

/// K and the context operand of one kPureFp16 or kMixed call, rounded to
/// binary16 once and packed per head for dot16_fp16, zero-padded to whole
/// blocks of 16:
///   - kt: Kᵀ, keys in blocks, as [head][key block][c < d_k][16];
///   - ctx: the head's context columns in blocks, as
///     [head][column block][key][16].
struct Fp16Operands {
  std::vector<float> kt;
  std::vector<float> ctx;
  std::size_t key_blocks = 0, col_blocks = 0;
};

/// nullopt, counting nothing, when an element of K or of the context
/// overflows on rounding: that call keeps the per-step fma_step loop,
/// which counts the overflow once per use, as the GEMM does.
std::optional<Fp16Operands> pack_fp16(const tensor::MatrixF& k,
                                      const tensor::MatrixF& context,
                                      std::size_t h_count, std::size_t dk,
                                      std::size_t vw) {
  const std::size_t kv = k.rows();
  Fp16Operands ops;
  ops.key_blocks = lane_blocks(kv);
  ops.col_blocks = lane_blocks(vw);
  ops.kt.assign(h_count * ops.key_blocks * dk * kLanes, 0.0f);
  ops.ctx.assign(h_count * ops.col_blocks * kv * kLanes, 0.0f);
  for (std::size_t h = 0; h < h_count; ++h) {
    for (std::size_t j = 0; j < kv; ++j) {
      float* kt = ops.kt.data() +
                  (h * ops.key_blocks + j / kLanes) * dk * kLanes +
                  j % kLanes;
      if (!numeric::round_fp16_into(&k(j, h * dk), kt, dk, kLanes)) {
        return std::nullopt;
      }
      for (std::size_t c0 = 0; c0 < vw; c0 += kLanes) {
        float* v = ops.ctx.data() +
                   ((h * ops.col_blocks + c0 / kLanes) * kv + j) * kLanes;
        if (!numeric::round_fp16_into(&context(j, h * vw + c0), v,
                                      std::min(kLanes, vw - c0))) {
          return std::nullopt;
        }
      }
    }
  }
  return ops;
}

/// out[0, n) = dot16_fp16 of a against the kk × 16 packed blocks from
/// `b` on. False, with out partly written, as soon as a block flags: the
/// caller then redoes all n with dot_per_step.
bool dot_blocks(Precision p, const float* a, const float* b, std::size_t kk,
                std::size_t n, float* out) {
  float lanes[kLanes];
  for (std::size_t j0 = 0; j0 < n; j0 += kLanes, b += kk * kLanes) {
    if (!numeric::dot16_fp16(p, a, b, kk, lanes)) return false;
    std::copy(lanes, lanes + std::min(kLanes, n - j0), out + j0);
  }
  return true;
}
}  // namespace

tensor::MatrixF attention_math(const tensor::MatrixF& q,
                               const tensor::MatrixF& k,
                               const tensor::MatrixF& context,
                               const PrecomputedVO* vo,
                               const std::vector<std::uint32_t>* v_kept,
                               const AttentionConfig& cfg, ThreadPool* pool) {
  const std::size_t s = cfg.seq_len;
  // Keys/values may be longer than the queries: incremental decode
  // attends one query row over its whole cache. Encoders have kv == s.
  const std::size_t kv = k.rows();
  const std::size_t d = cfg.d_model;
  const std::size_t h_count = cfg.num_heads;
  const std::size_t dk = cfg.d_k();
  const Precision p = cfg.precision;
  const float scale = cfg.scale();

  assert(q.rows() == s && q.cols() == d);
  assert(k.cols() == d);
  assert(context.rows() == kv);
  assert(vo == nullptr || v_kept == nullptr);
  if (vo != nullptr) {
    assert(context.cols() == h_count * vo->kept());
  } else if (v_kept != nullptr) {
    assert(context.cols() == v_kept->size());
    assert(v_kept->size() % h_count == 0);
  } else {
    assert(context.cols() == d);
  }
  /// Width of one head's slice of the context operand.
  const std::size_t vw = context.cols() / h_count;

  // Under the binary16 policies ③ and ⑥ run sixteen independent chains
  // per step over operands rounded once; a (row, head) whose lanes leave
  // binary16's range redoes that product with the per-step loop below.
  const std::optional<Fp16Operands> ops =
      p == Precision::kPureFp16 || p == Precision::kMixed
          ? pack_fp16(k, context, h_count, dk, vw)
          : std::nullopt;

  tensor::MatrixF out(s, d);

  const auto row_body = [&](std::size_t i) {
    std::vector<float> qrow(dk), q16(dk);
    std::vector<float> scores(kv);
    std::vector<float> z(vw);
    for (std::size_t h = 0; h < h_count; ++h) {
      // ② the scaling operator. Reordered before the multiply it keeps
      // every partial product within FP16 range (§3.3).
      for (std::size_t c = 0; c < dk; ++c) {
        const float v = q(i, h * dk + c);
        qrow[c] = cfg.scale_before_multiply
                      ? numeric::round_to_storage(p, v * scale)
                      : v;
      }
      // ③ one row of Q·Kᵀ, accumulated under the precision policy.
      if (!ops || !numeric::round_fp16_into(qrow.data(), q16.data(), dk) ||
          !dot_blocks(p, q16.data(),
                      ops->kt.data() + h * ops->key_blocks * dk * kLanes, dk,
                      kv, scores.data())) {
        for (std::size_t j = 0; j < kv; ++j) {
          scores[j] = dot_per_step(p, qrow.data(), dk, [&](std::size_t c) {
            return k(j, h * dk + c);
          });
        }
      }
      if (!cfg.scale_before_multiply) {
        for (std::size_t j = 0; j < kv; ++j) {
          scores[j] = numeric::round_to_storage(p, scores[j] * scale);
        }
      }
      // ④ masking (full-sequence attention only; a decode row attends
      // just the cache it has, which is causal by construction).
      if (cfg.causal_mask && kv == s) {
        for (std::size_t j = i + 1; j < kv; ++j) {
          scores[j] = -std::numeric_limits<float>::infinity();
        }
      }
      // ⑤ softmax over the row (max-subtracted; ±inf saturations from an
      // FP16 overflow propagate into NaN/garbage exactly as on hardware).
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < kv; ++j) mx = std::max(mx, scores[j]);
      float sum = 0.0f;
      for (std::size_t j = 0; j < kv; ++j) {
        scores[j] = std::exp(scores[j] - mx);
        sum += scores[j];
      }
      const float inv = sum > 0.0f ? 1.0f / sum : 0.0f;
      for (std::size_t j = 0; j < kv; ++j) {
        scores[j] = numeric::round_to_storage(p, scores[j] * inv);
      }
      // ⑥ multiply with the head's slice of the context operand.
      if (!ops ||
          !dot_blocks(p, scores.data(),
                      ops->ctx.data() + h * ops->col_blocks * kv * kLanes, kv,
                      vw, z.data())) {
        for (std::size_t c = 0; c < vw; ++c) {
          z[c] = dot_per_step(p, scores.data(), kv, [&](std::size_t j) {
            return context(j, h * vw + c);
          });
        }
      }
      for (std::size_t c = 0; c < vw; ++c) {
        if (v_kept != nullptr) {
          // Condensed V: only the surviving columns of this head are
          // computed; Z keeps zeros at pruned positions.
          out(i, (*v_kept)[h * vw + c]) = z[c];
        } else if (vo != nullptr) {
          // ⑧ heads sum into the shared output columns (Eq. 4/5).
          out(i, vo->kept_cols[c]) += z[c];
        } else {
          out(i, h * dk + c) = z[c];
        }
      }
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(s, row_body);
  } else {
    for (std::size_t i = 0; i < s; ++i) row_body(i);
  }
  return out;
}

tensor::MatrixF flash_attention_math(const tensor::MatrixF& q,
                                     const tensor::MatrixF& k,
                                     const tensor::MatrixF& context,
                                     const PrecomputedVO* vo,
                                     const std::vector<std::uint32_t>* v_kept,
                                     const AttentionConfig& cfg,
                                     ThreadPool* pool) {
  const std::size_t s = cfg.seq_len;
  const std::size_t kv = k.rows();
  const std::size_t d = cfg.d_model;
  const std::size_t h_count = cfg.num_heads;
  const std::size_t dk = cfg.d_k();
  const std::size_t br = cfg.flash_block_rows;
  const std::size_t bc = cfg.flash_block_cols;
  const Precision p = cfg.precision;
  const float scale = cfg.scale();
  constexpr float kInf = std::numeric_limits<float>::infinity();

  assert(q.rows() == s && q.cols() == d);
  assert(k.cols() == d);
  assert(context.rows() == kv);
  assert(vo == nullptr || v_kept == nullptr);
  if (vo != nullptr) {
    assert(context.cols() == h_count * vo->kept());
  } else if (v_kept != nullptr) {
    assert(context.cols() == v_kept->size());
    assert(v_kept->size() % h_count == 0);
  } else {
    assert(context.cols() == d);
  }
  /// Width of one head's slice of the context operand.
  const std::size_t v_cols = vo != nullptr
                                 ? vo->kept()
                                 : (v_kept != nullptr
                                        ? v_kept->size() / h_count
                                        : dk);
  // P·V multiplicands are rounded to the policy's storage type but always
  // accumulate in FP32 (the flash kernel keeps O in FP32 registers while
  // rescaling — see the header); pure FP16 therefore shares kMixed's step.
  const Precision pv = p == Precision::kBf16Mixed ? Precision::kBf16Mixed
                                                  : Precision::kMixed;

  tensor::MatrixF out(s, d);

  const auto tile_body = [&](std::size_t t) {
    std::vector<float> qrow(dk);
    std::vector<float> block(bc);
    std::vector<float> acc(v_cols);
    const std::size_t i_end = std::min(s, (t + 1) * br);
    for (std::size_t i = t * br; i < i_end; ++i) {
      for (std::size_t h = 0; h < h_count; ++h) {
        // ② the scaling operator, reordered exactly as attention_math.
        for (std::size_t c = 0; c < dk; ++c) {
          const float v = q(i, h * dk + c);
          qrow[c] = cfg.scale_before_multiply
                        ? numeric::round_to_storage(p, v * scale)
                        : v;
        }
        // Fully-masked keys contribute exp(-inf) = 0, so the streaming
        // loop stops at the causal diagonal — the block skip a flash
        // kernel performs. At least one key always remains (the diagonal
        // itself).
        std::size_t kv_end = kv;
        if (cfg.causal_mask && kv == s) kv_end = std::min(kv_end, i + 1);

        float m = -kInf;   // running row max
        float l = 0.0f;    // running softmax denominator
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::size_t b0 = 0; b0 < kv_end; b0 += bc) {
          const std::size_t b1 = std::min(kv_end, b0 + bc);
          // ③ one Bc-wide block of the score row, under the same
          // precision policy (and §3.3 overflow behavior) as every other
          // operator.
          float bm = -kInf;
          for (std::size_t j = b0; j < b1; ++j) {
            float sc = 0.0f;
            if (p == Precision::kFp32) {
              for (std::size_t c = 0; c < dk; ++c) {
                sc += qrow[c] * k(j, h * dk + c);
              }
            } else {
              for (std::size_t c = 0; c < dk; ++c) {
                sc = numeric::fma_step(p, qrow[c], k(j, h * dk + c), sc);
              }
              sc = numeric::round_to_storage(p, sc);
            }
            if (!cfg.scale_before_multiply) {
              sc = numeric::round_to_storage(p, sc * scale);
            }
            block[j - b0] = sc;
            bm = std::max(bm, sc);
          }
          // ④–⑤ online softmax update: rescale the running denominator
          // and output by exp(m − m_new), then fold the block in. An
          // FP16-saturated −inf block with no prior mass contributes
          // nothing; a +inf overflow poisons ℓ and the accumulator with
          // NaN exactly as the one-shot softmax would.
          const float m_new = std::max(m, bm);
          if (m_new == -kInf) continue;
          const float corr = m == -kInf ? 0.0f : std::exp(m - m_new);
          l *= corr;
          for (std::size_t c = 0; c < v_cols; ++c) acc[c] *= corr;
          for (std::size_t j = b0; j < b1; ++j) {
            const float pj = std::exp(block[j - b0] - m_new);
            l += pj;
            // ⑥ fold the block's slice of the context operand in.
            const std::size_t base = h * v_cols;
            if (p == Precision::kFp32) {
              for (std::size_t c = 0; c < v_cols; ++c) {
                acc[c] += pj * context(j, base + c);
              }
            } else {
              for (std::size_t c = 0; c < v_cols; ++c) {
                acc[c] = numeric::fma_step(pv, pj, context(j, base + c),
                                           acc[c]);
              }
            }
          }
          m = m_new;
        }
        // Deferred 1/ℓ normalization: one rounding to storage at the end.
        const float inv = l > 0.0f ? 1.0f / l : 0.0f;
        if (v_kept != nullptr) {
          for (std::size_t c = 0; c < v_cols; ++c) {
            out(i, (*v_kept)[h * v_cols + c]) =
                numeric::round_to_storage(p, acc[c] * inv);
          }
        } else if (vo != nullptr) {
          // ⑧ heads sum into the shared output columns (Eq. 4/5).
          for (std::size_t c = 0; c < v_cols; ++c) {
            out(i, vo->kept_cols[c]) +=
                numeric::round_to_storage(p, acc[c] * inv);
          }
        } else {
          for (std::size_t c = 0; c < v_cols; ++c) {
            out(i, h * dk + c) = numeric::round_to_storage(p, acc[c] * inv);
          }
        }
      }
    }
  };

  const std::size_t tiles = (s + br - 1) / br;
  if (pool != nullptr) {
    pool->parallel_for(tiles, tile_body);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) tile_body(t);
  }
  return out;
}

}  // namespace et::core::detail
