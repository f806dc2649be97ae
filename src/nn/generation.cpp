#include "nn/generation.hpp"

#include <stdexcept>
#include <string>

#include "core/incremental_attention.hpp"
#include "quant/quantize.hpp"

namespace et::nn {

GenerationSession::GenerationSession(const Model& model)
    : model_(model),
      kv_(1, model_.max_context(), model_.k_width(), model_.v_widths(),
          core::PagedKVOptions{.block_tokens = model_.max_context()}) {
  (void)kv_.acquire();
}

tensor::MatrixF GenerationSession::step(core::ExecContext& ctx,
                                        const tensor::MatrixF& x_row) {
  if (x_row.rows() != 1 || x_row.cols() != model_.d_model()) {
    throw std::invalid_argument(
        "GenerationSession::step: input row is " +
        std::to_string(x_row.rows()) + "x" + std::to_string(x_row.cols()) +
        ", want 1x" + std::to_string(model_.d_model()));
  }
  const auto p = model_.options().attn.precision;

  // A kernel fault partway through the stack would leave earlier layers'
  // caches one row longer than later ones. Roll every cache back to its
  // pre-step length on any exception so a failed step has no effect.
  const std::size_t pre_step = context_length();
  tensor::MatrixF h;
  try {
    h = step_layers(ctx, x_row, p);
  } catch (...) {
    kv_.slot(0).rollback(pre_step);
    throw;
  }
  // A traffic-only device computed no hidden state; the caller's select()
  // sees a zero row rather than storage nothing wrote.
  if (ctx.device().traffic_only()) return tensor::MatrixF(1, model_.d_model());
  return h;
}

tensor::MatrixF GenerationSession::step_layers(core::ExecContext& ctx,
                                               const tensor::MatrixF& x_row,
                                               numeric::Precision p) {
  const std::vector<EncoderWeights>& layers = model_.layers();
  const EncoderOptions& opt = model_.options();
  const bool int8 = model_.quantized();
  std::vector<core::PagedKVCache>& caches = kv_.caches(0);
  tensor::MatrixF h = x_row;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const EncoderWeights& w = layers[l];
    const QuantizedLayer* ql = int8 ? &model_.quantized_layer(l) : nullptr;
    tensor::MatrixF attn;
    if (int8) {
      // INT8 swaps every projection GEMM; the attention step itself
      // (1-row OTF launch + softmax math after the append) is the shared
      // fp32 core::incremental_attention_step — quantization never touches
      // the score math, only the operands feeding it.
      tensor::MatrixF q = quant::int8_linear(ctx, h, ql->wq, "gen_q_int8");
      tensor::MatrixF k_new =
          quant::int8_linear(ctx, h, ql->wk, "gen_k_int8");
      const core::PrecomputedVO* vo = nullptr;
      tensor::MatrixF v_new;
      if (w.attn.has_precomputed()) {
        vo = &w.attn.vo;  // metadata (kept/heads) still reads the fp fold
        v_new = quant::int8_linear(ctx, h, ql->vo, "gen_vo_int8");
      } else {
        v_new = quant::int8_linear(ctx, h, ql->wv, "gen_v_int8");
      }
      tensor::MatrixF z(1, model_.d_model());
      core::append_kv(ctx.device(), caches[l], k_new.row(0), v_new.row(0));
      const core::DecodeRow row{q.row(0), &caches[l], z.row(0)};
      core::incremental_attention_step(
          ctx, {&row, 1}, vo, ql->v_kept.empty() ? nullptr : &ql->v_kept,
          opt.attn);
      attn = (vo != nullptr)
                 ? std::move(z)
                 : quant::int8_linear(ctx, z, ql->wo, "gen_out_int8");
    } else {
      attn = core::incremental_attention(ctx, h, w.attn, opt.attn,
                                         caches[l]);
    }
    h = layer_tail(ctx, std::move(attn), h, w, ql, p,
                   int8 ? kDecodeTailInt8 : kDecodeTail);
  }
  return h;
}

void GenerationSession::reset() { kv_.slot(0).rollback(0); }

GenerationResult generate(core::ExecContext& ctx, GenerationSession& session,
                          const DecodeParams& params) {
  GenerationResult result;
  if (params.max_new_tokens == 0) {
    result.stop_reason = StopReason::kMaxTokens;
    return result;
  }
  const std::vector<std::int32_t> prompt = params.prompt();
  // Prefill: positions 0..n-2 populate the KV caches and emit nothing;
  // their hidden states are discarded. Capacity and fault stops degrade
  // exactly like the decode loop's — the (empty) partial reply is kept.
  for (std::size_t t = 0; t + 1 < prompt.size(); ++t) {
    if (session.at_capacity()) {
      result.stop_reason = StopReason::kKvCacheFull;
      return result;
    }
    try {
      (void)session.step(ctx,
                         params.embed(prompt[t], session.context_length()));
    } catch (const gpusim::KernelFault& f) {
      result.stop_reason = StopReason::kKernelFault;
      result.fault_kernel = f.kernel();
      return result;
    } catch (const std::length_error&) {
      result.stop_reason = StopReason::kKvCacheFull;
      return result;
    }
  }
  std::int32_t token = prompt.back();
  for (std::size_t t = 0; t < params.max_new_tokens; ++t) {
    if (session.at_capacity()) {
      result.stop_reason = StopReason::kKvCacheFull;
      return result;
    }
    tensor::MatrixF h;
    try {
      h = session.step(ctx, params.embed(token, session.context_length()));
    } catch (const gpusim::KernelFault& f) {
      result.stop_reason = StopReason::kKernelFault;
      result.fault_kernel = f.kernel();
      return result;
    } catch (const std::length_error&) {
      // Defensive: a cache filled behind our back (shared caches, races in
      // future batched paths) must degrade exactly like the pre-checked
      // capacity stop, never abort generation.
      result.stop_reason = StopReason::kKvCacheFull;
      return result;
    }
    token = params.select(h);
    result.tokens.push_back(token);
    if (params.eos_token >= 0 && token == params.eos_token) {
      result.stop_reason = StopReason::kEos;
      return result;
    }
  }
  result.stop_reason = StopReason::kMaxTokens;
  return result;
}

}  // namespace et::nn
