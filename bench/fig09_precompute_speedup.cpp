// Figure 9: encoder speedup of the pre-computed linear transformation
// (Fig. 3(b), Eq. 5) over the plain attention-aware layout (Fig. 3(a)),
// sweeping the head count for d_model ∈ {768, 1024, 2048} at seq = 128.
//
// Following §5.2.3, the non-precomputed configuration prunes at 50% while
// the pre-computed one reaches 80% on W_O (pre-computation "lowers the
// required pruning ratio"). Expected shape: speedup ≥ 1 nearly everywhere
// and growing with d_model (paper: 1.1× / 1.3× / 1.6× on average).
// Exits nonzero when any d_model's average speedup is below 1.0 (the fold
// must not be a slowdown).
#include "bench_common.hpp"
#include "gpusim/device.hpp"
#include "nn/encoder.hpp"
#include "pruning/criteria.hpp"
#include "tensor/random.hpp"

namespace {

using et::core::AttentionWeights;
using et::sparse::PruneMethod;
using et::tensor::MatrixF;

MatrixF random_square(std::size_t d, std::uint64_t seed) {
  MatrixF w(d, d);
  et::tensor::fill_normal(w, seed, 0.0f, 0.02f);
  return w;
}

/// Attention weights in the Fig. 3(a) layout at `ratio`: W_Q/W_K tile
/// pruned, W_V column pruned (§4.3's preference without pre-computation),
/// W_O tile pruned.
AttentionWeights plain_weights(std::size_t d, double ratio) {
  AttentionWeights w;
  const MatrixF wq = random_square(d, 1), wk = random_square(d, 2),
                wv = random_square(d, 3), wo = random_square(d, 4);
  w.wq = et::sparse::make_weight(PruneMethod::kTile, wq,
                                 et::pruning::tile_mask(wq, ratio));
  w.wk = et::sparse::make_weight(PruneMethod::kTile, wk,
                                 et::pruning::tile_mask(wk, ratio));
  w.wv = et::sparse::make_weight(PruneMethod::kColumn, wv,
                                 et::pruning::column_mask(wv, ratio));
  w.wo = et::sparse::make_weight(PruneMethod::kTile, wo,
                                 et::pruning::tile_mask(wo, ratio));
  return w;
}

/// Fig. 3(b) layout: W_Q/W_K tile-pruned, W_V dense, W_O row-pruned at
/// `wo_ratio` and folded into the pre-computed W_VO. The fold happens
/// before inference, so for this latency sweep only the *shape* of W_VO
/// matters (the bench runs traffic-only); fold_heads sets it.
AttentionWeights precomputed_weights(std::size_t d, double qk_ratio,
                                     double wo_ratio) {
  AttentionWeights w;
  const MatrixF wq = random_square(d, 5), wk = random_square(d, 6);
  w.wq = et::sparse::make_weight(PruneMethod::kTile, wq,
                                 et::pruning::tile_mask(wq, qk_ratio));
  w.wk = et::sparse::make_weight(PruneMethod::kTile, wk,
                                 et::pruning::tile_mask(wk, qk_ratio));
  w.wv = et::sparse::DenseWeight(random_square(d, 7));
  const MatrixF wo = random_square(d, 8);
  const auto wo_mask = et::pruning::row_mask(wo, wo_ratio);
  auto wo_row = et::sparse::RowPrunedWeight::from_masked(wo, wo_mask);

  w.vo.kept_cols = wo_row.kept_rows();
  w.wo = std::move(wo_row);
  return w;
}

/// Give the fold its (H·kept × d) shape for `heads` heads.
void fold_heads(AttentionWeights& w, std::size_t d, std::size_t heads) {
  w.vo.num_heads = heads;
  w.vo.weight = MatrixF(heads * w.vo.kept(), d);
}

/// The encoder layer around the attention weights under test: both FF
/// matrices tile-pruned at 50%, zero biases, identity layernorms. Built
/// once per d_model (random fills dominate this bench's host time).
et::nn::EncoderWeights layer_weights(std::size_t d, std::size_t d_ff) {
  et::nn::EncoderWeights w;
  const MatrixF ff1 = [&] {
    MatrixF m(d_ff, d);
    et::tensor::fill_normal(m, 9, 0.0f, 0.02f);
    return m;
  }();
  const MatrixF ff2 = [&] {
    MatrixF m(d, d_ff);
    et::tensor::fill_normal(m, 10, 0.0f, 0.02f);
    return m;
  }();
  w.w_ff1 = et::sparse::make_weight(PruneMethod::kTile, ff1,
                                    et::pruning::tile_mask(ff1, 0.5));
  w.w_ff2 = et::sparse::make_weight(PruneMethod::kTile, ff2,
                                    et::pruning::tile_mask(ff2, 0.5));
  w.b_ff1.assign(d_ff, 0.0f);
  w.b_ff2.assign(d, 0.0f);
  w.ln1_gamma.assign(d, 1.0f);
  w.ln1_beta.assign(d, 0.0f);
  w.ln2_gamma.assign(d, 1.0f);
  w.ln2_beta.assign(d, 0.0f);
  return w;
}

double encoder_us(const et::nn::EncoderWeights& w, std::size_t d,
                  std::size_t heads, std::size_t d_ff) {
  et::nn::ModelConfig model;
  model.d_model = d;
  model.num_heads = heads;
  model.d_ff = d_ff;
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.set_traffic_only(true);
  MatrixF x(128, d);
  (void)et::nn::encoder_forward(
      ctx, x, w, et::nn::options_for(et::nn::Pipeline::kET, model, 128));
  return dev.total_time_us();
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = et::bench::csv_mode(argc, argv);
  bool averages_ok = true;
  std::printf("Figure 9 — speedup of pre-computed linear transformation, "
              "seq=128 (paper: avg 1.1x/1.3x/1.6x for d=768/1024/2048)\n\n");

  et::bench::Table table(
      {"d_model", "heads", "without_us", "with_us", "speedup"}, csv);
  for (const std::size_t d : {768u, 1024u, 2048u}) {
    double sum = 0.0;
    int count = 0;
    const std::size_t d_ff = 4 * d;
    et::nn::EncoderWeights plain = layer_weights(d, d_ff);
    et::nn::EncoderWeights folded = plain;
    plain.attn = plain_weights(d, 0.5);
    folded.attn = precomputed_weights(d, 0.5, 0.8);
    for (const std::size_t heads : {2u, 4u, 8u, 16u}) {
      if (d % heads != 0) continue;
      fold_heads(folded.attn, d, heads);
      const double without = encoder_us(plain, d, heads, d_ff);
      const double with_pre = encoder_us(folded, d, heads, d_ff);
      sum += without / with_pre;
      ++count;
      table.add_row({std::to_string(d), std::to_string(heads),
                     et::bench::fmt(without, 1), et::bench::fmt(with_pre, 1),
                     et::bench::fmt_ratio(without / with_pre)});
    }
    table.add_row({std::to_string(d), "avg", "", "",
                   et::bench::fmt_ratio(sum / count)});
    averages_ok = averages_ok && sum / count >= 1.0;
  }
  table.print();
  if (!averages_ok) {
    std::fprintf(stderr, "FAIL: the pre-computed fold averages a slowdown "
                         "at some d_model\n");
    return 1;
  }
  return 0;
}
