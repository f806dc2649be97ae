#include "kernels/linear.hpp"

#include <stdexcept>
#include <string>

#include "kernels/elementwise.hpp"

namespace et::kernels {

LinearResult linear(core::ExecContext& ctx, const tensor::MatrixF& x,
                    const sparse::AnyWeight& w, const LinearOptions& opt,
                    std::string_view name) {
  gpusim::Device& dev = ctx.device();
  const std::string base(name);
  LinearResult out;

  if (const auto* dense = std::get_if<sparse::DenseWeight>(&w)) {
    out.y = gemm_nt(ctx, x, dense->matrix(), opt.precision, nullptr,
                    base + ".dense");
    return out;
  }

  if (const auto* row = std::get_if<sparse::RowPrunedWeight>(&w)) {
    tensor::MatrixF cond = gemm_nt(ctx, x, row->condensed(), opt.precision,
                                   nullptr, base + ".row_gemm");
    if (opt.scatter_row_pruned_output) {
      out.y = scatter_cols(dev, cond, row->kept_rows(), row->original_rows(),
                           opt.precision, base + ".scatter");
    } else {
      out.y = std::move(cond);
      out.condensed = true;
      out.nonzero_cols = row->kept_rows();
    }
    return out;
  }

  if (const auto* col = std::get_if<sparse::ColPrunedWeight>(&w)) {
    // The gather reads X by the weight's original column indices; an X of
    // another width would multiply the wrong features.
    if (x.cols() != col->original_cols()) {
      throw std::invalid_argument(base + ": X has " + std::to_string(x.cols()) +
                                  " columns but W has " +
                                  std::to_string(col->original_cols()));
    }
    tensor::MatrixF adjusted = gather_cols(dev, x, col->kept_cols(),
                                           opt.precision, base + ".gather");
    out.y = gemm_nt(ctx, adjusted, col->condensed(), opt.precision, nullptr,
                    base + ".col_gemm");
    return out;
  }

  if (const auto* tile = std::get_if<sparse::TilePrunedWeight>(&w)) {
    out.y = bcsr_gemm_nt(ctx, x, *tile, opt.precision, base + ".bcsr_gemm");
    return out;
  }

  const auto& irr = std::get<sparse::IrregularWeight>(w);
  out.y = irregular_gemm_nt(ctx, x, irr, opt.precision, base + ".irr_gemm");
  return out;
}

}  // namespace et::kernels
