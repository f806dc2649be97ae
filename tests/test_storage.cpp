// Storage the library leaves unwritten, and the heap allocations one call
// makes.
//
// tensor::Matrix::uninitialized leaves its elements unspecified; under
// ET_SANITIZE it poisons them, so every real-math suite run in that build
// would see a read of an element nothing wrote. The allocation checks
// replace the global operator new and operator delete with counting
// versions. That is why they live in a binary of their own: no other test
// runs under the replacement.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "core/adaptive.hpp"
#include "kernels/sparse_gemm.hpp"
#include "nn/encoder.hpp"
#include "pruning/criteria.hpp"
#include "pruning/strategy.hpp"
#include "tensor/matrix.hpp"
#include "tensor/random.hpp"
#include "train/model.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  n = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form is replaced: a sanitizer runtime supplies its own
// array forms, which would otherwise bypass the scalar one.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using et::tensor::Matrix;
using et::tensor::MatrixF;

/// Heap allocations made while `f` runs.
template <typename F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(Storage, UninitializedMatrixIsPoisonedInSanitizerBuilds) {
#ifndef ET_SANITIZE
  GTEST_SKIP() << "the poison fill is compiled in only with ET_SANITIZE";
#else
  const auto f = MatrixF::uninitialized(3, 5);
  for (const float v : f.flat()) EXPECT_TRUE(std::isnan(v));
  const auto d = Matrix<double>::uninitialized(2, 3);
  for (const double v : d.flat()) EXPECT_TRUE(std::isnan(v));
  const auto i8 = Matrix<std::int8_t>::uninitialized(4, 7);
  for (const std::int8_t v : i8.flat()) {
    EXPECT_EQ(std::bit_cast<std::uint8_t>(v), 0xA5);
  }
  const auto u8 = Matrix<std::uint8_t>::uninitialized(4, 7);
  for (const std::uint8_t v : u8.flat()) EXPECT_EQ(v, 0xA5);
  // The filling constructor still fills.
  const MatrixF zeros(3, 5);
  for (const float v : zeros.flat()) EXPECT_EQ(v, 0.0f);
#endif
}

TEST(Allocations, ChoosingTheAttentionOperatorAllocatesNothing) {
  // BERT_BASE at seq 128, dense and 80% attention-aware pruned: the
  // chooser prices flash, OTF and partial OTF on launch records alone.
  const et::nn::ModelConfig model = et::nn::bert_base();
  const et::nn::EncoderOptions opt =
      et::nn::options_for(et::nn::Pipeline::kET, model, 128);
  const et::nn::EncoderWeights dense =
      et::nn::make_dense_encoder_weights(model, 27);
  et::train::TrainModelConfig tcfg;
  tcfg.d_model = model.d_model;
  tcfg.num_heads = model.num_heads;
  tcfg.d_ff = model.d_ff;
  tcfg.causal = false;
  const et::train::EncoderLayer src(tcfg, 27);
  const et::nn::EncoderWeights pruned = et::pruning::deploy_layer(
      src,
      et::pruning::compute_layer_masks(
          src, et::pruning::Strategy::kAttentionAware, 0.8),
      et::pruning::Strategy::kAttentionAware);

  for (const et::nn::EncoderWeights* w : {&dense, &pruned}) {
    et::gpusim::Device dev;
    const auto warm = et::core::choose_attention_impl(dev, w->attn, opt.attn);
    dev.reset();
    et::core::AttentionImpl chosen{};
    EXPECT_EQ(allocations_during([&] {
                chosen =
                    et::core::choose_attention_impl(dev, w->attn, opt.attn);
              }),
              0u);
    EXPECT_EQ(chosen, warm);
  }
}

TEST(Allocations, TrafficOnlyBcsrGemmAllocatesOnlyItsOutput) {
  MatrixF w(768, 768);
  et::tensor::fill_normal(w, 27);
  const auto tile = et::sparse::TilePrunedWeight::from_masked(
      w, et::pruning::tile_mask(w, 0.8));
  const MatrixF x(128, 768);
  et::gpusim::Device dev;
  dev.set_traffic_only(true);
  et::core::ExecContext ctx(dev);
  (void)et::kernels::bcsr_gemm_nt(ctx, x, tile);
  dev.reset();
  MatrixF y;
  EXPECT_EQ(allocations_during(
                [&] { y = et::kernels::bcsr_gemm_nt(ctx, x, tile); }),
            1u);
  EXPECT_EQ(y.rows(), 128u);
  EXPECT_EQ(y.cols(), 768u);
  EXPECT_EQ(dev.launch_count(), 1u);
}

}  // namespace
