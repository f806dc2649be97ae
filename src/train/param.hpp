// Trainable parameters and the AdamW optimizer (the paper fine-tunes with
// AdamW — see the artifact appendix).
//
// The training side of the repo is a compact manual-backprop framework in
// FP32 on the host: the pruning algorithms of §4 need gradients and a
// training loop, not the simulated device. Inference-side latency always
// comes from src/core + src/gpusim, mirroring how the paper trains in
// PyTorch but measures a separate CUDA implementation.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "sparse/mask.hpp"
#include "tensor/matrix.hpp"

namespace et::train {

/// A trainable matrix with gradient and Adam moments. An optional pruning
/// mask freezes pruned entries: their gradients are zeroed every step and
/// their values stay 0 (Fig. 6 step (vi), "retrain the non-zero entries").
struct Param {
  tensor::MatrixF w;
  tensor::MatrixF g;
  tensor::MatrixF adam_m;
  tensor::MatrixF adam_v;
  const sparse::Mask* mask = nullptr;  ///< not owned; nullptr = dense

  Param() = default;
  Param(std::size_t rows, std::size_t cols)
      : w(rows, cols), g(rows, cols), adam_m(rows, cols), adam_v(rows, cols) {}

  void zero_grad() { g.fill(0.0f); }

  /// Apply the mask to both weight and gradient (no-op when unmasked).
  void enforce_mask() {
    if (mask == nullptr) return;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (mask->flat()[i] == 0) {
        w.flat()[i] = 0.0f;
        g.flat()[i] = 0.0f;
      }
    }
  }
};

struct AdamWConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.01f;
};

/// Decoupled-weight-decay Adam over a set of Params.
class AdamW {
 public:
  explicit AdamW(AdamWConfig cfg = {}) : cfg_(cfg) {}

  void step(const std::vector<Param*>& params) {
    ++t_;
    const float bc1 = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
    for (Param* p : params) {
      p->enforce_mask();
      for (std::size_t i = 0; i < p->w.size(); ++i) {
        const float g = p->g.flat()[i];
        float& m = p->adam_m.flat()[i];
        float& v = p->adam_v.flat()[i];
        m = cfg_.beta1 * m + (1.0f - cfg_.beta1) * g;
        v = cfg_.beta2 * v + (1.0f - cfg_.beta2) * g * g;
        const float mhat = m / bc1;
        const float vhat = v / bc2;
        float& w = p->w.flat()[i];
        w -= cfg_.lr * (mhat / (std::sqrt(vhat) + cfg_.eps) +
                        cfg_.weight_decay * w);
      }
      p->enforce_mask();
    }
  }

 private:
  AdamWConfig cfg_;
  long t_ = 0;
};

}  // namespace et::train
