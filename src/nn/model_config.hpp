// Model configurations used across the paper's evaluation (§5.1).
#pragma once

#include <cstddef>
#include <string>

namespace et::nn {

struct ModelConfig {
  std::string name;
  std::size_t num_layers = 12;
  std::size_t d_model = 768;
  std::size_t num_heads = 12;
  std::size_t d_ff = 3072;  ///< MLP hidden width (4·d_model in all models)
  std::size_t vocab_size = 30522;
  std::size_t max_seq_len = 512;
};

/// The 2-layer Transformer trained on WikiText-2 (L=2, d=800, H=4).
[[nodiscard]] inline ModelConfig transformer_wikitext() {
  return {"Transformer", 2, 800, 4, 3200, 33278, 512};
}

/// BERT_BASE (L=12, d=768, H=12, 110M parameters).
[[nodiscard]] inline ModelConfig bert_base() {
  return {"BERT_BASE", 12, 768, 12, 3072, 30522, 512};
}

/// DistilBERT (L=6, d=768, H=12).
[[nodiscard]] inline ModelConfig distilbert() {
  return {"DistilBERT", 6, 768, 12, 3072, 30522, 512};
}

/// BERT_LARGE (L=24, d=1024, H=16) — used by the §3.2 shared-memory
/// worked example.
[[nodiscard]] inline ModelConfig bert_large() {
  return {"BERT_LARGE", 24, 1024, 16, 4096, 30522, 512};
}

}  // namespace et::nn
