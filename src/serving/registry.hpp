// serving::ModelRegistry — named, versioned model instances behind the
// network front-end (docs/api.md "Registry lifecycle").
//
// The registry owns what the rest of the serving stack only borrows: each
// LoadedModel bundles the layer-weight vector (loaded from a checksummed
// ETW2 checkpoint, or handed over in memory), the validated nn::Model
// handle built over it, and the server-side decode head (deterministic
// embed/select closures — the hidden state flows through the model
// weights, so two versions with different weights produce different
// transcripts for the same prompt).
//
// Lifetime is pin-based: acquire() returns a ModelPin (a shared_ptr) and
// every copy of that pin keeps the instance alive. The network server
// holds one pin per serving engine; a hot swap points new submissions at
// the new version's engine while the old engine drains in place, and the
// old LoadedModel is destroyed exactly when its last pin drops — after
// the last in-flight request retires — never mid-request. unload() only
// removes the registry's own reference; it cannot pull weights out from
// under a pinned engine.
//
// Integrity: load_file() is nn::load_encoder_stack, so every section CRC
// and every field is validated before a version becomes servable, and
// the nn::Model handle then checks each layer's shapes — a bit flip in a
// served model must be a load error, not a silently different
// transcript.
//
// Observability: bind_metrics() registers the registry gauges
// (models_loaded / swaps / active_pins) on a caller-provided
// MetricsRegistry — registered last by the callers that already have
// metrics, so existing scalar snapshots stay a prefix.
//
// Thread safety: every public method locks the registry mutex; pins may
// be released from any thread. The registry must outlive every pin it
// handed out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "nn/generation.hpp"
#include "nn/model.hpp"
#include "serving/metrics.hpp"

namespace et::serving {

/// One servable model instance: owned weights + the validated handle +
/// the server-side decode head.
class LoadedModel {
 public:
  /// `format` is the nn::WeightFormat descriptor forwarded to the
  /// nn::Model handle (nullopt derives it from the weights; kInt8
  /// quantizes every decode GEMM operand at load time — the network
  /// server's quantized serving path).
  LoadedModel(std::string name, std::uint64_t version,
              std::vector<nn::EncoderWeights> layers, nn::EncoderOptions opt,
              std::size_t max_context, std::int32_t vocab,
              std::optional<nn::WeightFormat> format = std::nullopt);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const nn::Model& model() const noexcept { return model_; }
  [[nodiscard]] std::int32_t vocab() const noexcept { return vocab_; }

  /// Deterministic server-side embedding: a pure hash of (token,
  /// position) expanded to a 1 × d_model row. Identical across versions —
  /// version sensitivity comes from the weights the hidden state flows
  /// through, not the input encoding.
  [[nodiscard]] nn::EmbedFn embed_fn() const;
  /// Deterministic greedy head: hashes the exact float bits of the
  /// top-layer hidden state down to a token in [0, vocab). Bit-sensitive
  /// by construction, so transcripts distinguish model versions.
  [[nodiscard]] nn::SelectFn select_fn() const;

 private:
  std::string name_;
  std::uint64_t version_ = 0;
  std::vector<nn::EncoderWeights> layers_;  // owned; model_ borrows it
  nn::EncoderOptions opt_;
  nn::Model model_;
  std::int32_t vocab_ = 0;
};

/// A pin: shared ownership of one LoadedModel plus registry pin
/// accounting. Copying a pin does not change the pin count — one
/// acquire() is one pin until every copy is gone.
using ModelPin = std::shared_ptr<const LoadedModel>;

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Load an ETW2 checkpoint from disk as (name, version). Throws
  /// std::runtime_error on IO/integrity failures (naming the bad section)
  /// and std::invalid_argument on a duplicate (name, version) or weights
  /// the nn::Model validation rejects.
  void load_file(const std::string& name, std::uint64_t version,
                 const std::string& path, nn::EncoderOptions opt,
                 std::size_t max_context, std::int32_t vocab = 257);

  /// Register an in-memory layer stack as (name, version) — the path the
  /// CLI demo and tests use; weights are moved into the registry.
  void add(const std::string& name, std::uint64_t version,
           std::vector<nn::EncoderWeights> layers, nn::EncoderOptions opt,
           std::size_t max_context, std::int32_t vocab = 257,
           std::optional<nn::WeightFormat> format = std::nullopt);

  /// Drop the registry's reference to (name, version). The instance is
  /// destroyed now if unpinned, else when its last pin drops. Returns
  /// false when the version is not loaded.
  bool unload(const std::string& name, std::uint64_t version);

  /// Pin the newest loaded version of `name` (nullptr when absent).
  [[nodiscard]] ModelPin acquire(const std::string& name);
  /// Pin a specific version (nullptr when absent).
  [[nodiscard]] ModelPin acquire(const std::string& name,
                                 std::uint64_t version);

  /// Loaded versions of `name`, ascending.
  [[nodiscard]] std::vector<std::uint64_t> versions(
      const std::string& name) const;
  [[nodiscard]] std::size_t models_loaded() const;
  /// Pins handed out by acquire() and not yet fully released.
  [[nodiscard]] std::size_t active_pins() const;
  /// Swap count — bumped by note_swap(), the hook the serving engine
  /// calls when it repoints a model name at a new version.
  [[nodiscard]] std::uint64_t swaps() const;
  void note_swap();

  /// Register the registry gauges (`models_loaded`, `swaps`,
  /// `active_pins`) on `reg` and remember them; refresh_gauges() updates
  /// all three. Call after the owner's own metrics so existing snapshots
  /// stay a prefix.
  void bind_metrics(MetricsRegistry& reg);
  void refresh_gauges();

 private:
  struct Entry {
    std::string name;
    std::uint64_t version = 0;
    std::shared_ptr<LoadedModel> model;
  };

  [[nodiscard]] ModelPin pin_locked(const std::shared_ptr<LoadedModel>& m);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // insertion order; lookups scan
  std::size_t pins_ = 0;        // live acquire() pins
  std::uint64_t swaps_ = 0;
  Gauge* models_loaded_gauge_ = nullptr;
  Gauge* swaps_gauge_ = nullptr;
  Gauge* active_pins_gauge_ = nullptr;
};

}  // namespace et::serving
