#include "serving/registry.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "tensor/matrix.hpp"

namespace et::serving {

namespace {

/// splitmix64 — the same cheap deterministic mixer the differential
/// harness uses; here it drives the server-side decode head.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

float unit_float(std::uint64_t h) {
  // [-1, 1) from the top 24 bits — small enough to keep activations tame.
  return static_cast<float>((h >> 40) % 2000000ull) / 1000000.0f - 1.0f;
}

}  // namespace

LoadedModel::LoadedModel(std::string name, std::uint64_t version,
                         std::vector<nn::EncoderWeights> layers,
                         nn::EncoderOptions opt, std::size_t max_context,
                         std::int32_t vocab,
                         std::optional<nn::WeightFormat> format)
    : name_(std::move(name)),
      version_(version),
      layers_(std::move(layers)),
      opt_(opt),
      model_(&layers_, opt_, max_context, format),
      vocab_(vocab) {
  if (vocab_ <= 0) {
    throw std::invalid_argument("LoadedModel: vocab must be positive");
  }
}

nn::EmbedFn LoadedModel::embed_fn() const {
  const std::size_t d_model = model_.d_model();
  return [d_model](std::int32_t token, std::size_t position) {
    tensor::MatrixF row(1, d_model);
    const std::uint64_t base =
        splitmix64((static_cast<std::uint64_t>(token) << 32) ^
                   static_cast<std::uint64_t>(position));
    for (std::size_t c = 0; c < d_model; ++c) {
      row(0, c) = unit_float(splitmix64(base + c));
    }
    return row;
  };
}

nn::SelectFn LoadedModel::select_fn() const {
  const std::int32_t vocab = vocab_;
  return [vocab](const tensor::MatrixF& hidden) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (float v : hidden.flat()) {
      h = splitmix64(h ^ std::bit_cast<std::uint32_t>(v));
    }
    return static_cast<std::int32_t>(h % static_cast<std::uint64_t>(vocab));
  };
}

void ModelRegistry::load_file(const std::string& name, std::uint64_t version,
                              const std::string& path, nn::EncoderOptions opt,
                              std::size_t max_context, std::int32_t vocab) {
  add(name, version, nn::load_encoder_stack(path), opt, max_context, vocab);
}

void ModelRegistry::add(const std::string& name, std::uint64_t version,
                        std::vector<nn::EncoderWeights> layers,
                        nn::EncoderOptions opt, std::size_t max_context,
                        std::int32_t vocab,
                        std::optional<nn::WeightFormat> format) {
  auto model = std::make_shared<LoadedModel>(name, version, std::move(layers),
                                             opt, max_context, vocab, format);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e.name == name && e.version == version) {
      throw std::invalid_argument("ModelRegistry: '" + name + "' v" +
                                  std::to_string(version) +
                                  " is already loaded");
    }
  }
  entries_.push_back({name, version, std::move(model)});
}

bool ModelRegistry::unload(const std::string& name, std::uint64_t version) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) {
                                 return e.name == name && e.version == version;
                               });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

ModelPin ModelRegistry::pin_locked(const std::shared_ptr<LoadedModel>& m) {
  ++pins_;
  // A fresh control block whose deleter releases both the pin count and
  // the inner reference — every copy of the returned pin is the SAME pin;
  // the count drops when the last copy dies.
  std::shared_ptr<LoadedModel> inner = m;
  return ModelPin(inner.get(), [this, inner](const LoadedModel*) mutable {
    inner.reset();
    const std::lock_guard<std::mutex> lock(mu_);
    --pins_;
  });
}

ModelPin ModelRegistry::acquire(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const Entry* best = nullptr;
  for (const auto& e : entries_) {
    if (e.name == name && (best == nullptr || e.version > best->version)) {
      best = &e;
    }
  }
  return best == nullptr ? nullptr : pin_locked(best->model);
}

ModelPin ModelRegistry::acquire(const std::string& name,
                                std::uint64_t version) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e.name == name && e.version == version) return pin_locked(e.model);
  }
  return nullptr;
}

std::vector<std::uint64_t> ModelRegistry::versions(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  for (const auto& e : entries_) {
    if (e.name == name) out.push_back(e.version);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ModelRegistry::models_loaded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t ModelRegistry::active_pins() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pins_;
}

std::uint64_t ModelRegistry::swaps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return swaps_;
}

void ModelRegistry::note_swap() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++swaps_;
}

void ModelRegistry::bind_metrics(MetricsRegistry& reg) {
  const std::lock_guard<std::mutex> lock(mu_);
  models_loaded_gauge_ = &reg.gauge("models_loaded");
  swaps_gauge_ = &reg.gauge("swaps");
  active_pins_gauge_ = &reg.gauge("active_pins");
}

void ModelRegistry::refresh_gauges() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (models_loaded_gauge_ != nullptr) {
    models_loaded_gauge_->set(static_cast<double>(entries_.size()));
  }
  if (swaps_gauge_ != nullptr) {
    swaps_gauge_->set(static_cast<double>(swaps_));
  }
  if (active_pins_gauge_ != nullptr) {
    active_pins_gauge_->set(static_cast<double>(pins_));
  }
}

}  // namespace et::serving
