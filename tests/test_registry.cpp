// serving::ModelRegistry: named, versioned, CRC-validated model
// instances with pin-based lifetime — the subsystem the network server's
// hot swap stands on. The suite pins:
//   - checkpoint integrity at load (ETW2 round-trips; a corrupted byte is
//     a load error naming the bad section);
//   - pin semantics (a pin keeps the instance alive across unload; one
//     acquire is one pin no matter how many copies; release accounting
//     returns to zero);
//   - the server-side decode head (same version => bit-identical
//     transcripts; different weights => different transcripts — the
//     property every hot-swap bit-identity test rests on);
//   - gauge registration order (registry gauges append AFTER existing
//     metrics, so older scalar snapshots stay a prefix);
//   - a seeded chaos storm of load/acquire/swap/unload/release ops, with
//     conservation checks and run-to-run reproducibility, plus a
//     multi-threaded pin soak for the sanitizer presets.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "differential.hpp"
#include "nn/serialize.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"

namespace {

using et::serving::ModelPin;
using et::serving::ModelRegistry;

struct Stack {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
};

Stack make_stack(std::uint64_t seed) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  Stack s;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    s.layers.push_back(et::nn::make_dense_encoder_weights(cfg, seed + l));
  }
  s.opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, /*max_seq=*/16,
                              /*causal=*/true);
  s.opt.attn.precision = et::numeric::Precision::kFp32;
  return s;
}

void add_stack(ModelRegistry& reg, const std::string& name,
               std::uint64_t version, std::uint64_t seed) {
  Stack s = make_stack(seed);
  reg.add(name, version, std::move(s.layers), s.opt, /*max_context=*/16);
}

/// RAII temp checkpoint path.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& stem) {
    path = std::string(::testing::TempDir()) + stem;
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// Decode a short transcript on a pinned model through the serving
/// engine — the exact path the network server drives.
std::vector<std::int32_t> transcript(const ModelPin& pin,
                                     std::int32_t first_token,
                                     std::size_t tokens,
                                     std::size_t threads = 1) {
  et::gpusim::Device dev(et::gpusim::v100s());
  et::core::ExecContext ctx(dev, threads);
  et::serving::ServerConfig cfg;
  cfg.max_batch = 2;
  et::serving::InferenceServer server(pin->model(), cfg);
  et::serving::Request req;
  req.first_token = first_token;
  req.max_new_tokens = tokens;
  req.embed = pin->embed_fn();
  req.select = pin->select_fn();
  const auto h = server.submit(std::move(req));
  return server.wait(h, ctx).tokens;
}

// ---------------------------------------------------------------------------
// Load / acquire / versions.
// ---------------------------------------------------------------------------
TEST(Registry, AcquireNewestAndSpecificVersions) {
  ModelRegistry reg;
  add_stack(reg, "m", 1, 11);
  add_stack(reg, "m", 3, 33);
  add_stack(reg, "m", 2, 22);
  EXPECT_EQ(reg.models_loaded(), 3u);
  EXPECT_EQ(reg.versions("m"), (std::vector<std::uint64_t>{1, 2, 3}));

  const ModelPin newest = reg.acquire("m");
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->version(), 3u);  // newest = highest version
  const ModelPin v1 = reg.acquire("m", 1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(reg.acquire("nope"), nullptr);
  EXPECT_EQ(reg.acquire("m", 9), nullptr);
  EXPECT_EQ(reg.active_pins(), 2u);
}

TEST(Registry, DuplicateVersionThrows) {
  ModelRegistry reg;
  add_stack(reg, "m", 1, 7);
  Stack s = make_stack(8);
  EXPECT_THROW(reg.add("m", 1, std::move(s.layers), s.opt, 16),
               std::invalid_argument);
}

TEST(Registry, Etw2CheckpointRoundTripsAndServes) {
  TempFile f("registry_etw2.etw");
  Stack s = make_stack(5);
  et::nn::save_encoder_stack(f.path, s.layers);

  ModelRegistry reg;
  reg.load_file("disk", 1, f.path, s.opt, /*max_context=*/16);
  const ModelPin pin = reg.acquire("disk");
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->name(), "disk");

  // The loaded instance actually decodes, and matches the in-memory
  // registration of the same weights bit for bit.
  ModelRegistry ref;
  add_stack(ref, "mem", 1, 5);
  const ModelPin mem = ref.acquire("mem");
  const auto a = transcript(pin, 3, 6);
  const auto b = transcript(mem, 3, 6);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a, b);
}

TEST(Registry, CorruptedCheckpointIsALoadError) {
  TempFile f("registry_corrupt.etw");
  Stack s = make_stack(5);
  et::nn::save_encoder_stack(f.path, s.layers);
  {
    // Flip one byte deep in the weight payload.
    std::fstream fs(f.path,
                    std::ios::in | std::ios::out | std::ios::binary);
    fs.seekp(200);
    char b = 0;
    fs.read(&b, 1);
    fs.seekp(200);
    b = static_cast<char>(b ^ 0x40);
    fs.write(&b, 1);
  }
  ModelRegistry reg;
  try {
    reg.load_file("bad", 1, f.path, s.opt, 16);
    FAIL() << "corrupted checkpoint loaded";
  } catch (const std::runtime_error& e) {
    // The CRC failure names the corrupted section.
    EXPECT_NE(std::string(e.what()).find("section"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(reg.models_loaded(), 0u);
}

// ---------------------------------------------------------------------------
// Pin lifetime.
// ---------------------------------------------------------------------------
TEST(Registry, PinKeepsInstanceAliveAcrossUnload) {
  ModelRegistry reg;
  add_stack(reg, "m", 1, 9);
  ModelPin pin = reg.acquire("m");
  ASSERT_NE(pin, nullptr);
  std::weak_ptr<const et::serving::LoadedModel> watch = pin;

  EXPECT_TRUE(reg.unload("m", 1));
  EXPECT_EQ(reg.models_loaded(), 0u);
  EXPECT_EQ(reg.acquire("m"), nullptr);
  // The pinned instance is still fully usable after unload...
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(transcript(pin, 2, 4).size(), 4u);
  EXPECT_EQ(reg.active_pins(), 1u);
  // ...and destroyed exactly when the last pin drops.
  pin.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(reg.active_pins(), 0u);
  EXPECT_FALSE(reg.unload("m", 1));  // already gone
}

TEST(Registry, CopyingAPinDoesNotChangeTheCount) {
  ModelRegistry reg;
  add_stack(reg, "m", 1, 9);
  ModelPin pin = reg.acquire("m");
  EXPECT_EQ(reg.active_pins(), 1u);
  ModelPin copy1 = pin;   // NOLINT(performance-unnecessary-copy-initialization)
  ModelPin copy2 = copy1; // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(reg.active_pins(), 1u);
  pin.reset();
  copy1.reset();
  EXPECT_EQ(reg.active_pins(), 1u);  // copy2 still holds the acquire
  copy2.reset();
  EXPECT_EQ(reg.active_pins(), 0u);
}

// ---------------------------------------------------------------------------
// Decode head: version sensitivity and determinism.
// ---------------------------------------------------------------------------
TEST(Registry, TranscriptsDistinguishModelVersions) {
  ModelRegistry reg;
  add_stack(reg, "m", 1, 100);  // different seeds => different weights
  add_stack(reg, "m", 2, 200);
  const ModelPin v1 = reg.acquire("m", 1);
  const ModelPin v2 = reg.acquire("m", 2);

  const auto t1 = transcript(v1, 3, 8);
  const auto t2 = transcript(v2, 3, 8);
  ASSERT_EQ(t1.size(), 8u);
  ASSERT_EQ(t2.size(), 8u);
  // The hidden state flows through the weights, and the select head
  // hashes its exact float bits — different versions MUST diverge (this
  // is what makes hot-swap bit-identity checks meaningful).
  EXPECT_NE(t1, t2);
  // Same version, fresh engine, any thread count: bit-identical.
  EXPECT_EQ(transcript(v1, 3, 8), t1);
  EXPECT_EQ(transcript(v1, 3, 8, /*threads=*/8), t1);
}

// ---------------------------------------------------------------------------
// Metrics binding.
// ---------------------------------------------------------------------------
TEST(Registry, GaugesAppendAfterExistingMetricsAndRefresh) {
  ModelRegistry reg;
  add_stack(reg, "m", 1, 9);

  et::serving::MetricsRegistry metrics;
  metrics.counter("pre_existing").inc(7);
  reg.bind_metrics(metrics);

  const auto fields = metrics.scalars();
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0].name, "pre_existing");  // older snapshot = a prefix
  EXPECT_EQ(fields[1].name, "models_loaded");
  EXPECT_EQ(fields[2].name, "swaps");
  EXPECT_EQ(fields[3].name, "active_pins");

  ModelPin pin = reg.acquire("m");
  reg.note_swap();
  reg.refresh_gauges();
  EXPECT_EQ(metrics.find_gauge("models_loaded")->value(), 1.0);
  EXPECT_EQ(metrics.find_gauge("swaps")->value(), 1.0);
  EXPECT_EQ(metrics.find_gauge("active_pins")->value(), 1.0);
  pin.reset();
  reg.refresh_gauges();
  EXPECT_EQ(metrics.find_gauge("active_pins")->value(), 0.0);
}

// ---------------------------------------------------------------------------
// Seeded chaos storm (the fuzz-ish registry soak).
// ---------------------------------------------------------------------------

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = et::diff::splitmix64(state); }
  std::size_t below(std::size_t n) { return next() % n; }
};

/// Drive a seeded storm of load / acquire / release / swap-bump / unload
/// ops against the registry, mirroring every op in plain bookkeeping.
/// Returns an op-outcome trace for run-to-run comparison.
std::vector<std::uint64_t> run_storm(std::uint64_t seed, std::size_t ops) {
  Rng rng{seed};
  ModelRegistry reg;
  const std::vector<std::string> names = {"a", "b", "c"};
  std::vector<std::pair<std::string, std::uint64_t>> loaded;  // mirror
  std::vector<ModelPin> pins;
  std::uint64_t next_version = 1;
  std::vector<std::uint64_t> trace;

  for (std::size_t i = 0; i < ops; ++i) {
    const std::string& name = names[rng.below(names.size())];
    switch (rng.below(5)) {
      case 0: {  // load a fresh version
        const std::uint64_t v = next_version++;
        add_stack(reg, name, v, rng.next());
        loaded.emplace_back(name, v);
        trace.push_back(1000 + v);
        break;
      }
      case 1: {  // acquire newest
        ModelPin p = reg.acquire(name);
        trace.push_back(p ? 2000 + p->version() : 2000);
        if (p) pins.push_back(std::move(p));
        break;
      }
      case 2: {  // release a random pin
        if (!pins.empty()) {
          const std::size_t k = rng.below(pins.size());
          trace.push_back(3000 + pins[k]->version());
          pins.erase(pins.begin() + static_cast<std::ptrdiff_t>(k));
        }
        break;
      }
      case 3: {  // a swap event at the bookkeeping level
        reg.note_swap();
        trace.push_back(4000);
        break;
      }
      case 4: {  // unload a random loaded version
        if (!loaded.empty()) {
          const std::size_t k = rng.below(loaded.size());
          const bool ok = reg.unload(loaded[k].first, loaded[k].second);
          trace.push_back(5000 + (ok ? 1 : 0));
          loaded.erase(loaded.begin() + static_cast<std::ptrdiff_t>(k));
        }
        break;
      }
    }
    // Conservation every op: the registry's books match the mirror.
    if (reg.models_loaded() != loaded.size() ||
        reg.active_pins() != pins.size()) {
      ADD_FAILURE() << "op " << i << ": models_loaded="
                    << reg.models_loaded() << " (want " << loaded.size()
                    << "), active_pins=" << reg.active_pins() << " (want "
                    << pins.size() << ")";
      break;
    }
  }
  // Steady state: dropping every pin returns the pin gauge to zero, and
  // pinned-but-unloaded instances die with their last pin.
  pins.clear();
  EXPECT_EQ(reg.active_pins(), 0u);
  EXPECT_EQ(reg.models_loaded(), loaded.size());
  trace.push_back(9000 + reg.swaps());
  return trace;
}

TEST(RegistryChaos, SeededStormConservesAndReproduces) {
  const auto t1 = run_storm(/*seed=*/0xE7, /*ops=*/400);
  const auto t2 = run_storm(/*seed=*/0xE7, /*ops=*/400);
  EXPECT_EQ(t1, t2) << "same seed must replay the same storm";
  const auto t3 = run_storm(/*seed=*/0x5EED, /*ops=*/400);
  EXPECT_NE(t1, t3) << "different seeds should explore different paths";
}

TEST(RegistryChaos, ConcurrentPinSoak) {
  // Pins are acquired and released from many threads while the main
  // thread loads, swaps and unloads — the registry's one-mutex contract
  // under the sanitizer presets. Totals must conserve at the end.
  ModelRegistry reg;
  add_stack(reg, "hot", 1, 1);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&reg, t] {
      Rng rng{0xAB00 + t};
      for (std::size_t i = 0; i < 300; ++i) {
        ModelPin p = reg.acquire("hot");
        if (p != nullptr && rng.below(2) == 0) {
          ModelPin copy = p;  // copies must not disturb the count
          copy.reset();
        }
      }
    });
  }
  for (std::uint64_t v = 2; v < 10; ++v) {
    add_stack(reg, "hot", v, v);
    reg.note_swap();
    reg.unload("hot", v - 1);
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.active_pins(), 0u);
  EXPECT_EQ(reg.models_loaded(), 1u);  // only version 9 remains
  EXPECT_EQ(reg.versions("hot"), (std::vector<std::uint64_t>{9}));
  EXPECT_EQ(reg.swaps(), 8u);
}

}  // namespace
