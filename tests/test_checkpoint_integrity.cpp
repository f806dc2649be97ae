// Checkpoint integrity: the ETW2 format detects truncation and bit flips
// per named section, and its reader treats every field as untrusted
// — counts, shapes and kept indices are bounded before anything is
// allocated or written. Every corruption test asserts the error names the
// bad section: a corrupted checkpoint must point at *what* is bad, not
// just fail. The seeded mutation fuzzer at the bottom drives crafted
// streams (CRCs recomputed, so the parser behind the checksum is reached)
// through the loader, the nn::Model validation and a real-math decode.
// See docs/robustness.md.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <sstream>
#include <typeinfo>
#include <utility>

#include "nn/model.hpp"
#include "nn/serialize.hpp"
#include "pruning/strategy.hpp"
#include "serving/server.hpp"
#include "tensor/compare.hpp"
#include "train/model.hpp"

namespace {

using et::tensor::MatrixF;

constexpr std::size_t kMaxContext = 8;

et::nn::ModelConfig tiny_model() {
  et::nn::ModelConfig model;
  model.num_layers = 2;
  model.d_model = 32;
  model.num_heads = 2;
  model.d_ff = 64;
  return model;
}

std::vector<et::nn::EncoderWeights> tiny_stack(std::uint64_t seed) {
  return {et::nn::make_dense_encoder_weights(tiny_model(), seed),
          et::nn::make_dense_encoder_weights(tiny_model(), seed + 1)};
}

std::string serialize(const std::vector<et::nn::EncoderWeights>& layers) {
  std::stringstream ss;
  et::nn::save_encoder_stack(ss, layers);
  return ss.str();
}

std::vector<et::nn::EncoderWeights> load_encoder(const std::string& blob) {
  std::stringstream ss(blob);
  return et::nn::load_encoder_stack(ss);
}

/// Byte offset of the section *header* (the u32 name-length field) for
/// `name`. The name bytes could in principle also occur inside a float
/// payload, so require the preceding u32 to equal the name length.
std::size_t section_header_pos(const std::string& blob,
                               const std::string& name) {
  std::size_t pos = blob.find(name);
  while (pos != std::string::npos) {
    if (pos >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, blob.data() + pos - 4, 4);
      if (len == name.size()) return pos - 4;
    }
    pos = blob.find(name, pos + 1);
  }
  ADD_FAILURE() << "section '" << name << "' not found in stream";
  return 0;  // keep later indexing in-bounds; the failure is already flagged
}

/// First payload byte: header is u32 name_len + name + u64 size + u32 crc.
std::size_t section_payload_pos(const std::string& blob,
                                const std::string& name) {
  return section_header_pos(blob, name) + 4 + name.size() + 8 + 4;
}

/// CRC-32 (IEEE 802.3), bitwise: the test's own copy, so a re-checksummed
/// stream does not lean on the code under test.
std::uint32_t crc32(const char* data, std::size_t n) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= static_cast<unsigned char>(data[i]);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

/// Overwrite the field at `offset` in `section`'s payload, then recompute
/// that section's CRC so the loader parses the crafted value.
template <typename T>
void patch(std::string& blob, const std::string& section, std::size_t offset,
           T value) {
  const std::size_t size_at = section_header_pos(blob, section) + 4 +
                              section.size();
  const std::size_t payload = size_at + 8 + 4;
  std::memcpy(blob.data() + payload + offset, &value, sizeof value);
  std::uint64_t size = 0;
  std::memcpy(&size, blob.data() + size_at, 8);
  const std::uint32_t crc = crc32(blob.data() + payload, size);
  std::memcpy(blob.data() + size_at + 8, &crc, 4);
}

template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the load to throw";
  return {};
}

bool weights_equal(const et::nn::EncoderWeights& a,
                   const et::nn::EncoderWeights& b) {
  using et::sparse::to_dense;
  return allclose(to_dense(a.attn.wq), to_dense(b.attn.wq), 0.0, 0.0) &&
         allclose(to_dense(a.attn.wo), to_dense(b.attn.wo), 0.0, 0.0) &&
         allclose(to_dense(a.w_ff1), to_dense(b.w_ff1), 0.0, 0.0) &&
         allclose(to_dense(a.w_ff2), to_dense(b.w_ff2), 0.0, 0.0) &&
         a.b_ff1 == b.b_ff1 && a.b_ff2 == b.b_ff2 &&
         a.ln1_gamma == b.ln1_gamma && a.ln1_beta == b.ln1_beta &&
         a.ln2_gamma == b.ln2_gamma && a.ln2_beta == b.ln2_beta;
}

bool same_bits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Same format, same kept structure (rows, columns, tiles, elements) and
/// bit-identical values — what a save → load round trip must preserve.
bool same_weight(const et::sparse::AnyWeight& a,
                 const et::sparse::AnyWeight& b) {
  namespace sp = et::sparse;
  if (a.index() != b.index() || !same_bits(sp::to_dense(a), sp::to_dense(b))) {
    return false;
  }
  if (const auto* r = std::get_if<sp::RowPrunedWeight>(&a)) {
    return r->kept_rows() == std::get<sp::RowPrunedWeight>(b).kept_rows();
  }
  if (const auto* c = std::get_if<sp::ColPrunedWeight>(&a)) {
    return c->kept_cols() == std::get<sp::ColPrunedWeight>(b).kept_cols();
  }
  if (const auto* t = std::get_if<sp::TilePrunedWeight>(&a)) {
    const auto& u = std::get<sp::TilePrunedWeight>(b);
    return t->row_ptr() == u.row_ptr() && t->col_idx() == u.col_idx();
  }
  if (const auto* i = std::get_if<sp::IrregularWeight>(&a)) {
    const auto& j = std::get<sp::IrregularWeight>(b);
    return i->row_ptr() == j.row_ptr() && i->nnz() == j.nnz();
  }
  return true;
}

/// Rebuild a tile-pruned weight with each kept tile's values replaced by
/// `edit(tile, element, value)` — the tile structure stays as it was.
template <typename Fn>
et::sparse::TilePrunedWeight edit_kept_tiles(
    const et::sparse::TilePrunedWeight& w, Fn&& edit) {
  constexpr std::size_t kSide = et::sparse::kTileSide;
  MatrixF dense = w.to_dense();
  et::sparse::Mask mask(w.rows(), w.cols(), 0);
  for (std::size_t tr = 0; tr < w.tile_rows(); ++tr) {
    for (std::uint32_t t = w.row_ptr()[tr]; t < w.row_ptr()[tr + 1]; ++t) {
      for (std::size_t i = 0; i < kSide * kSide; ++i) {
        const std::size_t r = tr * kSide + i / kSide;
        const std::size_t c = w.col_idx()[t] * kSide + i % kSide;
        mask(r, c) = 1;
        dense(r, c) = edit(t, i, dense(r, c));
      }
    }
  }
  return et::sparse::TilePrunedWeight::from_masked(dense, mask);
}

/// The repo's own pruning pipeline on a tiny layer: the formats a real
/// deployment ships.
et::nn::EncoderWeights deployed(et::pruning::Strategy strategy,
                                bool precompute_vo = false) {
  et::train::TrainModelConfig cfg;
  cfg.vocab_size = 32;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  cfg.num_layers = 1;
  et::train::TransformerModel model(cfg, 4);
  et::pruning::StrategyOptions opt;
  opt.precompute_vo = precompute_vo;
  opt.v_group = 8;  // two groups per 16-row head: a condensable W_V
  const auto masks = et::pruning::compute_layer_masks(model.layers()[0],
                                                      strategy, 0.5, opt);
  return et::pruning::deploy_layer(model.layers()[0], masks, strategy, opt);
}

// ------------------------------------------------------- happy paths ----

TEST(CheckpointIntegrity, V2StackRoundTripsAndLeadsWithMagic) {
  const auto layers = tiny_stack(100);
  const std::string blob = serialize(layers);
  ASSERT_GE(blob.size(), 4u);
  EXPECT_EQ(blob.substr(0, 4), "ETW2");

  const auto loaded = load_encoder(blob);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(weights_equal(loaded[0], layers[0]));
  EXPECT_TRUE(weights_equal(loaded[1], layers[1]));
}

TEST(CheckpointIntegrity, LegacyMagicsAreRefusedAsBadMagic) {
  // Only ETW2 is read: the unchecksummed ETW1 and the retired decoder
  // magics ETD1/ETD2 are as foreign as any other.
  for (const char* magic : {"ETW1", "ETD1", "ETD2"}) {
    std::string blob = serialize(tiny_stack(120));
    blob.replace(0, 4, magic);
    EXPECT_NE(error_of([&] { (void)load_encoder(blob); }).find("bad magic"),
              std::string::npos)
        << magic;
  }
}

// -------------------------------------------------------- truncation ----

TEST(CheckpointIntegrity, TruncationNamesTheSectionItHit) {
  const std::string blob = serialize(tiny_stack(102));
  // Cut inside layer1's attention payload: earlier sections load clean,
  // then the reader must fail *on that section by name*.
  const std::size_t cut = section_payload_pos(blob, "layer1/attention") + 10;
  ASSERT_LT(cut, blob.size());
  const std::string msg =
      error_of([&] { (void)load_encoder(blob.substr(0, cut)); });
  EXPECT_NE(msg.find("layer1/attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, TruncationInsideHeaderNamesTheSection) {
  const std::string blob = serialize(tiny_stack(103));
  // Cut mid-header (inside the section name bytes) of layer0/ffn.
  const std::size_t cut = section_header_pos(blob, "layer0/ffn") + 6;
  const std::string msg =
      error_of([&] { (void)load_encoder(blob.substr(0, cut)); });
  EXPECT_NE(msg.find("layer0/ffn"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, TruncatedStreamClaimingAHugeSectionReadsOnlyItsBytes) {
  // 100 bytes whose first section header claims 256 MiB: the reader may
  // grow its buffer only by what the stream actually delivers.
  std::string blob = serialize(tiny_stack(122)).substr(0, 100);
  const std::size_t size_at =
      section_header_pos(blob, "layer0/attention") + 4 + 16;
  const std::uint64_t claim = std::uint64_t{256} << 20;
  std::memcpy(blob.data() + size_at, &claim, sizeof claim);

  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const std::string msg = error_of([&] { (void)load_encoder(blob); });
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_NE(msg.find("layer0/attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024)
      << "peak RSS grew by " << (after.ru_maxrss - before.ru_maxrss)
      << " KiB for a 100-byte stream";
}

// --------------------------------------------------------- bit flips ----

TEST(CheckpointIntegrity, FlippedPayloadByteNamesEachSectionType) {
  const std::string blob = serialize(tiny_stack(104));
  for (const std::string section :
       {"layer0/attention", "layer0/ffn", "layer0/layernorm",
        "layer1/layernorm"}) {
    std::string bad = blob;
    bad[section_payload_pos(bad, section)] ^= 0x40;
    const std::string msg = error_of([&] { (void)load_encoder(bad); });
    EXPECT_NE(msg.find(section), std::string::npos) << msg;
    EXPECT_NE(msg.find("CRC32"), std::string::npos) << msg;
  }
}

TEST(CheckpointIntegrity, FlippedHeaderByteIsCorruptedHeaderNotGarbageLoad) {
  const std::string blob = serialize(tiny_stack(105));
  std::string bad = blob;
  bad[section_header_pos(bad, "layer0/ffn")] ^= 0x10;  // name-length field
  const std::string msg = error_of([&] { (void)load_encoder(bad); });
  EXPECT_NE(msg.find("layer0/ffn"), std::string::npos) << msg;
  EXPECT_NE(msg.find("corrupted header"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, FlippedSizeFieldNeverBecomesHugeAllocation) {
  const std::string blob = serialize(tiny_stack(106));
  std::string bad = blob;
  // Flip the top byte of the u64 payload-size field: a naive reader would
  // try to allocate ~2^56 bytes.
  const std::size_t size_field =
      section_header_pos(bad, "layer0/attention") + 4 +
      std::string("layer0/attention").size();
  bad[size_field + 7] ^= 0x01;
  const std::string msg = error_of([&] { (void)load_encoder(bad); });
  EXPECT_NE(msg.find("layer0/attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("implausible section size"), std::string::npos) << msg;
}

// ------------------------------------------------------ layer counts ----

TEST(CheckpointIntegrity, OffByOneLayerCountNamesTheMissingSection) {
  std::string blob = serialize(std::vector<et::nn::EncoderWeights>{
      et::nn::make_dense_encoder_weights(tiny_model(), 107)});
  // Layer count is the u64 after magic + version. 1 -> 2: the reader asks
  // for layer1's sections past the end of the stream.
  ASSERT_EQ(blob[8], 1);
  blob[8] = 2;
  const std::string msg = error_of([&] { (void)load_encoder(blob); });
  EXPECT_NE(msg.find("layer1/attention"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, ImplausibleLayerCountRejectedBeforeAllocating) {
  std::string blob = serialize(std::vector<et::nn::EncoderWeights>{
      et::nn::make_dense_encoder_weights(tiny_model(), 108)});
  for (std::size_t i = 8; i < 16; ++i) blob[i] = static_cast<char>(0xff);
  const std::string msg = error_of([&] { (void)load_encoder(blob); });
  EXPECT_NE(msg.find("implausible layer count"), std::string::npos) << msg;
}

// ------------------------------------- crafted fields with valid CRCs ----
// Layer 0's W_Q record opens the "layer0/attention" payload: u32 tag at
// offset 0, then (dense) u64 rows @4, cols @12, float count @20, or (row /
// column pruned) u64 rows @4, cols @12, kept count @20, kept[i] @28 + 4i.

/// One dense layer whose W_Q is replaced by `wq`, serialized.
std::string stream_with_wq(et::sparse::AnyWeight wq) {
  auto w = et::nn::make_dense_encoder_weights(tiny_model(), 130);
  w.attn.wq = std::move(wq);
  return serialize(std::vector<et::nn::EncoderWeights>{w});
}

std::string crafted_error(std::string blob, std::size_t offset,
                          std::uint64_t value, std::size_t width = 8) {
  if (width == 4) {
    patch(blob, "layer0/attention", offset, static_cast<std::uint32_t>(value));
  } else {
    patch(blob, "layer0/attention", offset, value);
  }
  return error_of([&] { (void)load_encoder(blob); });
}

TEST(CheckpointIntegrity, RowKeptIndexBeyondTheRowsIsALoadError) {
  const std::string blob =
      stream_with_wq(et::sparse::RowPrunedWeight::from_kept_rows(
          MatrixF(32, 32, 1.0f), {0, 5, 9}));
  const std::string msg = crafted_error(blob, 36, 1u << 20, 4);  // kept[2]
  EXPECT_NE(msg.find("layer0/attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("W_Q"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, ColumnKeptIndexBeyondTheColumnsIsALoadError) {
  const std::string blob =
      stream_with_wq(et::sparse::ColPrunedWeight::from_kept_cols(
          MatrixF(32, 32, 1.0f), {0, 5, 9}));
  const std::string msg = crafted_error(blob, 36, 1u << 20, 4);  // kept[2]
  EXPECT_NE(msg.find("layer0/attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("W_Q"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, FloatCountBeyondThePayloadNamesTheSection) {
  // 2^28 floats claimed inside a ~16 KiB section: refused before the
  // 1 GiB allocation, by name.
  const std::string blob = serialize(tiny_stack(131));
  const std::string msg = crafted_error(blob, 20, std::uint64_t{1} << 28);
  EXPECT_NE(msg.find("layer0/attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, HugeFloatCountIsARuntimeErrorNotLengthError) {
  const std::string blob = serialize(tiny_stack(132));
  const std::string msg = crafted_error(blob, 20, std::uint64_t{1} << 61);
  EXPECT_NE(msg.find("layer0/attention"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, OverflowingMatrixShapeIsALoadError) {
  // (2^59 + 32) × 32 wraps to 1024 elements — exactly the floats stored.
  std::string blob = serialize(tiny_stack(133));
  patch(blob, "layer0/attention", 4, (std::uint64_t{1} << 59) + 32);
  const std::string msg = error_of([&] { (void)load_encoder(blob); });
  EXPECT_NE(msg.find("layer0/attention"), std::string::npos) << msg;
}

// ------------------------------------------ tile / irregular records ----
// Both store only the dense reconstruction; the loader recovers the
// structure from its nonzeros. A kept zero element inside a kept tile
// round-trips; a kept all-zero tile or a stored irregular zero cannot be
// recorded, so the writer refuses it by name.

et::sparse::TilePrunedWeight tile_pruned_wq() {
  return std::get<et::sparse::TilePrunedWeight>(
      deployed(et::pruning::Strategy::kTile).attn.wq);
}

TEST(CheckpointIntegrity, TileWeightWithAKeptZeroRoundTrips) {
  const auto wq = edit_kept_tiles(tile_pruned_wq(),
                                  [](std::size_t t, std::size_t i, float v) {
                                    return t == 0 && i == 3 ? 0.0f : v;
                                  });
  ASSERT_GE(wq.nnz_tiles(), 2u);
  const auto loaded = load_encoder(stream_with_wq(wq));
  EXPECT_TRUE(same_weight(loaded[0].attn.wq, wq));
}

TEST(CheckpointIntegrity, AllZeroKeptTileIsRefusedAtSave) {
  const auto wq = edit_kept_tiles(
      tile_pruned_wq(),
      [](std::size_t t, std::size_t, float v) { return t == 1 ? 0.0f : v; });
  try {
    (void)stream_with_wq(wq);
    FAIL() << "a kept all-zero tile saved; it reloads as a pruned tile";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("layer0/attention W_Q"),
              std::string::npos)
        << e.what();
  }
}

/// `w` (irregular) with its first stored value set to zero: a kept
/// element the dense record cannot tell from a pruned one.
et::sparse::IrregularWeight with_stored_zero(const et::sparse::AnyWeight& w) {
  MatrixF dense = et::sparse::to_dense(w);
  et::sparse::Mask mask(dense.rows(), dense.cols(), 0);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    mask.flat()[i] = dense.flat()[i] != 0.0f ? 1 : 0;
  }
  *std::find_if(dense.flat().begin(), dense.flat().end(),
                [](float v) { return v != 0.0f; }) = 0.0f;
  return et::sparse::IrregularWeight::from_masked(dense, mask);
}

TEST(CheckpointIntegrity, IrregularStoredZeroIsRefusedAtSave) {
  auto w = deployed(et::pruning::Strategy::kIrregular);
  w.w_ff2 = with_stored_zero(w.w_ff2);
  try {
    (void)serialize(std::vector<et::nn::EncoderWeights>{w});
    FAIL() << "a stored irregular zero saved; it reloads as pruned";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("layer0/ffn W_FF2"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------- fuzzer ----
// Seeded, structure-aware mutation of streams the repo's own writer
// produces. Each case applies one mutation — a bit flip, a rewritten
// count/shape/tag/index field, a consistently resized array (count, dims
// and bytes together), inserted or deleted bytes, a flip in the framing,
// or truncation — and recomputes every section's size and CRC (framing
// flips and truncation excepted), so the parser behind the checksum sees
// the crafted fields. Every case must end in exactly one way:
//   - the loader throws std::runtime_error;
//   - nn::Model refuses the stack with std::invalid_argument;
//   - the stack decodes 3 tokens with real math on a one-slot scheduler.
// A stack that loads must also re-save and reload to the same weights.
// Anything else — another exception type, a crash, a sanitizer report —
// fails. `ctest --preset sanitize` runs this binary under ASan + UBSan.

constexpr std::uint64_t kFuzzSeed = 0xE7C0FFEEull;
constexpr std::size_t kFuzzCases = 1500;

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

struct Section {
  std::string name;
  std::string payload;
};

/// A well-formed stream split at its framing, so mutations can touch one
/// payload and join() can re-frame it with fresh sizes and CRCs.
struct Stream {
  std::string header;  // magic, version, layer count
  std::vector<Section> sections;
};

Stream split(const std::string& blob) {
  Stream s{blob.substr(0, 16), {}};
  for (std::size_t at = 16; at < blob.size();) {
    std::uint32_t name_len = 0;
    std::uint64_t size = 0;
    std::memcpy(&name_len, blob.data() + at, 4);
    std::memcpy(&size, blob.data() + at + 4 + name_len, 8);
    const std::size_t payload = at + 4 + name_len + 12;
    s.sections.push_back(
        {blob.substr(at + 4, name_len), blob.substr(payload, size)});
    at = payload + size;
  }
  return s;
}

std::string join(const Stream& s) {
  std::string out = s.header;
  const auto put = [&](const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const Section& sec : s.sections) {
    put(static_cast<std::uint32_t>(sec.name.size()));
    out += sec.name;
    put(static_cast<std::uint64_t>(sec.payload.size()));
    put(crc32(sec.payload.data(), sec.payload.size()));
    out += sec.payload;
  }
  return out;
}

/// Where one payload keeps its integer fields and arrays, found by walking
/// the layout the writer produced (the mutation targets).
struct Layout {
  struct Int {
    std::size_t at, width;
  };
  struct Array {
    std::size_t count_at, elem, n;
    std::size_t dims_at;  // rows/cols of a matrix; npos for a plain array
  };
  std::vector<Int> ints;
  std::vector<Array> arrays;
};

class Walker {
 public:
  explicit Walker(const std::string& p) : p_(p) {}

  Layout walk(const std::string& section) {
    if (section.ends_with("attention")) {
      for (int i = 0; i < 4; ++i) weight();
      integer(8);  // W_VO heads
      array(4, /*indices=*/true);
      matrix();
    } else if (section.ends_with("ffn")) {
      weight();
      weight();
      array(4);
      array(4);
    } else {
      while (at_ < p_.size()) array(4);
    }
    return out_;
  }

 private:
  std::uint64_t integer(std::size_t width) {
    std::uint64_t v = 0;
    std::memcpy(&v, p_.data() + at_, width);
    out_.ints.push_back({at_, width});
    at_ += width;
    return v;
  }
  void array(std::size_t elem, bool indices = false,
             std::size_t dims_at = std::string::npos) {
    const std::size_t count_at = at_;
    const std::uint64_t n = integer(8);
    if (indices) {
      for (std::uint64_t i = 0; i < n; ++i) integer(4);
    } else {
      at_ += n * elem;
    }
    out_.arrays.push_back({count_at, elem, n, dims_at});
  }
  void matrix() {
    const std::size_t dims_at = at_;
    integer(8);
    integer(8);
    array(4, false, dims_at);
  }
  void weight() {
    const std::uint64_t tag = integer(4);
    if (tag == 2 || tag == 3) {  // row / column pruned: shape + kept
      integer(8);
      integer(8);
      array(4, /*indices=*/true);
    }
    matrix();
  }

  const std::string& p_;
  std::size_t at_ = 0;
  Layout out_;
};

/// A seed stream with its sections' layouts.
struct Seed {
  Stream stream;
  std::vector<Layout> layouts;
};

Seed make_seed(const std::string& blob) {
  Seed s{split(blob), {}};
  for (const Section& sec : s.stream.sections) {
    s.layouts.push_back(Walker(sec.payload).walk(sec.name));
  }
  return s;
}

TEST(CheckpointIntegrity, FoldKeptColumnBeyondItsWeightIsALoadError) {
  // load_encoder_stack runs without an nn::Model to check the stack
  // against a config, so the reader bounds the W_VO kept columns by the
  // weight they index.
  std::string blob = serialize(std::vector<et::nn::EncoderWeights>{
      deployed(et::pruning::Strategy::kAttentionAware,
               /*precompute_vo=*/true)});
  const std::string section = "layer0/attention";
  const std::size_t payload = section_payload_pos(blob, section);
  std::uint64_t size = 0;
  std::memcpy(&size, blob.data() + payload - 12, 8);
  const Layout layout = Walker(blob.substr(payload, size)).walk(section);
  const Layout::Array kept = layout.arrays[layout.arrays.size() - 2];
  ASSERT_GT(kept.n, 0u);
  patch(blob, section, kept.count_at + 8 + 4 * (kept.n - 1),
        std::uint32_t{1u << 20});
  const std::string msg = error_of([&] { (void)load_encoder(blob); });
  EXPECT_NE(msg.find(section), std::string::npos) << msg;
  EXPECT_NE(msg.find("W_VO"), std::string::npos) << msg;
}

std::uint64_t interesting(Rng& rng, std::uint64_t old) {
  const std::uint64_t values[] = {0,
                                  1,
                                  old - 1,
                                  old + 1,
                                  old * 2,
                                  old / 2,
                                  5,
                                  16,
                                  31,
                                  32,
                                  33,
                                  48,
                                  64,
                                  1ull << 24,
                                  (1ull << 24) + 1,
                                  1ull << 28,
                                  1ull << 32,
                                  (1ull << 59) + 32,
                                  1ull << 61,
                                  ~0ull,
                                  rng.next()};
  return values[rng.below(std::size(values))];
}

/// Apply one seeded mutation; returns the stream bytes and a description.
std::pair<std::string, std::string> mutate(const Seed& seed, Rng& rng) {
  Stream s = seed.stream;
  const std::size_t k = rng.below(s.sections.size());
  std::string& p = s.sections[k].payload;
  const Layout& layout = seed.layouts[k];
  std::string what = s.sections[k].name + ": ";
  const auto write_int = [&](std::size_t at, std::size_t width,
                             std::uint64_t v) {
    std::memcpy(p.data() + at, &v, width);
  };
  switch (rng.below(7)) {
    case 0: {  // bit flip in a payload
      const std::size_t at = rng.below(p.size());
      p[at] = static_cast<char>(p[at] ^ (1 << rng.below(8)));
      what += "flip @" + std::to_string(at);
      break;
    }
    case 1: {  // rewrite an integer field
      const Layout::Int f = layout.ints[rng.below(layout.ints.size())];
      std::uint64_t old = 0;
      std::memcpy(&old, p.data() + f.at, f.width);
      const std::uint64_t v = interesting(rng, old);
      write_int(f.at, f.width, v);
      what += "field @" + std::to_string(f.at) + " = " + std::to_string(v);
      break;
    }
    case 2: {  // resize an array consistently: count, dims and bytes
      const Layout::Array a = layout.arrays[rng.below(layout.arrays.size())];
      std::uint64_t n = 0;
      if (a.dims_at != std::string::npos) {
        const std::uint64_t dims[] = {0, 16, 31, 32, 48, 64};
        const std::uint64_t r = dims[rng.below(std::size(dims))];
        const std::uint64_t c = dims[rng.below(std::size(dims))];
        write_int(a.dims_at, 8, r);
        write_int(a.dims_at + 8, 8, c);
        n = r * c;
      } else {
        const std::uint64_t counts[] = {0, a.n - 1, a.n + 1, a.n / 2,
                                        a.n * 2};
        n = counts[rng.below(std::size(counts))] & 0xffff;
      }
      write_int(a.count_at, 8, n);
      const std::size_t data = a.count_at + 8;
      const std::size_t old_bytes = a.n * a.elem;
      const std::size_t new_bytes = n * a.elem;
      if (new_bytes < old_bytes) {
        p.erase(data + new_bytes, old_bytes - new_bytes);
      } else {
        std::string extra(new_bytes - old_bytes, '\0');
        for (char& b : extra) b = static_cast<char>(rng.next());
        p.insert(data + old_bytes, extra);
      }
      what += "resize array @" + std::to_string(a.count_at) + " to " +
              std::to_string(n);
      break;
    }
    case 3: {  // insert bytes
      const std::size_t at = rng.below(p.size() + 1);
      std::string extra(1 + rng.below(8), '\0');
      for (char& b : extra) b = static_cast<char>(rng.next());
      p.insert(at, extra);
      what += "insert " + std::to_string(extra.size()) + " @" +
              std::to_string(at);
      break;
    }
    case 4: {  // delete bytes
      const std::size_t at = rng.below(p.size());
      const std::size_t n = 1 + rng.below(8);
      p.erase(at, n);
      what += "delete " + std::to_string(n) + " @" + std::to_string(at);
      break;
    }
    case 5: {  // flip a bit in the framing (headers are not checksummed)
      std::string blob = join(s);
      std::vector<std::size_t> framing;
      for (std::size_t i = 0; i < 16; ++i) framing.push_back(i);
      std::size_t at = 16;
      for (const Section& sec : s.sections) {
        for (std::size_t i = 0; i < 16 + sec.name.size(); ++i) {
          framing.push_back(at + i);
        }
        at += 16 + sec.name.size() + sec.payload.size();
      }
      const std::size_t f = framing[rng.below(framing.size())];
      blob[f] = static_cast<char>(blob[f] ^ (1 << rng.below(8)));
      return {blob, "framing flip @" + std::to_string(f)};
    }
    default: {  // truncate the stream
      const std::string blob = join(s);
      const std::size_t cut = rng.below(blob.size());
      return {blob.substr(0, cut), "truncate at " + std::to_string(cut)};
    }
  }
  return {join(s), what};
}

et::nn::EncoderOptions fuzz_options() {
  return et::nn::options_for(et::nn::Pipeline::kET, tiny_model(), kMaxContext,
                             /*causal=*/true);
}

/// Three tokens through a one-slot server on a real-math device.
void decode_three_tokens(const et::nn::Model& model) {
  et::gpusim::Device dev(et::gpusim::v100s());
  et::core::ExecContext ctx(dev);
  et::serving::InferenceServer server(model, {/*max_batch=*/1,
                                              /*queue_capacity=*/1});
  et::serving::Request req;
  req.first_token = 1;
  req.max_new_tokens = 3;
  const std::size_t d = model.d_model();
  req.embed = [d](std::int32_t token, std::size_t position) {
    MatrixF row(1, d);
    for (std::size_t c = 0; c < d; ++c) {
      row(0, c) = 0.01f * static_cast<float>((token + 3 * position + c) % 7);
    }
    return row;
  };
  req.select = [](const MatrixF& h) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, h.data(), sizeof bits);
    return static_cast<std::int32_t>(bits % 16);
  };
  const et::serving::RequestHandle h = server.submit(std::move(req));
  const et::nn::GenerationResult& result = server.wait(h, ctx);
  if (result.tokens.size() != 3) {
    throw std::logic_error("decode stopped early: " +
                           std::string(to_string(result.stop_reason)));
  }
}

/// The loaded weights are a fixed point of the writer and reader: they
/// re-save, and reload to the same formats, structures and bits.
void expect_reload_identical(
    const std::vector<et::nn::EncoderWeights>& layers) {
  const std::string blob = serialize(layers);
  const std::vector<et::nn::EncoderWeights> again = load_encoder(blob);
  if (serialize(again) != blob) throw std::logic_error("re-save differs");
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const et::core::AttentionWeights& a = layers[l].attn;
    const et::core::AttentionWeights& b = again[l].attn;
    if (!same_weight(layers[l].w_ff1, again[l].w_ff1) ||
        !same_weight(layers[l].w_ff2, again[l].w_ff2) ||
        !same_weight(a.wq, b.wq) || !same_weight(a.wk, b.wk) ||
        !same_weight(a.wv, b.wv) || !same_weight(a.wo, b.wo)) {
      throw std::logic_error("reload changed a weight's structure");
    }
  }
}

enum class Outcome { kLoadError, kRefused, kDecoded };

Outcome run_encoder_case(const std::string& blob) {
  std::vector<et::nn::EncoderWeights> layers;
  try {
    layers = load_encoder(blob);
  } catch (const std::runtime_error&) {
    return Outcome::kLoadError;
  }
  expect_reload_identical(layers);
  std::optional<et::nn::Model> model;
  try {
    model.emplace(&layers, fuzz_options(), kMaxContext);
  } catch (const std::invalid_argument&) {
    return Outcome::kRefused;
  }
  decode_three_tokens(*model);
  return Outcome::kDecoded;
}

/// Every seed must either save and round-trip exactly, or be refused at
/// save with std::invalid_argument. Returns the streams that saved.
std::vector<std::string> seed_streams(
    const std::vector<std::vector<et::nn::EncoderWeights>>& stacks) {
  std::vector<std::string> out;
  for (const auto& stack : stacks) {
    std::string blob;
    try {
      blob = serialize(stack);
    } catch (const std::invalid_argument&) {
      continue;  // unrecordable by design; the save named it
    }
    EXPECT_NO_THROW(expect_reload_identical(stack));
    out.push_back(blob);
  }
  return out;
}

/// Run the budget over the seeds; stops at the first failing case.
std::array<std::size_t, 3> fuzz(const std::vector<std::string>& blobs) {
  std::vector<Seed> seeds;
  for (const std::string& b : blobs) seeds.push_back(make_seed(b));
  std::array<std::size_t, 3> outcomes{};
  Rng rng{kFuzzSeed};
  for (std::size_t i = 0; i < kFuzzCases; ++i) {
    // Case 0 of each seed is the unmutated stream.
    const Seed& seed = seeds[i % seeds.size()];
    const auto [blob, what] =
        i < seeds.size()
            ? std::pair<std::string, std::string>{join(seed.stream),
                                                  "unmutated"}
            : mutate(seed, rng);
    try {
      ++outcomes[static_cast<std::size_t>(run_encoder_case(blob))];
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " (" << what << "): "
                    << typeid(e).name() << ": " << e.what();
      break;
    }
  }
  return outcomes;
}

std::vector<std::vector<et::nn::EncoderWeights>> encoder_seeds() {
  using et::pruning::Strategy;
  auto aware = deployed(Strategy::kAttentionAware);  // tile + condensable W_V
  // A kept zero inside a kept tile must survive the round trip too.
  aware.attn.wq = edit_kept_tiles(
      std::get<et::sparse::TilePrunedWeight>(aware.attn.wq),
      [](std::size_t t, std::size_t i, float v) {
        return t == 0 && i == 0 ? 0.0f : v;
      });
  // Unrecordable seeds, which the writer must refuse: a kept all-zero
  // tile and a stored irregular zero.
  auto zero_tile = aware;
  zero_tile.attn.wk = edit_kept_tiles(
      std::get<et::sparse::TilePrunedWeight>(aware.attn.wk),
      [](std::size_t t, std::size_t, float v) { return t == 0 ? 0.0f : v; });
  auto irregular = deployed(Strategy::kIrregular);
  auto zero_value = irregular;
  zero_value.w_ff1 = with_stored_zero(irregular.w_ff1);
  // Mixed formats in one layer: a W_VO fold beside a column-pruned W_K
  // and an irregular W_FF1.
  auto mixed = deployed(Strategy::kAttentionAware, /*precompute_vo=*/true);
  mixed.attn.wk = deployed(Strategy::kColumn).attn.wk;
  mixed.w_ff1 = irregular.w_ff1;
  return {{et::nn::make_dense_encoder_weights(tiny_model(), 140)},
          {aware, deployed(Strategy::kAttentionAware, /*precompute_vo=*/true)},
          {irregular, deployed(Strategy::kColumn)},
          {mixed},
          {zero_tile},
          {zero_value}};
}

TEST(CheckpointIntegrity, FuzzedEtw2StreamsFailCleanlyOrDecode) {
  const auto blobs = seed_streams(encoder_seeds());
  ASSERT_EQ(blobs.size(), 4u) << "an unrecordable seed saved";
  const auto outcomes = fuzz(blobs);
  // Each outcome must actually be reached, or the fuzzer tests nothing.
  EXPECT_GT(outcomes[0], 0u) << "no case failed to load";
  EXPECT_GT(outcomes[1], 0u) << "no case was refused by nn::Model";
  EXPECT_GT(outcomes[2], 0u) << "no case decoded";
  std::printf("[ fuzz     ] ETW2: %zu load errors, %zu refused, %zu decoded\n",
              outcomes[0], outcomes[1], outcomes[2]);
}

}  // namespace
