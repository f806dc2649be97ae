#include "nn/serialize.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

namespace et::nn {

namespace {

constexpr std::uint32_t kMagic = 0x32575445;  // "ETW2"
constexpr std::uint32_t kVersion = 2;

// Bounds on the fields a stream claims rather than carries, so a tampered
// value never becomes a giant allocation or an overflowing rows · cols.
constexpr std::uint64_t kMaxLayers = 1ull << 16;
constexpr std::uint64_t kMaxSectionBytes = 1ull << 32;
constexpr std::uint64_t kMaxDim = 1ull << 24;
/// Payloads are read in chunks, so a size field larger than the stream
/// costs at most one chunk before the truncation shows.
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

enum class Tag : std::uint32_t {
  kDense = 1,
  kRow = 2,
  kColumn = 3,
  kTile = 4,
  kIrregular = 5,
};

/// CRC-32 (IEEE 802.3), table-driven; the same polynomial gzip and PNG
/// use, so a checkpoint's section CRCs can be cross-checked externally.
std::uint32_t crc32(const char* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xffu] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

template <typename T>
void put_raw(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get_raw(std::istream& is, T& v) {
  return static_cast<bool>(is.read(reinterpret_cast<char*>(&v), sizeof v));
}

[[noreturn]] void section_error(const std::string& section,
                                const std::string& what) {
  throw std::runtime_error("et::nn::load: checkpoint section '" + section +
                           "': " + what);
}

std::string layer_prefix(std::size_t i) {
  return "layer" + std::to_string(i) + "/";
}

/// A tile record's mask: a 16×16 tile is kept iff it holds a nonzero —
/// exactly the tiles the writer saved, since it refuses all-zero ones.
sparse::Mask tile_mask(const tensor::MatrixF& m) {
  constexpr std::size_t kSide = sparse::kTileSide;
  sparse::Mask mask(m.rows(), m.cols(), 0);
  for (std::size_t tr = 0; tr + kSide <= m.rows(); tr += kSide) {
    for (std::size_t tc = 0; tc + kSide <= m.cols(); tc += kSide) {
      bool kept = false;
      for (std::size_t i = 0; i < kSide * kSide; ++i) {
        kept = kept || m(tr + i / kSide, tc + i % kSide) != 0.0f;
      }
      if (!kept) continue;
      for (std::size_t i = 0; i < kSide * kSide; ++i) {
        mask(tr + i / kSide, tc + i % kSide) = 1;
      }
    }
  }
  return mask;
}

/// An irregular record's mask: every nonzero is a stored value.
sparse::Mask nonzero_mask(const tensor::MatrixF& m) {
  sparse::Mask mask(m.rows(), m.cols(), 0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    mask.flat()[i] = m.flat()[i] != 0.0f ? 1 : 0;
  }
  return mask;
}

// A section is one named, independently checksummed unit of the stream:
//   u32 name length, name bytes, u64 payload size, u32 CRC32, payload.
// Its payload is a sequence of fields: u32 tags, u64 dimensions, and
// arrays (u64 element count, then the elements); a matrix is rows, cols
// and a float array of rows · cols elements.

/// Writes each section's fields into a buffered payload, then frames it.
class Saver {
 public:
  explicit Saver(std::ostream& os) : os_(os) {}

  std::string prefix;  ///< "layerN/" of the layer being written

  template <typename Fn>
  void section(const char* name, Fn&& fields) {
    section_ = prefix + name;
    payload_.clear();
    fields();
    put_raw(os_, static_cast<std::uint32_t>(section_.size()));
    os_.write(section_.data(), static_cast<std::streamsize>(section_.size()));
    put_raw(os_, static_cast<std::uint64_t>(payload_.size()));
    put_raw(os_, crc32(payload_.data(), payload_.size()));
    os_.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  }

  void weight(const char* name, const sparse::AnyWeight& w) {
    std::visit(
        [&](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, sparse::DenseWeight>) {
            put(Tag::kDense);
            matrix(v.matrix());
          } else if constexpr (std::is_same_v<T, sparse::RowPrunedWeight>) {
            put(Tag::kRow);
            put(std::uint64_t{v.original_rows()});
            put(std::uint64_t{v.original_cols()});
            array(v.kept_rows());
            matrix(v.condensed());
          } else if constexpr (std::is_same_v<T, sparse::ColPrunedWeight>) {
            put(Tag::kColumn);
            put(std::uint64_t{v.original_rows()});
            put(std::uint64_t{v.original_cols()});
            array(v.kept_cols());
            matrix(v.condensed());
          } else if constexpr (std::is_same_v<T, sparse::TilePrunedWeight>) {
            constexpr std::size_t kTileElems =
                sparse::kTileSide * sparse::kTileSide;
            for (std::size_t t = 0; t < v.nnz_tiles(); ++t) {
              const float* vals = v.tile_values(t);
              if (std::all_of(vals, vals + kTileElems,
                              [](float x) { return x == 0.0f; })) {
                unrecordable(name, "tile-pruned weight keeps an all-zero tile");
              }
            }
            put(Tag::kTile);
            matrix(v.to_dense());
          } else {
            if (std::any_of(v.values().begin(), v.values().end(),
                            [](float x) { return x == 0.0f; })) {
              unrecordable(name, "irregular weight stores a zero value");
            }
            put(Tag::kIrregular);
            matrix(v.to_dense());
          }
        },
        w);
  }

  void fold(const core::PrecomputedVO& vo) {
    put(std::uint64_t{vo.num_heads});
    array(vo.kept_cols);
    matrix(vo.weight);
  }

  void vec(const std::vector<float>& v) { array(v); }

 private:
  template <typename T>
  void put(T v) {
    payload_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }

  template <typename T>
  void array(const T* data, std::size_t n) {
    put(std::uint64_t{n});
    payload_.append(reinterpret_cast<const char*>(data), n * sizeof(T));
  }

  template <typename T>
  void array(const std::vector<T>& v) {
    array(v.data(), v.size());
  }

  void matrix(const tensor::MatrixF& m) {
    put(std::uint64_t{m.rows()});
    put(std::uint64_t{m.cols()});
    array(m.data(), m.size());
  }

  /// The stored dense form marks kept elements by their nonzeros, so it
  /// cannot record a kept zero.
  [[noreturn]] void unrecordable(const char* name, const char* why) const {
    throw std::invalid_argument("et::nn::save: " + section_ + " " + name +
                                ": " + why +
                                ", which the checkpoint cannot record");
  }

  std::ostream& os_;
  std::string section_;
  std::string payload_;
};

/// Reads each section through one bounded cursor over its payload: every
/// count, shape and index is checked against the bytes left before
/// anything is allocated or written, and every failure is a
/// std::runtime_error naming the section.
class Loader {
 public:
  explicit Loader(std::istream& is) : is_(is) {}

  std::string prefix;  ///< "layerN/" of the layer being read

  template <typename Fn>
  void section(const char* name, Fn&& fields) {
    section_ = prefix + name;
    read_payload();
    at_ = 0;
    fields();
    if (at_ != payload_.size()) {
      fail(std::to_string(payload_.size() - at_) + " trailing payload bytes");
    }
  }

  void weight(const char* name, sparse::AnyWeight& w) {
    try {
      switch (static_cast<Tag>(get<std::uint32_t>())) {
        case Tag::kDense:
          w = sparse::DenseWeight(matrix());
          return;
        case Tag::kRow: {
          const std::uint64_t rows = dim();
          const std::uint64_t cols = dim();
          auto kept = array<std::uint32_t>();
          auto condensed = matrix();
          if (condensed.cols() != cols) fail_weight(name, "shape mismatch");
          w = sparse::RowPrunedWeight::from_condensed(
              rows, std::move(condensed), std::move(kept));
          return;
        }
        case Tag::kColumn: {
          const std::uint64_t rows = dim();
          const std::uint64_t cols = dim();
          auto kept = array<std::uint32_t>();
          auto condensed = matrix();
          if (condensed.rows() != rows) fail_weight(name, "shape mismatch");
          w = sparse::ColPrunedWeight::from_condensed(
              cols, std::move(condensed), std::move(kept));
          return;
        }
        case Tag::kTile: {
          const auto dense = matrix();
          w = sparse::TilePrunedWeight::from_masked(dense, tile_mask(dense));
          return;
        }
        case Tag::kIrregular: {
          const auto dense = matrix();
          w = sparse::IrregularWeight::from_masked(dense, nonzero_mask(dense));
          return;
        }
      }
    } catch (const std::invalid_argument& e) {
      // The format factories' own validation (kept indices, tile
      // alignment) is a corrupt record here, not a caller error.
      fail_weight(name, e.what());
    }
    fail_weight(name, "unknown weight tag");
  }

  void fold(core::PrecomputedVO& vo) {
    vo.num_heads = get<std::uint64_t>();
    vo.kept_cols = array<std::uint32_t>();
    vo.weight = matrix();
    if (vo.empty()) return;
    // A fold must agree with itself: rows are num_heads blocks of kept,
    // and each kept column names an output column of the weight. The
    // loader checks this itself because load_encoder_stack also runs
    // without an nn::Model to check the layer against a config.
    const std::size_t kept = vo.kept();
    if (kept == 0 || vo.weight.rows() % kept != 0 ||
        vo.weight.rows() / kept != vo.num_heads) {
      fail("W_VO rows disagree with its head count and kept columns");
    }
    if (!sparse::kept_in_order(vo.kept_cols, vo.weight.cols())) {
      fail("W_VO kept columns out of range or out of order");
    }
  }

  void vec(std::vector<float>& v) { v = array<float>(); }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    section_error(section_, what);
  }
  [[noreturn]] void fail_weight(const char* name,
                                const std::string& what) const {
    fail(std::string(name) + ": " + what);
  }

  /// Section framing: name, size bound, then the payload in chunks (so
  /// the buffer grows only with bytes actually read) and its CRC.
  void read_payload() {
    std::uint32_t name_len = 0;
    if (!get_raw(is_, name_len)) fail("truncated stream (section header)");
    if (name_len != section_.size()) {
      fail("unexpected section name (corrupted header)");
    }
    std::string name(name_len, '\0');
    if (!is_.read(name.data(), name_len)) {
      fail("truncated stream (section name)");
    }
    if (name != section_) fail("found section '" + name + "' instead");
    std::uint64_t size = 0;
    std::uint32_t stored_crc = 0;
    if (!get_raw(is_, size) || !get_raw(is_, stored_crc)) {
      fail("truncated stream (section header)");
    }
    if (size > kMaxSectionBytes) {
      fail("implausible section size (corrupted header)");
    }
    payload_.clear();
    while (payload_.size() < size) {
      const std::size_t have = payload_.size();
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(size - have,
                                                           kReadChunk));
      payload_.resize(have + chunk);
      is_.read(payload_.data() + have, static_cast<std::streamsize>(chunk));
      if (static_cast<std::size_t>(is_.gcount()) != chunk) {
        fail("truncated stream (payload)");
      }
    }
    if (crc32(payload_.data(), payload_.size()) != stored_crc) {
      fail("CRC32 mismatch (checkpoint corrupted)");
    }
  }

  void take(void* dst, std::size_t n) {
    if (n > payload_.size() - at_) fail("truncated payload");
    if (n > 0) std::memcpy(dst, payload_.data() + at_, n);
    at_ += n;
  }

  template <typename T>
  T get() {
    T v{};
    take(&v, sizeof v);
    return v;
  }

  std::uint64_t dim() {
    const auto n = get<std::uint64_t>();
    if (n > kMaxDim) fail("implausible dimension " + std::to_string(n));
    return n;
  }

  /// An element count, bounded by the bytes left before the caller
  /// allocates for it.
  std::size_t count(std::size_t elem_bytes) {
    const auto n = get<std::uint64_t>();
    const std::size_t left = payload_.size() - at_;
    if (n > left / elem_bytes) {
      fail("count " + std::to_string(n) + " exceeds the " +
           std::to_string(left) + " payload bytes left");
    }
    return static_cast<std::size_t>(n);
  }

  template <typename T>
  std::vector<T> array() {
    std::vector<T> out(count(sizeof(T)));
    take(out.data(), out.size() * sizeof(T));
    return out;
  }

  tensor::MatrixF matrix() {
    const std::uint64_t rows = dim();
    const std::uint64_t cols = dim();
    const std::size_t n = count(sizeof(float));
    if (n != rows * cols) {
      fail("a " + std::to_string(rows) + "x" + std::to_string(cols) +
           " matrix holding " + std::to_string(n) + " values");
    }
    tensor::MatrixF m(rows, cols);
    take(m.data(), n * sizeof(float));
    return m;
  }

  std::istream& is_;
  std::string section_;
  std::string payload_;
  std::size_t at_ = 0;
};

/// One layer's sections in stream order, visited alike by the Saver and
/// the Loader, so the layout is written down once. `Layer` is
/// EncoderWeights, const for the Saver.
template <typename Io, typename Layer>
void layer_sections(Io& io, Layer& w) {
  io.section("attention", [&] {
    io.weight("W_Q", w.attn.wq);
    io.weight("W_K", w.attn.wk);
    io.weight("W_V", w.attn.wv);
    io.weight("W_O", w.attn.wo);
    io.fold(w.attn.vo);
  });
  io.section("ffn", [&] {
    io.weight("W_FF1", w.w_ff1);
    io.weight("W_FF2", w.w_ff2);
    io.vec(w.b_ff1);
    io.vec(w.b_ff2);
  });
  io.section("layernorm", [&] {
    io.vec(w.ln1_gamma);
    io.vec(w.ln1_beta);
    io.vec(w.ln2_gamma);
    io.vec(w.ln2_beta);
  });
}

}  // namespace

void save_encoder_stack(std::ostream& os,
                        const std::vector<EncoderWeights>& layers) {
  put_raw(os, kMagic);
  put_raw(os, kVersion);
  put_raw(os, static_cast<std::uint64_t>(layers.size()));
  Saver out(os);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    out.prefix = layer_prefix(i);
    layer_sections(out, layers[i]);
  }
}

std::vector<EncoderWeights> load_encoder_stack(std::istream& is) {
  std::uint32_t got_magic = 0;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!get_raw(is, got_magic) || !get_raw(is, version) ||
      !get_raw(is, count)) {
    section_error("header", "truncated stream");
  }
  if (got_magic != kMagic) {
    section_error("header", "bad magic (not an ETW2 checkpoint)");
  }
  if (version != kVersion) {
    section_error("header", "unsupported version " + std::to_string(version));
  }
  if (count > kMaxLayers) {
    section_error("header", "implausible layer count " + std::to_string(count));
  }
  // No reserve(count): layers are allocated only as their sections load.
  std::vector<EncoderWeights> layers;
  Loader in(is);
  for (std::size_t i = 0; i < count; ++i) {
    in.prefix = layer_prefix(i);
    EncoderWeights w;
    layer_sections(in, w);
    layers.push_back(std::move(w));
  }
  return layers;
}

void save_encoder_stack(const std::string& path,
                        const std::vector<EncoderWeights>& layers) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  save_encoder_stack(f, layers);
  if (!f) throw std::runtime_error("write failed: " + path);
}

std::vector<EncoderWeights> load_encoder_stack(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  return load_encoder_stack(f);
}

}  // namespace et::nn
