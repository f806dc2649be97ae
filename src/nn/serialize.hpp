// Binary serialization of deployed weights — the artifact a production
// user ships after the prune/retrain pipeline. All five weight formats
// round-trip, so a model pruned on one machine loads for inference
// elsewhere without re-deriving masks.
//
// Format: little-endian, the "ETW2" magic, version 2 and a layer count,
// then named sections ("layer0/attention", "layer0/ffn",
// "layer0/layernorm", ...), each carrying its payload size and a CRC32 of
// the payload. Any other magic is refused as bad magic. The reader treats
// the stream as untrusted: every count, shape and index is checked
// against the payload bytes before anything is allocated or written, so
// a truncated, bit-flipped or crafted checkpoint is a std::runtime_error
// naming the bad section, never garbage weights or a giant allocation.
// Not designed for cross-endian portability (like most ML checkpoint
// formats).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/encoder.hpp"

namespace et::nn {

/// Serialize a whole stack (magic + version + layer count + sections).
/// Tile and irregular records store only the dense reconstruction, so a
/// tile-pruned weight that keeps an all-zero tile, or an irregular one
/// that stores a zero, throws std::invalid_argument naming the weight: it
/// would reload with a different structure. The stream then ends after
/// the sections already written, which the loader refuses as truncated.
void save_encoder_stack(std::ostream& os,
                        const std::vector<EncoderWeights>& layers);
[[nodiscard]] std::vector<EncoderWeights> load_encoder_stack(std::istream& is);

/// File-path convenience wrappers; throw std::runtime_error on IO failure.
void save_encoder_stack(const std::string& path,
                        const std::vector<EncoderWeights>& layers);
[[nodiscard]] std::vector<EncoderWeights> load_encoder_stack(
    const std::string& path);

}  // namespace et::nn
