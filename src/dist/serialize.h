// Whole-sketch wire serialization (§5.3 deployment path): a site ships its
// ECM-sketch to its parent as a self-describing byte string — magic,
// checksum, the full EcmConfig, the sketch clock, and every counter's own
// wire encoding (window/{exponential_histogram,…}.h SerializeTo).
//
// The wire size of these encodings is the single source of truth for the
// network-transfer accounting of the distributed benches (Fig. 5/6,
// Table 4), so the format favors compactness (varints) but stays exact:
// deserialization reproduces a sketch that answers every query identically
// to the original.
//
// Corruption safety: the header carries an FNV-1a checksum of the entire
// payload, so truncated or bit-flipped inputs are rejected with
// StatusCode::kCorruption instead of parsing into garbage (or worse,
// attempting a giant allocation from a flipped dimension field).

#ifndef ECM_DIST_SERIALIZE_H_
#define ECM_DIST_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace ecm {

/// Appends the wire encoding of a config to `w` (magic "ECMC" + fields).
void SerializeEcmConfig(const EcmConfig& cfg, ByteWriter* w);

/// Decodes and validates a config previously written by SerializeEcmConfig.
/// Dimension fields are bounds-checked so corrupt input cannot request an
/// absurd sketch allocation downstream.
Result<EcmConfig> DeserializeEcmConfig(ByteReader* r);

namespace wire_internal {

/// FNV-1a 64-bit checksum over a byte span.
uint64_t WireChecksum(const uint8_t* data, size_t size);

inline constexpr uint8_t kSketchMagic[4] = {'E', 'C', 'M', 'S'};
inline constexpr size_t kSketchHeaderBytes =
    sizeof(kSketchMagic) + sizeof(uint64_t);

/// Verifies `magic` + an FNV-1a payload checksum at the head of
/// [data, data+size) and positions `r` after them (the RLZ decoder's
/// header check).
Status CheckWireHeader(const uint8_t* data, size_t size,
                       const uint8_t (&magic)[4], ByteReader* r);

/// Wraps `payload` in the standard header (magic + FNV-1a checksum).
std::vector<uint8_t> WrapWirePayload(const uint8_t (&magic)[4],
                                     const ByteWriter& payload);

}  // namespace wire_internal

/// Serializes a whole sketch: header, config, clock, then all w×d counters
/// row-major.
template <SlidingWindowCounter Counter>
std::vector<uint8_t> SerializeSketch(const EcmSketch<Counter>& sketch) {
  ByteWriter payload;
  const EcmConfig& cfg = sketch.config();
  SerializeEcmConfig(cfg, &payload);
  payload.PutVarint(sketch.Now());
  payload.PutVarint(sketch.l1_lifetime());
  for (int j = 0; j < cfg.depth; ++j) {
    for (uint32_t i = 0; i < cfg.width; ++i) {
      sketch.CounterAt(j, i).SerializeTo(&payload);
    }
  }
  ByteWriter out;
  out.PutRaw(wire_internal::kSketchMagic, sizeof(wire_internal::kSketchMagic));
  out.PutFixed<uint64_t>(
      wire_internal::WireChecksum(payload.bytes().data(), payload.size()));
  out.PutRaw(payload.bytes().data(), payload.size());
  return out.MoveBytes();
}

/// Reconstructs a sketch from SerializeSketch bytes. Fails with a
/// Corruption status on truncation, checksum mismatch, or any malformed
/// field; never crashes on hostile input.
template <SlidingWindowCounter Counter>
Result<EcmSketch<Counter>> DeserializeSketch(const uint8_t* data,
                                             size_t size) {
  if (size < wire_internal::kSketchHeaderBytes) {
    return Status::Corruption("sketch bytes shorter than header");
  }
  ByteReader r(data, size);
  for (uint8_t expected : wire_internal::kSketchMagic) {
    auto b = r.GetFixed<uint8_t>();
    if (!b.ok()) return b.status();
    if (*b != expected) return Status::Corruption("bad sketch magic");
  }
  auto checksum = r.GetFixed<uint64_t>();
  if (!checksum.ok()) return checksum.status();
  const uint8_t* body = data + wire_internal::kSketchHeaderBytes;
  size_t body_size = size - wire_internal::kSketchHeaderBytes;
  if (wire_internal::WireChecksum(body, body_size) != *checksum) {
    return Status::Corruption("sketch checksum mismatch");
  }
  auto cfg = DeserializeEcmConfig(&r);
  if (!cfg.ok()) return cfg.status();
  auto now = r.GetVarint();
  if (!now.ok()) return now.status();
  auto l1 = r.GetVarint();
  if (!l1.ok()) return l1.status();
  EcmSketch<Counter> sketch(*cfg);
  for (int j = 0; j < cfg->depth; ++j) {
    for (uint32_t i = 0; i < cfg->width; ++i) {
      auto counter = Counter::Deserialize(&r);
      if (!counter.ok()) return counter.status();
      sketch.CounterAt(j, i) = std::move(*counter);
    }
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after sketch payload");
  }
  sketch.RestoreClock(*now, *l1);
  return sketch;
}

template <SlidingWindowCounter Counter>
Result<EcmSketch<Counter>> DeserializeSketch(
    const std::vector<uint8_t>& bytes) {
  return DeserializeSketch<Counter>(bytes.data(), bytes.size());
}

/// Exact size of the sketch on the wire — the currency of all
/// network-transfer accounting.
template <SlidingWindowCounter Counter>
size_t SketchWireSize(const EcmSketch<Counter>& sketch) {
  return SerializeSketch(sketch).size();
}

}  // namespace ecm

#endif  // ECM_DIST_SERIALIZE_H_
