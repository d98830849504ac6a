#include "src/dist/serialize.h"

#include <cmath>

namespace ecm {
namespace {

constexpr uint8_t kConfigMagic[4] = {'E', 'C', 'M', 'C'};

// Config wire version. v2 added the explicit version byte itself and the
// hash-reduction field (the fast-range bucket mapping re-maps every key,
// so decoding a v1 sketch with v2 code would silently answer queries from
// the wrong buckets — stale encodings must be rejected, not misread).
constexpr uint8_t kConfigWireVersion = 2;

// The v2 hash-reduction byte. Fast range (2) is the only bucket mapping;
// the byte stays on the wire so ECMS/ECMZ images keep their layout, and
// any other value — 1 named the retired `raw % width` modulo mapping —
// is rejected as corruption rather than decoded into the wrong buckets.
constexpr uint8_t kFastRangeReduction = 2;

// Upper bounds accepted from the wire. Real configs are far below these
// (width = ceil(e/ε_cm), depth = ceil(ln 1/δ_cm)); the caps exist so a
// corrupt dimension field cannot request a multi-gigabyte allocation.
constexpr uint64_t kMaxWidth = 1u << 22;
constexpr int kMaxDepth = 64;
constexpr uint64_t kMaxCounters = 1u << 22;

// Field domains accepted from the wire. epsilon_sw / delta_sw flow into
// the counter constructors, which require (0,1] / [0,1); the total-budget
// fields are informational but still bounded (multi-level merges can push
// the total epsilon above 1, never to absurd values).
bool ValidTotalBudget(double v) {
  return std::isfinite(v) && v > 0.0 && v <= 16.0;
}
bool ValidComponentEpsilon(double v) {
  return std::isfinite(v) && v > 0.0 && v <= 1.0;
}
bool ValidDelta(double v) { return std::isfinite(v) && v >= 0.0 && v < 1.0; }
// RW counters derive their delta from the total when delta_sw is unset,
// so the total delta must be a usable probability itself.
bool ValidTotalDelta(double v) {
  return std::isfinite(v) && v > 0.0 && v < 1.0;
}

}  // namespace

namespace wire_internal {

uint64_t WireChecksum(const uint8_t* data, size_t size) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

Status CheckWireHeader(const uint8_t* data, size_t size,
                       const uint8_t (&magic)[4], ByteReader* r) {
  constexpr size_t kHeaderBytes = sizeof(magic) + sizeof(uint64_t);
  if (size < kHeaderBytes) {
    return Status::Corruption("wire image shorter than header");
  }
  for (uint8_t expected : magic) {
    auto b = r->GetFixed<uint8_t>();
    if (!b.ok()) return b.status();
    if (*b != expected) return Status::Corruption("bad wire image magic");
  }
  auto checksum = r->GetFixed<uint64_t>();
  if (!checksum.ok()) return checksum.status();
  if (WireChecksum(data + kHeaderBytes, size - kHeaderBytes) != *checksum) {
    return Status::Corruption("wire image checksum mismatch");
  }
  return Status::OK();
}

std::vector<uint8_t> WrapWirePayload(const uint8_t (&magic)[4],
                                     const ByteWriter& payload) {
  ByteWriter out;
  out.PutRaw(magic, sizeof(magic));
  out.PutFixed<uint64_t>(WireChecksum(payload.bytes().data(), payload.size()));
  out.PutRaw(payload.bytes().data(), payload.size());
  return out.MoveBytes();
}

}  // namespace wire_internal

void SerializeEcmConfig(const EcmConfig& cfg, ByteWriter* w) {
  w->PutRaw(kConfigMagic, sizeof(kConfigMagic));
  w->PutFixed<uint8_t>(kConfigWireVersion);
  w->PutFixed<uint8_t>(kFastRangeReduction);
  w->PutFixed<uint8_t>(static_cast<uint8_t>(cfg.mode));
  w->PutVarint(cfg.window_len);
  w->PutVarint(cfg.max_arrivals);
  w->PutVarint(cfg.width);
  w->PutVarint(static_cast<uint64_t>(cfg.depth));
  w->PutFixed<uint64_t>(cfg.seed);
  w->PutDouble(cfg.epsilon);
  w->PutDouble(cfg.delta);
  w->PutDouble(cfg.epsilon_cm);
  w->PutDouble(cfg.epsilon_sw);
  w->PutDouble(cfg.delta_cm);
  w->PutDouble(cfg.delta_sw);
}

Result<EcmConfig> DeserializeEcmConfig(ByteReader* r) {
  for (uint8_t expected : kConfigMagic) {
    auto b = r->GetFixed<uint8_t>();
    if (!b.ok()) return b.status();
    if (*b != expected) return Status::Corruption("bad config magic");
  }
  auto version = r->GetFixed<uint8_t>();
  if (!version.ok()) return version.status();
  if (*version != kConfigWireVersion) {
    return Status::Corruption("config: unsupported wire version");
  }
  EcmConfig cfg;
  auto reduction = r->GetFixed<uint8_t>();
  if (!reduction.ok()) return reduction.status();
  if (*reduction != kFastRangeReduction) {
    return Status::Corruption("config: unknown hash reduction");
  }
  auto mode = r->GetFixed<uint8_t>();
  if (!mode.ok()) return mode.status();
  if (*mode > static_cast<uint8_t>(WindowMode::kCountBased)) {
    return Status::Corruption("config: unknown window mode");
  }
  cfg.mode = static_cast<WindowMode>(*mode);

  auto window_len = r->GetVarint();
  if (!window_len.ok()) return window_len.status();
  if (*window_len == 0) return Status::Corruption("config: zero window");
  cfg.window_len = *window_len;

  auto max_arrivals = r->GetVarint();
  if (!max_arrivals.ok()) return max_arrivals.status();
  if (*max_arrivals == 0) {
    return Status::Corruption("config: zero max_arrivals");
  }
  cfg.max_arrivals = *max_arrivals;

  auto width = r->GetVarint();
  if (!width.ok()) return width.status();
  auto depth = r->GetVarint();
  if (!depth.ok()) return depth.status();
  if (*width == 0 || *width > kMaxWidth || *depth == 0 ||
      *depth > static_cast<uint64_t>(kMaxDepth) ||
      *width * *depth > kMaxCounters) {
    return Status::Corruption("config: implausible sketch dimensions");
  }
  cfg.width = static_cast<uint32_t>(*width);
  cfg.depth = static_cast<int>(*depth);

  auto seed = r->GetFixed<uint64_t>();
  if (!seed.ok()) return seed.status();
  cfg.seed = *seed;

  struct Field {
    double* dst;
    bool (*valid)(double);
  };
  const Field fields[] = {
      {&cfg.epsilon, ValidTotalBudget},
      {&cfg.delta, ValidTotalDelta},
      {&cfg.epsilon_cm, ValidComponentEpsilon},
      {&cfg.epsilon_sw, ValidComponentEpsilon},
      {&cfg.delta_cm, ValidDelta},
      {&cfg.delta_sw, ValidDelta},
  };
  for (const Field& field : fields) {
    auto v = r->GetDouble();
    if (!v.ok()) return v.status();
    if (!field.valid(*v)) {
      return Status::Corruption("config: error parameter out of range");
    }
    *field.dst = *v;
  }
  return cfg;
}

}  // namespace ecm
