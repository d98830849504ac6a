#include "src/dist/compress.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/util/bytes.h"

namespace ecm {
namespace {

// Greedy factorization matches are seeded from this many reference bytes:
// shorter copies rarely beat their op overhead (1–3 varint bytes for the
// header plus up to 4 for the offset), and one fixed gram width keeps the
// reference index a single flat hash pass.
constexpr size_t kRlzGramBytes = 8;

// Most recent reference positions kept per gram hash. Successive sketch
// images are near-aligned, so one or two candidates almost always hold
// the best match; a small bound keeps hostile/self-similar references
// from degrading the encoder to quadratic.
constexpr size_t kRlzMaxCandidates = 4;

uint64_t RlzGram(const uint8_t* p) {
  uint64_t g;
  std::memcpy(&g, p, sizeof(g));
  // Fibonacci hash: gram bytes are low-entropy (varint payloads), so
  // spread them before bucketing.
  return g * 0x9E3779B97F4A7C15ULL;
}

struct RlzOps {
  ByteWriter ops;
  uint64_t n_ops = 0;

  void EmitLiteral(const uint8_t* data, size_t len) {
    ops.PutVarint(static_cast<uint64_t>(len) << 1);
    ops.PutRaw(data, len);
    ++n_ops;
  }
  void EmitCopy(size_t offset, size_t len) {
    ops.PutVarint((static_cast<uint64_t>(len) << 1) | 1);
    ops.PutVarint(offset);
    ++n_ops;
  }
};

}  // namespace

const char* SketchWireKindName(SketchWireKind kind) {
  switch (kind) {
    case SketchWireKind::kFull:
      return "full";
    case SketchWireKind::kRlz:
      return "rlz";
  }
  return "unknown";
}

std::vector<uint8_t> RlzEncode(const std::vector<uint8_t>& reference,
                               const uint8_t* data, size_t size,
                               uint64_t epoch) {
  // Index every gram start position in the reference, newest kept first.
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  if (reference.size() >= kRlzGramBytes) {
    index.reserve(reference.size());
    for (size_t i = 0; i + kRlzGramBytes <= reference.size(); ++i) {
      std::vector<uint32_t>& slots = index[RlzGram(reference.data() + i)];
      if (slots.size() < kRlzMaxCandidates) {
        slots.push_back(static_cast<uint32_t>(i));
      }
    }
  }

  RlzOps out;
  size_t literal_start = 0;  // pending literal run [literal_start, i)
  size_t i = 0;
  while (i < size) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (i + kRlzGramBytes <= size) {
      auto it = index.find(RlzGram(data + i));
      if (it != index.end()) {
        for (uint32_t cand : it->second) {
          // Verify and extend the candidate match.
          size_t len = 0;
          const size_t max_len =
              std::min(size - i, reference.size() - cand);
          while (len < max_len && reference[cand + len] == data[i + len]) {
            ++len;
          }
          if (len > best_len) {
            best_len = len;
            best_off = cand;
          }
        }
      }
    }
    if (best_len >= kRlzGramBytes) {
      if (i > literal_start) {
        out.EmitLiteral(data + literal_start, i - literal_start);
      }
      out.EmitCopy(best_off, best_len);
      i += best_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  if (size > literal_start) {
    out.EmitLiteral(data + literal_start, size - literal_start);
  }

  ByteWriter payload;
  payload.PutVarint(wire_internal::kRlzFormatVersion);
  payload.PutVarint(epoch);
  payload.PutFixed<uint64_t>(
      wire_internal::WireChecksum(reference.data(), reference.size()));
  payload.PutVarint(reference.size());
  payload.PutVarint(size);
  payload.PutVarint(out.n_ops);
  payload.PutRaw(out.ops.bytes().data(), out.ops.size());
  return wire_internal::WrapWirePayload(wire_internal::kRlzMagic, payload);
}

Result<std::vector<uint8_t>> RlzDecode(const uint8_t* data, size_t size,
                                       const std::vector<uint8_t>& reference,
                                       uint64_t expected_epoch) {
  ByteReader r(data, size);
  ECM_RETURN_NOT_OK(
      wire_internal::CheckWireHeader(data, size, wire_internal::kRlzMagic, &r));
  auto fmt = r.GetVarint();
  if (!fmt.ok()) return fmt.status();
  if (*fmt != wire_internal::kRlzFormatVersion) {
    return Status::Corruption("unsupported RLZ format version");
  }
  auto epoch = r.GetVarint();
  if (!epoch.ok()) return epoch.status();
  auto ref_checksum = r.GetFixed<uint64_t>();
  if (!ref_checksum.ok()) return ref_checksum.status();
  auto ref_len = r.GetVarint();
  if (!ref_len.ok()) return ref_len.status();
  auto raw_len = r.GetVarint();
  if (!raw_len.ok()) return raw_len.status();
  auto n_ops = r.GetVarint();
  if (!n_ops.ok()) return n_ops.status();
  if (*epoch != expected_epoch) {
    return Status::StaleBase("RLZ image from a different rejoin epoch");
  }
  if (*ref_len != reference.size() ||
      *ref_checksum !=
          wire_internal::WireChecksum(reference.data(), reference.size())) {
    return Status::StaleBase("RLZ image against a different reference");
  }
  if (*raw_len > wire_internal::kMaxRlzRawBytes) {
    return Status::Corruption("RLZ decoded size implausibly large");
  }
  // Every op contributes at least one payload byte, so more ops than
  // remaining input is malformed regardless of their contents.
  if (*n_ops > r.remaining()) {
    return Status::Corruption("RLZ op count exceeds payload");
  }

  std::vector<uint8_t> out;
  out.reserve(*raw_len);
  for (uint64_t k = 0; k < *n_ops; ++k) {
    auto header = r.GetVarint();
    if (!header.ok()) return header.status();
    const uint64_t len = *header >> 1;
    if (len == 0 || len > *raw_len - out.size()) {
      return Status::Corruption("RLZ op overruns the decoded image");
    }
    if (*header & 1) {
      auto offset = r.GetVarint();
      if (!offset.ok()) return offset.status();
      if (*offset > reference.size() || len > reference.size() - *offset) {
        return Status::Corruption("RLZ copy op past the reference");
      }
      out.insert(out.end(), reference.data() + *offset,
                 reference.data() + *offset + len);
    } else {
      auto lit = r.GetRaw(static_cast<size_t>(len));
      if (!lit.ok()) return lit.status();
      out.insert(out.end(), *lit, *lit + len);
    }
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after RLZ ops");
  }
  if (out.size() != *raw_len) {
    return Status::Corruption("RLZ ops do not reconstruct the full image");
  }
  return out;
}

}  // namespace ecm
