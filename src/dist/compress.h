// Sketch propagation channels (the paper's error-vs-network frontier,
// attacked from the network side). Every sketch a coordinator merges
// reaches it through one sender/receiver pair, as either
//
//   * a full image ("ECMS", dist/serialize.h); or
//   * an RLZ image ("ECMZ", this header): successive wire images of the
//     same site's sketch are highly self-similar, so the full image is
//     greedily factorized against the previously shipped one as
//     copy(offset, len) and literal ops (relative Lempel-Ziv, cf.
//     rlz-store's factorizor).
//
// The sender falls back to a full image whenever the RLZ form stops
// paying for itself (content drift past kMaxCompressedFraction) or the
// receiver's base is unknown (first contact, channel reset, transport
// rejoin epoch change).
//
// Correctness contract, enforced end-to-end rather than assumed: every
// RLZ image carries the FNV-1a checksum of the reference it was encoded
// against and of its own payload. A receiver on the wrong reference
// rejects with StatusCode::kStaleBase (never a silent wrong merge), and
// malformed bytes fail with kCorruption before any state mutation.

#ifndef ECM_DIST_COMPRESS_H_
#define ECM_DIST_COMPRESS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/serialize.h"
#include "src/util/result.h"

namespace ecm {

// ---------------------------------------------------------------------------
// RLZ codec: byte-level reference compression of wire images.
// ---------------------------------------------------------------------------

namespace wire_internal {
inline constexpr uint8_t kRlzMagic[4] = {'E', 'C', 'M', 'Z'};
inline constexpr uint64_t kRlzFormatVersion = 1;
/// Decoded-image size cap, mirroring SocketTransport's frame bound: a
/// forged length field must never request a giant allocation.
inline constexpr uint64_t kMaxRlzRawBytes = 64ull * 1024 * 1024;
}  // namespace wire_internal

/// Encodes [data, data+size) against `reference` as a checksummed RLZ
/// image: greedy longest-match factorization into copy(offset, len) ops
/// into the reference plus literal runs. `epoch` is the transport rejoin
/// epoch (receivers on a different epoch reject).
///
/// Layout: "ECMZ" | fixed64 FNV-1a(payload) | payload =
///   varint format | varint epoch | fixed64 ref_checksum | varint
///   ref_len | varint raw_len | varint n_ops | ops. Each op is varint
///   (len << 1 | is_copy), then varint offset (copy) or len raw bytes
///   (literal).
std::vector<uint8_t> RlzEncode(const std::vector<uint8_t>& reference,
                               const uint8_t* data, size_t size,
                               uint64_t epoch);

/// Decodes an RLZ image against `reference`. Rejects with kStaleBase when
/// the epoch or the reference (length + checksum) does not match what the
/// sender encoded against, and with kCorruption on any malformed bytes —
/// truncation, bit flips, copy ops past the reference, op lengths that do
/// not reconstruct exactly raw_len bytes. Never reads out of bounds.
Result<std::vector<uint8_t>> RlzDecode(const uint8_t* data, size_t size,
                                       const std::vector<uint8_t>& reference,
                                       uint64_t expected_epoch);

// ---------------------------------------------------------------------------
// Channel layer: per-site sender/receiver pairs with fallback rules.
// ---------------------------------------------------------------------------

/// What a shipped wire image contains. Values are stable wire constants
/// (SocketTransport maps them 1:1 onto frame types).
/// Value 2 (a retired dirty-cell delta format) is not reused.
enum class SketchWireKind : uint8_t {
  kFull = 1,  ///< SerializeSketch bytes ("ECMS")
  kRlz = 3,   ///< reference-compressed full image ("ECMZ")
};

const char* SketchWireKindName(SketchWireKind kind);

/// Whether a sender may ship RLZ images. kRlz still falls back to kFull
/// on the first image, after Reset, and past the compressibility
/// threshold.
enum class CompressionMode : uint8_t {
  kFull = 0,  ///< always ship full snapshots
  kRlz = 2,   ///< RLZ against the previous image, full fallback
};

/// An RLZ image is shipped only if it is smaller than this fraction of
/// the full snapshot; otherwise the full image goes out (drifted-too-far
/// fallback, and it re-bases the channel).
inline constexpr double kMaxCompressedFraction = 0.9;

struct CompressionOptions {
  CompressionMode mode = CompressionMode::kRlz;
  /// Transport rejoin epoch stamped into every compressed image. Bump on
  /// crash/rejoin (SocketTransport Options::epoch) so stale-base images
  /// from before the crash can never apply.
  uint64_t epoch = 1;
};

/// Wire-volume accounting of one channel endpoint.
struct CompressionStats {
  uint64_t full_images = 0;
  /// Always 0: the delta format is retired. Kept because the benchmark's
  /// stats reader still reports the field.
  uint64_t delta_images = 0;
  uint64_t rlz_images = 0;
  uint64_t wire_bytes = 0;  ///< bytes actually shipped
  uint64_t raw_bytes = 0;   ///< full-snapshot bytes they stand in for
};

/// One shippable image: the kind routes it to the matching frame type /
/// decoder.
struct SketchWireImage {
  SketchWireKind kind = SketchWireKind::kFull;
  std::vector<uint8_t> bytes;
};

/// Sender half of a propagation channel. Tracks the last shipped full
/// image (the reference/base); each Ship() encodes the sketch's current
/// state in the cheapest permitted form. One sender instance per (site
/// sketch, receiver) pair.
template <SlidingWindowCounter Counter>
class SketchSender {
 public:
  explicit SketchSender(const CompressionOptions& opts = {}) : opts_(opts) {}

  /// Encodes the sketch's current state. The first image (and the first
  /// after Reset/set_epoch) is always a full snapshot.
  SketchWireImage Ship(const EcmSketch<Counter>& sketch) {
    std::vector<uint8_t> full = SerializeSketch(sketch);
    stats_.raw_bytes += full.size();
    SketchWireImage img;
    img.kind = SketchWireKind::kFull;
    const size_t budget = static_cast<size_t>(
        static_cast<double>(full.size()) * kMaxCompressedFraction);
    if (has_base_ && opts_.mode == CompressionMode::kRlz) {
      std::vector<uint8_t> rlz =
          RlzEncode(reference_, full.data(), full.size(), opts_.epoch);
      if (rlz.size() < budget) {
        img.kind = SketchWireKind::kRlz;
        img.bytes = std::move(rlz);
      }
    }
    // A kFull channel never encodes against the reference: keep no copy.
    if (opts_.mode == CompressionMode::kRlz) reference_ = full;
    has_base_ = true;
    if (img.kind == SketchWireKind::kFull) {
      img.bytes = std::move(full);
      ++stats_.full_images;
    } else {
      ++stats_.rlz_images;
    }
    stats_.wire_bytes += img.bytes.size();
    return img;
  }

  /// Forgets the base: the next image is a full snapshot. Call when the
  /// receiver may have lost state (reconnect, receiver reset).
  void Reset() { has_base_ = false; }

  /// Rejoin-epoch bump: subsequent images carry the new epoch, and the
  /// channel re-bases with a full snapshot.
  void set_epoch(uint64_t epoch) {
    opts_.epoch = epoch;
    Reset();
  }
  uint64_t epoch() const { return opts_.epoch; }

  const CompressionStats& stats() const { return stats_; }

 private:
  CompressionOptions opts_;
  bool has_base_ = false;
  std::vector<uint8_t> reference_;  // full image shipped last
  CompressionStats stats_;
};

/// Receiver half: decodes images back into a live sketch, maintaining the
/// same reference chain as the sender. Any non-OK outcome leaves the
/// receiver untouched; after a kStaleBase the caller should request (or
/// wait for) a full snapshot — RLZ images keep rejecting until one
/// arrives.
///
/// Replay hardening: delivery is at-least-once under retransmitting
/// transports (a retry after a send timeout, or SocketTransport's
/// reconnect retransmit), so a byte-identical re-delivery of the image
/// just applied is *expected* traffic. The receiver fingerprints each
/// successfully applied image and absorbs such duplicates idempotently —
/// returning the current sketch, mutating nothing, never double-merging.
/// Replays of *older* images (same base, but the chain moved on) still
/// reject with kStaleBase via the base-checksum pinning.
template <SlidingWindowCounter Counter>
class SketchReceiver {
 public:
  explicit SketchReceiver(const CompressionOptions& opts = {}) : opts_(opts) {}

  /// Decodes one image. On success returns the up-to-date sketch (owned
  /// by the receiver, valid until the next Receive/Reset).
  Result<const EcmSketch<Counter>*> Receive(SketchWireKind kind,
                                            const uint8_t* data, size_t size) {
    if (IsDuplicateOfLast(kind, data, size)) {
      ++duplicates_absorbed_;
      return &*base_;
    }
    switch (kind) {
      case SketchWireKind::kFull: {
        auto sketch = DeserializeSketch<Counter>(data, size);
        if (!sketch.ok()) return sketch.status();
        base_.emplace(std::move(*sketch));
        // Only an RLZ channel decodes against it; on a kFull channel the
        // reference stays empty, so a stray RLZ image rejects as stale.
        if (opts_.mode == CompressionMode::kRlz) {
          reference_.assign(data, data + size);
        }
        NoteApplied(kind, data, size);
        return &*base_;
      }
      case SketchWireKind::kRlz: {
        auto full = RlzDecode(data, size, reference_, opts_.epoch);
        if (!full.ok()) return full.status();
        auto sketch = DeserializeSketch<Counter>(*full);
        if (!sketch.ok()) return sketch.status();
        base_.emplace(std::move(*sketch));
        reference_ = std::move(*full);
        NoteApplied(kind, data, size);
        return &*base_;
      }
    }
    return Status::InvalidArgument("unknown sketch wire kind");
  }

  /// Drops the base: compressed images are rejected until the next full
  /// snapshot. Call on transport-level resync.
  void Reset() {
    base_.reset();
    reference_.clear();
    has_last_ = false;
  }

  /// Rejoin-epoch change: images from other epochs reject, and the base
  /// is dropped (the sender re-bases with a full snapshot on its side).
  void set_epoch(uint64_t epoch) {
    opts_.epoch = epoch;
    Reset();
  }
  uint64_t epoch() const { return opts_.epoch; }

  /// Last successfully decoded state, or nullptr before the first image.
  const EcmSketch<Counter>* sketch() const {
    return base_.has_value() ? &*base_ : nullptr;
  }

  /// Byte-identical re-deliveries absorbed without reapplying.
  uint64_t duplicates_absorbed() const { return duplicates_absorbed_; }

 private:
  /// True iff this image is byte-identical to the one just applied (and
  /// the decoded state is still live): the retransmit-duplicate case.
  bool IsDuplicateOfLast(SketchWireKind kind, const uint8_t* data,
                         size_t size) const {
    return has_last_ && base_.has_value() && kind == last_kind_ &&
           size == last_size_ &&
           wire_internal::WireChecksum(data, size) == last_checksum_;
  }

  void NoteApplied(SketchWireKind kind, const uint8_t* data, size_t size) {
    last_kind_ = kind;
    last_size_ = size;
    last_checksum_ = wire_internal::WireChecksum(data, size);
    has_last_ = true;
  }

  CompressionOptions opts_;
  std::optional<EcmSketch<Counter>> base_;
  std::vector<uint8_t> reference_;
  // Fingerprint of the last applied image, for duplicate absorption.
  bool has_last_ = false;
  SketchWireKind last_kind_ = SketchWireKind::kFull;
  size_t last_size_ = 0;
  uint64_t last_checksum_ = 0;
  uint64_t duplicates_absorbed_ = 0;
};

}  // namespace ecm

#endif  // ECM_DIST_COMPRESS_H_
