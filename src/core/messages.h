// BRISA wire messages (§II-C through §II-G).
//
// Tree mode embeds the full dissemination path in every data message
// (exact cycle prevention, §II-D); DAG mode embeds only the sender's depth
// (approximate but constant-size, §II-G). wire_size() charges exactly what
// each variant would carry, so the metadata-cost comparison of §II-D is
// measurable. In memory the path is a shared TreePath: a message holds one
// pointer to the sender's cell, whatever the path's length.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "core/tree_path.h"
#include "net/message.h"
#include "net/node_id.h"
#include "util/bloom.h"

namespace brisa::core {

/// Structure being emerged on top of the PSS overlay.
enum class StructureMode : std::uint8_t {
  kTree,  ///< one parent; path-embedding cycle prevention
  kDag,   ///< p parents; depth-tag cycle prevention
};

/// A node's claim about its position in the dissemination structure, plus
/// the attributes consumed by the parent-selection strategies (§II-E, §IV).
///
/// Fields are declared widest first so the struct packs to 24 bytes: every
/// BrisaStream link caches one, so padding here is paid per (node, stream,
/// neighbor). The wire size comes from wire_bytes(), not from this layout.
struct PositionInfo {
  /// Tree mode: identifiers from the stream source up to and including the
  /// claiming node; a shared cell, so copying a position copies a pointer.
  TreePath path;
  /// DAG mode: the claiming node's depth (source = 0); -1 when unknown.
  std::int32_t depth = -1;
  /// Uptime in seconds (gerontocratic strategy).
  std::uint32_t uptime_s = 0;
  /// Estimated cumulative delay from the stream source in microseconds —
  /// the "cumulative round trip times, taken at each hop" of §III-B, carried
  /// so the delay-aware strategy can minimize end-to-end delay rather than
  /// the last hop only.
  std::uint32_t cum_delay_us = 0;
  /// Current out-degree (load-balancing strategy).
  std::uint16_t degree = 0;
  bool known = false;

  /// Bytes this metadata occupies inside a message.
  [[nodiscard]] std::size_t wire_bytes(StructureMode mode) const {
    const std::size_t attrs = 4 + 2 + 4;  // uptime + degree + cum delay
    if (mode == StructureMode::kTree) {
      return attrs + 1 + path.size() * net::kWireIdBytes;
    }
    return attrs + 4;  // depth integer
  }
};
static_assert(sizeof(PositionInfo) == 24, "PositionInfo layout");

/// A stream payload message. Payload bytes are opaque (only the size is
/// simulated); `path`/`depth` carry the cycle-prevention metadata of the
/// *sender*.
class BrisaData final : public net::Message {
 public:
  BrisaData(std::uint32_t stream, std::uint64_t seq,
            std::size_t payload_bytes, StructureMode mode,
            PositionInfo sender_position, bool retransmission)
      : stream_(stream),
        seq_(seq),
        payload_bytes_(payload_bytes),
        mode_(mode),
        sender_position_(std::move(sender_position)),
        retransmission_(retransmission) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kBrisaData;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    // stream + seq + flags header, then metadata, then payload.
    return 16 + sender_position_.wire_bytes(mode_) + payload_bytes_;
  }

  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }
  [[nodiscard]] StructureMode mode() const { return mode_; }
  [[nodiscard]] const PositionInfo& sender_position() const {
    return sender_position_;
  }
  [[nodiscard]] bool retransmission() const { return retransmission_; }

 private:
  std::uint32_t stream_;
  std::uint64_t seq_;
  std::size_t payload_bytes_;
  StructureMode mode_;
  PositionInfo sender_position_;
  bool retransmission_;
};

/// "Stop relaying the stream to me" (§II-C). Carries the sender's position
/// so the receiving node refreshes its metadata cache — the information
/// later consulted by soft repair (§II-F).
class BrisaDeactivate final : public net::Message {
 public:
  BrisaDeactivate(std::uint32_t stream, StructureMode mode,
                  PositionInfo sender_position)
      : stream_(stream),
        mode_(mode),
        sender_position_(std::move(sender_position)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kBrisaDeactivate;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + sender_position_.wire_bytes(mode_);
  }

  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  [[nodiscard]] const PositionInfo& sender_position() const {
    return sender_position_;
  }

 private:
  std::uint32_t stream_;
  StructureMode mode_;
  PositionInfo sender_position_;
};

/// "(Re-)activate your outbound link to me" — sent by soft repair to the
/// chosen replacement parent, and by hard repair to every neighbor.
class BrisaResume final : public net::Message {
 public:
  BrisaResume(std::uint32_t stream, bool want_ack)
      : stream_(stream), want_ack_(want_ack) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kBrisaResume;
  }
  [[nodiscard]] std::size_t wire_size() const override { return 9; }

  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  [[nodiscard]] bool want_ack() const { return want_ack_; }

 private:
  std::uint32_t stream_;
  bool want_ack_;
};

/// Reply to BrisaResume: the responder's current position, letting the
/// repairing node confirm eligibility (cycle safety) before adopting it.
class BrisaResumeAck final : public net::Message {
 public:
  BrisaResumeAck(std::uint32_t stream, StructureMode mode,
                 PositionInfo responder_position)
      : stream_(stream),
        mode_(mode),
        responder_position_(std::move(responder_position)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kBrisaResumeAck;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + responder_position_.wire_bytes(mode_);
  }

  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  [[nodiscard]] const PositionInfo& responder_position() const {
    return responder_position_;
  }

 private:
  std::uint32_t stream_;
  StructureMode mode_;
  PositionInfo responder_position_;
};

/// Hard-repair re-activation order, propagated from an orphan down its
/// subtree (§II-F). Children that find a replacement parent stop the
/// propagation.
class BrisaReactivateOrder final : public net::Message {
 public:
  explicit BrisaReactivateOrder(std::uint32_t stream) : stream_(stream) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kBrisaReactivateOrder;
  }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }

  [[nodiscard]] std::uint32_t stream() const { return stream_; }

 private:
  std::uint32_t stream_;
};

/// "Send me everything from `from_seq` on that you still buffer" — issued to
/// a freshly acquired parent to recover messages lost during repair (§II-F).
/// Under `[limits]` bloom_digests the request also carries a Bloom filter of
/// the seqs >= from_seq the requester already holds out of order, so the
/// parent skips those instead of resending its whole buffered window; a
/// false positive wrongly skips one seq, which the re-armed gap probe
/// recovers with a differently-salted filter.
class BrisaRetransmitRequest final : public net::Message {
 public:
  BrisaRetransmitRequest(std::uint32_t stream, std::uint64_t from_seq)
      : stream_(stream), from_seq_(from_seq) {}
  BrisaRetransmitRequest(std::uint32_t stream, std::uint64_t from_seq,
                         util::BloomFilter held_digest)
      : stream_(stream),
        from_seq_(from_seq),
        held_digest_(std::move(held_digest)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kBrisaRetransmitRequest;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + (held_digest_ ? held_digest_->byte_size() : 0);
  }

  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  [[nodiscard]] std::uint64_t from_seq() const { return from_seq_; }
  /// Does the requester (claim to) already hold `seq`? Always false in the
  /// exact form — historically the parent resent its whole window.
  [[nodiscard]] bool known(std::uint64_t seq) const {
    return held_digest_ && held_digest_->may_contain(seq);
  }

 private:
  std::uint32_t stream_;
  std::uint64_t from_seq_;
  std::optional<util::BloomFilter> held_digest_;
};

}  // namespace brisa::core
