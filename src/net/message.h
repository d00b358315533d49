// Wire messages.
//
// Protocols exchange typed message objects; the simulator only needs their
// size (for NIC serialization and bandwidth accounting) and their kind (for
// demultiplexing inside a node's protocol stack). Payload bytes are never
// materialized — the paper's payloads are opaque random bit strings, so only
// their length matters.
//
// Messages are reference-counted intrusively and allocated from a per-type
// recycling pool (see net/message_pool.h), so the steady-state send path
// performs no heap allocation: a delivery holds a reference, fan-out shares
// one object across receivers, and the storage returns to the pool when the
// last reference drops.
//
// The count is *conditionally* atomic: single-threaded runs (shards == 1,
// sweeps, tests) pay plain relaxed load/store — identical codegen to a plain
// integer — while sharded execution flips a sticky process-wide flag
// (Message::enable_concurrent_refs) that upgrades every retain/release to a
// real RMW, because one fan-out message is then referenced from several
// shard threads at once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace brisa::net {

/// Every distinct protocol message in the system. Grouped by subsystem so a
/// stack can route on ranges if it ever needs to.
enum class MessageKind : std::uint16_t {
  // Transport-internal (handshake); never surfaced to handlers.
  kSyn,
  kSynAck,
  kFin,

  // HyParView (§II-A)
  kHpvJoin,
  kHpvForwardJoin,
  kHpvNeighbor,
  kHpvNeighborReply,
  kHpvDisconnect,
  kHpvShuffle,
  kHpvShuffleReply,
  kHpvKeepAlive,
  kHpvKeepAliveReply,

  // Cyclon
  kCyclonShuffle,
  kCyclonShuffleReply,

  // BRISA (§II-C to §II-G)
  kBrisaData,
  kBrisaDeactivate,
  kBrisaResume,          ///< "re-activate your outbound link to me"
  kBrisaResumeAck,       ///< carries the responder's position metadata
  kBrisaReactivateOrder, ///< hard repair: flows down the broken subtree
  kBrisaRetransmitRequest,

  // SimpleGossip baseline
  kGossipRumor,
  kGossipAntiEntropyRequest,
  kGossipAntiEntropyReply,

  // SimpleTree baseline
  kTreeJoinRequest,
  kTreeJoinReply,
  kTreeAttach,
  kTreeData,

  // TAG baseline
  kTagTailQuery,
  kTagTailReply,
  kTagAppendRequest,
  kTagAppendReply,
  kTagListProbe,
  kTagListProbeReply,
  kTagListUpdate,
  kTagPullRequest,
  kTagPullReply,

  // Tests / examples
  kTestPing,
  kTestPayload,
};

/// Fixed per-message framing overhead charged on the wire (Ethernet + IP +
/// TCP headers, amortized). Keeping it explicit makes bandwidth numbers
/// comparable with the paper's KB/s measurements.
inline constexpr std::size_t kFrameOverheadBytes = 66;

/// Identifies one dissemination stream (topic). Every data-bearing protocol
/// message carries the stream it belongs to, so N independent streams can be
/// multiplexed over one membership substrate and demultiplexed at the
/// receiving node. Stream ids are expected to be small dense integers
/// (0..K-1): per-stream state lives in flat vectors indexed by them.
using StreamId = std::uint32_t;
inline constexpr StreamId kDefaultStream = 0;
/// Bytes a stream id occupies on the wire.
inline constexpr std::size_t kWireStreamBytes = 4;

class Message {
 public:
  Message() = default;
  /// Copying a message copies its *content* only: the refcount and recycler
  /// belong to the storage block and are (re)installed by the pool.
  Message(const Message&) {}
  Message& operator=(const Message&) { return *this; }
  virtual ~Message() = default;

  [[nodiscard]] virtual MessageKind kind() const = 0;

  /// Bytes of protocol content (headers + metadata + payload), excluding
  /// kFrameOverheadBytes which the network adds once per message.
  [[nodiscard]] virtual std::size_t wire_size() const = 0;

  /// Sticky: once any simulator in the process runs multi-shard, every
  /// refcount op becomes a real atomic RMW. Called from serial setup code
  /// (before worker threads touch any message); never unset, so a later
  /// single-threaded run merely pays the (correct) atomic cost.
  static void enable_concurrent_refs() {
    concurrent_refs_.store(true, std::memory_order_relaxed);
  }

 private:
  friend class MessageRef;
  template <typename T>
  friend class MessagePool;

  /// Destroys the object and returns its storage wherever it came from.
  using Recycler = void (*)(const Message*);

  void retain() const {
    if (concurrent_refs_.load(std::memory_order_relaxed)) [[unlikely]] {
      refs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      refs_.store(refs_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    }
  }
  /// Returns true when this call dropped the last reference.
  [[nodiscard]] bool release_ref() const {
    if (concurrent_refs_.load(std::memory_order_relaxed)) [[unlikely]] {
      return refs_.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }
    const std::uint32_t left = refs_.load(std::memory_order_relaxed) - 1;
    refs_.store(left, std::memory_order_relaxed);
    return left == 0;
  }

  static inline std::atomic<bool> concurrent_refs_{false};

  mutable std::atomic<std::uint32_t> refs_{0};
  mutable Recycler recycler_ = nullptr;
};

/// Base for content-free control messages of a fixed wire size.
template <MessageKind Kind, std::size_t Bytes>
class FixedMessage : public Message {
 public:
  [[nodiscard]] MessageKind kind() const override { return Kind; }
  [[nodiscard]] std::size_t wire_size() const override { return Bytes; }
};

/// Intrusive smart pointer to an immutable message. Copies share the object
/// (fan-out sends one allocation to every receiver); the last reference
/// recycles the storage into the type's pool.
class MessageRef {
 public:
  constexpr MessageRef() = default;
  constexpr MessageRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  MessageRef(const MessageRef& other) : ptr_(other.ptr_) {
    if (ptr_ != nullptr) ptr_->retain();
  }
  MessageRef(MessageRef&& other) noexcept : ptr_(other.ptr_) {
    other.ptr_ = nullptr;
  }
  MessageRef& operator=(const MessageRef& other) {
    if (this != &other) {
      release();
      ptr_ = other.ptr_;
      if (ptr_ != nullptr) ptr_->retain();
    }
    return *this;
  }
  MessageRef& operator=(MessageRef&& other) noexcept {
    if (this != &other) {
      release();
      ptr_ = other.ptr_;
      other.ptr_ = nullptr;
    }
    return *this;
  }
  ~MessageRef() { release(); }

  [[nodiscard]] const Message* get() const { return ptr_; }
  [[nodiscard]] const Message& operator*() const { return *ptr_; }
  [[nodiscard]] const Message* operator->() const { return ptr_; }
  [[nodiscard]] explicit operator bool() const { return ptr_ != nullptr; }

  friend bool operator==(const MessageRef& ref, std::nullptr_t) {
    return ref.ptr_ == nullptr;
  }
  friend bool operator!=(const MessageRef& ref, std::nullptr_t) {
    return ref.ptr_ != nullptr;
  }

  /// Hands this reference's ownership to the caller as a raw pointer (for
  /// typed event payloads, which cannot hold smart pointers). Pair with
  /// attach().
  [[nodiscard]] const Message* detach() {
    const Message* raw = ptr_;
    ptr_ = nullptr;
    return raw;
  }

  /// Resumes ownership of a reference previously detach()ed.
  [[nodiscard]] static MessageRef attach(const Message* raw) {
    MessageRef ref;
    ref.ptr_ = raw;
    return ref;
  }

 private:
  template <typename T>
  friend class MessagePool;

  void release() {
    if (ptr_ != nullptr && ptr_->release_ref()) {
      if (ptr_->recycler_ != nullptr) {
        ptr_->recycler_(ptr_);
      } else {
        delete ptr_;
      }
    }
    ptr_ = nullptr;
  }

  const Message* ptr_ = nullptr;
};

using MessagePtr = MessageRef;

/// DeliverEvent::drop_token helper: releases the message reference carried
/// in a typed delivery's opaque token. A plain function so it stays callable
/// after the Network/Transport sink is gone (teardown with events pending).
inline void release_message_token(void* token) {
  static_cast<void>(
      MessageRef::attach(static_cast<const Message*>(token)));
}

/// Traffic classes for bandwidth accounting (Fig 10–12 split management
/// overhead from payload dissemination).
enum class TrafficClass : std::uint8_t {
  kMembership,  ///< PSS maintenance: joins, shuffles, keep-alives
  kControl,     ///< dissemination-structure control: (de)activations, pulls
  kData,        ///< stream payload messages
};

inline constexpr std::size_t kTrafficClassCount = 3;

}  // namespace brisa::net
