// Peer sampling service abstraction (§II-A).
//
// BRISA is written against this interface so that the dissemination layer is
// independent of the concrete PSS. HyParView implements it reactively (the
// configuration evaluated in the paper); a proactive PSS such as Cyclon can
// be substituted for the §IV "perspectives" experiments.
#pragma once

#include <memory>
#include <vector>

#include "net/message.h"
#include "net/node_id.h"
#include "sim/time.h"

namespace brisa::membership {

/// Why a neighbor left the view.
enum class NeighborLossReason : std::uint8_t {
  kFailed,   ///< crash detected (keep-alive / transport)
  kEvicted,  ///< view management decision (graceful DISCONNECT)
};

/// One stream's application progress, piggybacked on keep-alives (§II-F:
/// keep-alives carry the metadata repair needs). With a forest of streams
/// multiplexed over one substrate, each stream contributes one entry; the
/// keep-alive wire cost therefore grows linearly with the number of locally
/// active streams (20 bytes per stream, see DESIGN.md §8).
struct AppWatermark {
  net::StreamId stream = net::kDefaultStream;
  /// Next sequence this node still needs (max delivered + 1).
  std::uint64_t watermark = 0;
  /// Second application-defined value; BRISA carries the stream's cumulative
  /// path delay (µs) feeding the delay-aware parent selection.
  std::uint64_t aux = 0;
};

/// An immutable set of AppWatermark entries, shared by refcount between the
/// listener that owns it and every keep-alive that carries it.
using WatermarkSnapshot = std::shared_ptr<const std::vector<AppWatermark>>;

class PssListener {
 public:
  virtual ~PssListener() = default;

  /// A bidirectional link to `peer` is established and usable.
  virtual void on_neighbor_up(net::NodeId peer) = 0;

  /// The link to `peer` is gone.
  virtual void on_neighbor_down(net::NodeId peer,
                                NeighborLossReason reason) = 0;

  /// A non-membership message arrived over a membership link.
  virtual void on_app_message(net::NodeId from, net::MessagePtr message) = 0;

  /// The progress entries piggybacked on one keep-alive (or reply) from
  /// `peer`, one per stream the peer runs; called once per keep-alive.
  /// Default: ignore.
  virtual void on_neighbor_watermarks(
      net::NodeId /*peer*/, const std::vector<AppWatermark>& /*entries*/) {}

  /// The entries this node's outgoing keep-alives and replies carry (one
  /// per locally active stream); nullptr carries none. Asked once per
  /// keep-alive tick and once per reply. Default: none.
  [[nodiscard]] virtual WatermarkSnapshot watermark_snapshot() {
    return nullptr;
  }
};

class PeerSamplingService {
 public:
  virtual ~PeerSamplingService() = default;

  /// The view exposed to the application (HyParView: the active view).
  [[nodiscard]] virtual std::vector<net::NodeId> view() const = 0;

  /// Allocation-free variant for per-message hot paths (relay fan-out,
  /// candidate scans): a reference to the implementation's own view storage,
  /// in the same deterministic ascending order view() copies out of. The
  /// reference is invalidated by the next membership change, so callers must
  /// not hold it across anything that can establish or drop a neighbor.
  [[nodiscard]] virtual const std::vector<net::NodeId>& view_ref() const = 0;

  [[nodiscard]] virtual bool is_neighbor(net::NodeId peer) const = 0;

  /// Sends an application message over the established link to `peer`.
  /// Returns false if `peer` is not currently a usable neighbor.
  virtual bool send_app(net::NodeId peer, net::MessagePtr message,
                        net::TrafficClass traffic_class) = 0;

  /// Smoothed RTT estimate from keep-alive probes; Duration::max() until the
  /// first probe completes. Input to the delay-aware strategy (§II-E).
  [[nodiscard]] virtual sim::Duration rtt_estimate(net::NodeId peer) const = 0;

  virtual void set_listener(PssListener* listener) = 0;
};

}  // namespace brisa::membership
