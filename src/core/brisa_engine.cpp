#include "core/brisa.h"

#include <algorithm>

#include "util/assert.h"

namespace brisa::core {

BrisaEngine::BrisaEngine(net::Network& network,
                         membership::PeerSamplingService& pss, net::NodeId id,
                         const BrisaStream::Config& config)
    : net::Process(network, id),
      pss_(pss),
      config_(config),
      progress_(std::make_shared<std::vector<membership::AppWatermark>>()) {
  pss_.set_listener(this);
  // Periodic maintenance: one tick per mechanism, each walking the streams
  // in id order. Every stream is checked at the engine's phase, which is
  // its own as long as callers add streams right after building the
  // engine (all of them do).
  if (config_.strategy == ParentSelectionStrategy::kDelayAware &&
      config_.mode == StructureMode::kTree && config_.prune) {
    every(BrisaStream::kRefinePeriod,
          [this]() { tick(&BrisaStream::check_refine); });
  }
  // A flooding stream never holds a parent, so its starvation check would
  // always return early.
  if (config_.prune) {
    every(BrisaStream::kStarvationCheckPeriod,
          [this]() { tick(&BrisaStream::check_starvation); });
  }
  if (config_.mode == StructureMode::kDag && config_.num_parents > 1) {
    every(BrisaStream::kTopupPeriod,
          [this]() { tick(&BrisaStream::check_topup); });
  }
}

void BrisaEngine::tick(void (BrisaStream::*check)()) {
  for (const auto& stream : streams_) {
    if (stream != nullptr) (stream.get()->*check)();
  }
}

BrisaStream& BrisaEngine::add_stream(net::StreamId stream) {
  if (streams_.size() <= stream) {
    streams_.resize(stream + 1);
    slot_.resize(stream + 1, kNoSlot);
  }
  BRISA_ASSERT_MSG(streams_[stream] == nullptr, "stream id already active");
  // The progress entry goes in at its id order; later slots shift by one.
  std::vector<membership::AppWatermark>& table = writable_progress();
  const auto at = std::lower_bound(
      table.begin(), table.end(), stream,
      [](const membership::AppWatermark& entry, net::StreamId id) {
        return entry.stream < id;
      });
  const auto slot = at - table.begin();
  table.insert(at, {stream, 0, 0});
  heard_.insert(heard_.begin() + slot, 0);
  for (std::size_t i = 0; i < table.size(); ++i) {
    slot_[table[i].stream] = static_cast<std::uint32_t>(i);
  }
  streams_[stream] = std::make_unique<BrisaStream>(*this, stream);
  return *streams_[stream];
}

membership::WatermarkSnapshot BrisaEngine::watermark_snapshot() {
  progress_shared_ = true;
  return progress_;
}

std::vector<membership::AppWatermark>& BrisaEngine::writable_progress() {
  // Copy-on-write: a table handed to a keep-alive is never written again,
  // so its readers (possibly on another shard's thread) need no
  // synchronization beyond the refcount.
  if (progress_shared_) {
    progress_ =
        std::make_shared<std::vector<membership::AppWatermark>>(*progress_);
    progress_shared_ = false;
  }
  return *progress_;
}

void BrisaEngine::note_delivered(net::StreamId stream, std::uint64_t seq) {
  // Out-of-order fills below the newest delivery leave the watermark alone.
  if (seq < progress(stream).watermark) return;
  writable_progress()[slot_[stream]].watermark = seq + 1;
}

void BrisaEngine::note_cum_delay(net::StreamId stream,
                                 std::uint64_t cum_delay_us) {
  // Tree nodes re-adopt their parent's position on every data message;
  // an unchanged delay must not cost a copy of a shared snapshot.
  if (progress(stream).aux == cum_delay_us) return;
  writable_progress()[slot_[stream]].aux = cum_delay_us;
}

BrisaStream& BrisaEngine::stream(net::StreamId stream) {
  BrisaStream* found = find_stream(stream);
  BRISA_ASSERT_MSG(found != nullptr, "stream not active on this node");
  return *found;
}

const BrisaStream& BrisaEngine::stream(net::StreamId stream) const {
  const BrisaStream* found = find_stream(stream);
  BRISA_ASSERT_MSG(found != nullptr, "stream not active on this node");
  return *found;
}

BrisaStream* BrisaEngine::find_stream(net::StreamId stream) {
  return stream < streams_.size() ? streams_[stream].get() : nullptr;
}

const BrisaStream* BrisaEngine::find_stream(net::StreamId stream) const {
  return stream < streams_.size() ? streams_[stream].get() : nullptr;
}

std::vector<net::StreamId> BrisaEngine::stream_ids() const {
  std::vector<net::StreamId> ids;
  ids.reserve(progress_->size());
  for (const membership::AppWatermark& entry : *progress_) {
    ids.push_back(entry.stream);
  }
  return ids;
}

void BrisaEngine::on_neighbor_up(net::NodeId peer) {
  for (const auto& stream : streams_) {
    if (stream != nullptr) stream->on_neighbor_up(peer);
  }
}

void BrisaEngine::on_neighbor_down(net::NodeId peer,
                                   membership::NeighborLossReason reason) {
  for (const auto& stream : streams_) {
    if (stream != nullptr) stream->on_neighbor_down(peer, reason);
  }
}

void BrisaEngine::on_neighbor_watermarks(
    net::NodeId peer, const std::vector<membership::AppWatermark>& entries) {
  // check_refine and the delay-aware candidate cost are the only readers of
  // the keep-alive path delay; other strategies never visit the streams.
  const bool delay_aware =
      config_.strategy == ParentSelectionStrategy::kDelayAware;
  for (const membership::AppWatermark& entry : entries) {
    // A peer may run streams this node does not.
    if (entry.stream >= slot_.size() || slot_[entry.stream] == kNoSlot) {
      continue;
    }
    std::uint64_t& heard = heard_[slot_[entry.stream]];
    heard = std::max(heard, entry.watermark);
    if (delay_aware) {
      streams_[entry.stream]->note_keepalive_delay(peer, entry.aux);
    }
  }
}

void BrisaEngine::on_app_message(net::NodeId from, net::MessagePtr message) {
  // Demux: kind first, then the stream id every BRISA message carries.
  // Messages for streams this node does not run are dropped (a peer may
  // legitimately run a superset of our streams).
  switch (message->kind()) {
    case net::MessageKind::kBrisaData: {
      const auto& msg = static_cast<const BrisaData&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) s->handle_data(from, msg);
      return;
    }
    case net::MessageKind::kBrisaDeactivate: {
      const auto& msg = static_cast<const BrisaDeactivate&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_deactivate(from, msg);
      }
      return;
    }
    case net::MessageKind::kBrisaResume: {
      const auto& msg = static_cast<const BrisaResume&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_resume(from, msg);
      }
      return;
    }
    case net::MessageKind::kBrisaResumeAck: {
      const auto& msg = static_cast<const BrisaResumeAck&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_resume_ack(from, msg);
      }
      return;
    }
    case net::MessageKind::kBrisaReactivateOrder: {
      const auto& msg = static_cast<const BrisaReactivateOrder&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_reactivate_order(from);
      }
      return;
    }
    case net::MessageKind::kBrisaRetransmitRequest: {
      const auto& msg = static_cast<const BrisaRetransmitRequest&>(*message);
      if (BrisaStream* s = find_stream(msg.stream())) {
        s->handle_retransmit_request(from, msg);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace brisa::core
