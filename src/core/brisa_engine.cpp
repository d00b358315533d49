#include "core/brisa.h"

#include "util/assert.h"

namespace brisa::core {

BrisaEngine::BrisaEngine(net::Network& network,
                         membership::PeerSamplingService& pss, net::NodeId id,
                         const BrisaStream::Config& config)
    : net::Process(network, id), pss_(pss), config_(config) {
  pss_.set_listener(this);
  pss_.set_watermark_provider([this]() {
    std::vector<membership::AppWatermark> entries;
    entries.reserve(stream_count_);
    for (const auto& stream : streams_) {
      if (stream != nullptr) entries.push_back(stream->watermark_entry());
    }
    return entries;
  });
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
  if (streams_.size() <= stream) streams_.resize(stream + 1);
  BRISA_ASSERT_MSG(streams_[stream] == nullptr, "stream id already active");
  streams_[stream] = std::make_unique<BrisaStream>(*this, stream);
  ++stream_count_;
  return *streams_[stream];
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
  ids.reserve(stream_count_);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i] != nullptr) {
      ids.push_back(static_cast<net::StreamId>(i));
    }
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

void BrisaEngine::on_neighbor_watermark(net::NodeId peer, net::StreamId stream,
                                        std::uint64_t watermark,
                                        std::uint64_t aux) {
  if (BrisaStream* s = find_stream(stream)) {
    s->on_neighbor_watermark(peer, watermark, aux);
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
