#include "sim/port.hpp"

#include "net/headers.hpp"

namespace ht::sim {

void Port::send(net::PacketPtr pkt) { send_at(ev_.now(), std::move(pkt)); }

void Port::send_at(TimeNs now_ns, net::PacketPtr pkt) {
  if (!admin_up_) {
    ++dropped_admin_down_;
    return;
  }
  if (peer_ == nullptr) {
    ++dropped_no_peer_;
    return;
  }
  if (tx_in_flight_ >= kTxQueueCapacity) {
    ++dropped_queue_full_;
    return;
  }
  const double now = static_cast<double>(now_ns);
  const double start = std::max(now, busy_until_);
  const double tx_time = serialization_ns(pkt->line_size(), rate_gbps_);
  busy_until_ = start + tx_time;

  ++tx_packets_;
  tx_bytes_ += pkt->size();
  tx_line_bytes_ += pkt->line_size();
  ++tx_in_flight_;

  const TimeNs start_ns = static_cast<TimeNs>(std::llround(start));
  if (on_transmit) on_transmit(*pkt, start_ns);

  // The last bit leaves at busy_until_; arrival is propagation later.
  const TimeNs arrive = static_cast<TimeNs>(std::llround(busy_until_)) + propagation_ns_;
  if (wire_latency_ != nullptr && arrive >= static_cast<TimeNs>(now)) {
    wire_latency_->record(arrive - static_cast<TimeNs>(now));
  }
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->complete("tx", start_ns, static_cast<std::uint64_t>(std::llround(tx_time)),
                     telemetry::TraceRecorder::kTrackPortBase + id_);
  }
  const std::uint64_t line_bytes = pkt->line_size();
  if (remote_out_ != nullptr) {
    // Cross-shard wire: the packet leaves through the link outbox NOW, at
    // send time, stamped with the same arrival the local path computes —
    // waiting for the serialization-complete event could be too late, as
    // the destination shard's clock may pass `arrive` within this epoch.
    // A local event still retires the TX bookkeeping at the same instant.
    remote_out_->push_back(WireHandoff{std::move(pkt), arrive});
    ev_.schedule_at(arrive, [this, line_bytes] {
      --tx_in_flight_;
      tx_completed_line_bytes_ += line_bytes;
    });
    return;
  }
  Port* peer = peer_;
  ev_.schedule_at(arrive, [this, peer, line_bytes, pkt = std::move(pkt)]() mutable {
    --tx_in_flight_;
    tx_completed_line_bytes_ += line_bytes;
    finish_wire(std::move(pkt), *peer);
  });
}

void Port::finish_wire(net::PacketPtr pkt, Port& dst) {
  if (wire_hook) {
    wire_hook(std::move(pkt), dst);
  } else {
    dst.deliver(std::move(pkt));
  }
}

void Port::deliver(net::PacketPtr pkt) {
  if (!admin_up_) {
    ++dropped_admin_down_;
    return;
  }
  if (verify_fcs_ && !net::verify_checksums(*pkt)) {
    ++rx_fcs_drops_;
    return;
  }
  ++rx_packets_;
  rx_bytes_ += pkt->size();
  pkt->meta().ingress_port = id_;
  pkt->meta().ingress_tstamp_ns = ev_.now();  // MAC hardware timestamp
  if (on_receive) on_receive(std::move(pkt));
}

double Port::tx_line_rate_gbps() const {
  if (ev_.now() == 0) return 0.0;
  return static_cast<double>(tx_completed_line_bytes_) * 8.0 / static_cast<double>(ev_.now());
}

}  // namespace ht::sim
