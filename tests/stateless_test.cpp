// End-to-end tests of stateless connections (§5.3): HTPR extracts trigger
// records into the trigger FIFO; FIFO-triggered HTPS templates emit the
// response with fields copied/derived from the record.
#include <gtest/gtest.h>

#include "htpr/receiver.hpp"
#include "htps/sender.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "regfifo/register_fifo.hpp"
#include "testutil.hpp"

namespace ht {
namespace {

using net::FieldId;
namespace flag = net::tcpflag;

/// An editor op that sets `dst` from lane `lane` of the trigger record
/// plus `offset` (e.g. ack_no = seq_no + 1).
htps::EditOp from_trigger(FieldId dst, std::size_t lane, std::int64_t offset = 0) {
  return htps::EditOp{.field = dst,
                      .kind = htps::EditOp::Kind::kFromTrigger,
                      .trigger_lane = lane,
                      .trigger_offset = offset};
}

TEST(StatelessConnection, SynAckTriggersAck) {
  // The TCP-handshake third step from §5.4: a SYN+ACK arriving on port 0
  // triggers an ACK out of port 1, with addresses/ports swapped and
  // ack_no = seq_no + 1.
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});

  const std::vector<FieldId> lanes = {FieldId::kIpv4Sip,  FieldId::kIpv4Dip,
                                      FieldId::kTcpSport, FieldId::kTcpDport,
                                      FieldId::kTcpSeqNo, FieldId::kTcpAckNo};
  regfifo::RegisterFifo fifo(tb.asic.registers(), "synack_fifo", 1024, lanes.size());

  htps::Sender sender(tb.asic);
  htps::TemplateConfig ack_tpl;
  ack_tpl.spec.l4 = net::HeaderKind::kTcp;
  ack_tpl.spec.pkt_len = 64;
  ack_tpl.spec.header_init = {{FieldId::kTcpFlags, flag::kAck}};
  ack_tpl.egress_ports = {1};
  ack_tpl.mode = htps::TemplateConfig::Mode::kFifoTriggered;
  ack_tpl.trigger_fifo = &fifo;
  // Response fields from the trigger record (directions swapped).
  ack_tpl.edits = {
      from_trigger(FieldId::kIpv4Dip, 0),      // <- sip
      from_trigger(FieldId::kIpv4Sip, 1),      // <- dip
      from_trigger(FieldId::kTcpDport, 2),     // <- sport
      from_trigger(FieldId::kTcpSport, 3),     // <- dport
      from_trigger(FieldId::kTcpSeqNo, 5),     // <- ack_no
      from_trigger(FieldId::kTcpAckNo, 4, 1),  // <- seq_no + 1
  };
  sender.add_template(std::move(ack_tpl));
  sender.install();

  htpr::Receiver rx(tb.asic);
  htpr::QueryConfig q;
  q.name = "synack";
  q.ops = {htpr::FilterOp{FieldId::kTcpFlags, htpr::Cmp::kEq, flag::kSynAck}};
  q.triggers.push_back({.fifo = &fifo, .lanes = lanes});
  rx.add_query(std::move(q));
  rx.install();

  sender.start();
  tb.ev.run_until(sim::us(50));  // let the template enter the loop

  // Server's SYN+ACK arrives on port 0.
  auto synack = net::make_packet(
      net::make_tcp_packet(net::ipv4_address("5.5.5.5"), net::ipv4_address("1.1.0.1"), 80, 4096,
                           flag::kSynAck, /*seq=*/7777, /*ack=*/2));
  tb.sinks[0]->port.send(synack);
  tb.ev.run_until(sim::ms(1));

  ASSERT_EQ(tb.sinks[1]->packets.size(), 1u);
  const auto& ack = *tb.sinks[1]->packets[0];
  EXPECT_EQ(net::get_field(ack, FieldId::kTcpFlags), flag::kAck);
  EXPECT_EQ(net::get_field(ack, FieldId::kIpv4Dip), net::ipv4_address("5.5.5.5"));
  EXPECT_EQ(net::get_field(ack, FieldId::kIpv4Sip), net::ipv4_address("1.1.0.1"));
  EXPECT_EQ(net::get_field(ack, FieldId::kTcpDport), 80u);
  EXPECT_EQ(net::get_field(ack, FieldId::kTcpSport), 4096u);
  EXPECT_EQ(net::get_field(ack, FieldId::kTcpSeqNo), 2u);          // = ack_no of SYN+ACK
  EXPECT_EQ(net::get_field(ack, FieldId::kTcpAckNo), 7778u);       // = seq_no + 1
  EXPECT_TRUE(net::verify_checksums(ack));
}

TEST(StatelessConnection, OneResponsePerReceivedPacket) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  regfifo::RegisterFifo fifo(tb.asic.registers(), "fifo", 1024, 1);
  htps::Sender sender(tb.asic);
  htps::TemplateConfig tpl;
  tpl.spec.l4 = net::HeaderKind::kTcp;
  tpl.spec.header_init = {{FieldId::kTcpFlags, flag::kAck}};
  tpl.egress_ports = {1};
  tpl.mode = htps::TemplateConfig::Mode::kFifoTriggered;
  tpl.trigger_fifo = &fifo;
  tpl.edits = {from_trigger(FieldId::kIpv4Dip, 0)};
  sender.add_template(std::move(tpl));
  sender.install();

  htpr::Receiver rx(tb.asic);
  htpr::QueryConfig q;
  q.name = "all_synack";
  q.ops = {htpr::FilterOp{FieldId::kTcpFlags, htpr::Cmp::kEq, flag::kSynAck}};
  q.triggers.push_back({.fifo = &fifo, .lanes = {FieldId::kIpv4Sip}});
  rx.add_query(std::move(q));
  rx.install();
  sender.start();
  tb.ev.run_until(sim::us(50));

  constexpr int kCount = 37;
  for (int i = 0; i < kCount; ++i) {
    tb.sinks[0]->port.send(net::make_packet(
        net::make_tcp_packet(100 + i, 200, 80, 1000, flag::kSynAck)));
  }
  tb.ev.run_until(sim::ms(2));
  ASSERT_EQ(tb.sinks[1]->packets.size(), static_cast<std::size_t>(kCount));
  // Each response echoes its own trigger's source address.
  std::set<std::uint64_t> dips;
  for (const auto& p : tb.sinks[1]->packets) {
    dips.insert(net::get_field(*p, FieldId::kIpv4Dip));
  }
  EXPECT_EQ(dips.size(), static_cast<std::size_t>(kCount));
  // Non-matching packets trigger nothing.
  tb.sinks[0]->port.send(
      net::make_packet(net::make_tcp_packet(1, 2, 3, 4, flag::kAck)));
  tb.ev.run_until(sim::ms(3));
  EXPECT_EQ(tb.sinks[1]->packets.size(), static_cast<std::size_t>(kCount));
}

}  // namespace
}  // namespace ht
