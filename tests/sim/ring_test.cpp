#include "sim/ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace acc::sim {
namespace {

TEST(Ring, DeliversToDestination) {
  Ring ring(4, true);
  RingMsg m;
  m.dst = 2;
  m.payload = 42;
  ASSERT_TRUE(ring.try_inject(0, m));
  // Injection happens on the first tick; transit 0->1->2 takes two more.
  std::vector<RingMsg> got;
  for (int t = 0; t < 4 && got.empty(); ++t) {
    ring.tick();
    got = ring.drain(2);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, 42u);
  EXPECT_EQ(ring.delivered(), 1);
}

TEST(Ring, LatencyEqualsHopDistance) {
  Ring ring(6, true);
  RingMsg m;
  m.dst = 4;
  ASSERT_TRUE(ring.try_inject(1, m));
  int ticks = 0;
  while (ring.drain(4).empty()) {
    ring.tick();
    ++ticks;
    ASSERT_LE(ticks, 12);
  }
  // 1 tick to enter the slot at node 1, then 3 hops 1->2->3->4.
  EXPECT_EQ(ticks, 4);
}

TEST(Ring, CounterClockwiseTravelsTheOtherWay) {
  Ring cw(8, true);
  Ring ccw(8, false);
  RingMsg m;
  m.dst = 7;
  ASSERT_TRUE(cw.try_inject(0, m));
  ASSERT_TRUE(ccw.try_inject(0, m));
  int cw_ticks = 0;
  while (cw.drain(7).empty()) {
    cw.tick();
    ++cw_ticks;
  }
  int ccw_ticks = 0;
  while (ccw.drain(7).empty()) {
    ccw.tick();
    ++ccw_ticks;
  }
  EXPECT_EQ(cw_ticks, 8);   // 0 -> 1 -> ... -> 7
  EXPECT_EQ(ccw_ticks, 2);  // 0 -> 7 directly
}

TEST(Ring, InjectionQueueBounded) {
  Ring ring(2, true);
  RingMsg m;
  m.dst = 1;
  int accepted = 0;
  while (ring.try_inject(0, m)) ++accepted;
  EXPECT_EQ(accepted, 8);  // posted-write acceptance is finite
  ring.tick();
  EXPECT_TRUE(ring.try_inject(0, m));  // drained one slot
}

TEST(Ring, ManyMessagesAllArriveInOrder) {
  Ring ring(4, true);
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> got;
  std::uint64_t next = 1;
  for (int t = 0; t < 200; ++t) {
    RingMsg m;
    m.dst = 3;
    m.payload = next;
    if (ring.try_inject(1, m)) {
      sent.push_back(next);
      ++next;
    }
    ring.tick();
    for (const RingMsg& r : ring.drain(3)) got.push_back(r.payload);
  }
  for (int t = 0; t < 16; ++t) {
    ring.tick();
    for (const RingMsg& r : ring.drain(3)) got.push_back(r.payload);
  }
  EXPECT_EQ(got, sent);  // single source: FIFO order preserved
  EXPECT_GT(got.size(), 100u);
}

TEST(Ring, InvalidNodesRejected) {
  Ring ring(4, true);
  RingMsg bad;
  bad.dst = 9;
  EXPECT_THROW((void)ring.try_inject(0, bad), precondition_error);
  RingMsg ok;
  ok.dst = 1;
  EXPECT_THROW((void)ring.try_inject(-1, ok), precondition_error);
  EXPECT_THROW((void)ring.drain(11), precondition_error);
}

TEST(DualRing, DataAndCreditIndependent) {
  DualRing dr(4);
  RingMsg d;
  d.dst = 2;
  d.payload = 7;
  RingMsg c;
  c.dst = 0;
  ASSERT_TRUE(dr.data().try_inject(0, d));
  ASSERT_TRUE(dr.credit().try_inject(2, c));
  for (int i = 0; i < 4; ++i) dr.tick();
  EXPECT_EQ(dr.data().drain(2).size(), 1u);
  EXPECT_EQ(dr.credit().drain(0).size(), 1u);
}

// --- PR6 hot-path backfill: rotation without modulo ---------------------
//
// slot_at replaces `(node + offset) % n` with a conditional subtract; the
// wrap at node 0 and the offset wrap after each full revolution are the
// edges the subtract must get right.

/// Ticks from injection until the message surfaces at `dst`.
int delivery_ticks(Ring& ring, std::int32_t src, std::int32_t dst) {
  RingMsg m;
  m.dst = dst;
  m.payload = 77;
  EXPECT_TRUE(ring.try_inject(src, m));
  for (int t = 1; t <= 4 * ring.nodes(); ++t) {
    ring.tick();
    if (!ring.drain(dst).empty()) return t;
  }
  ADD_FAILURE() << "message " << src << "->" << dst << " never delivered";
  return -1;
}

TEST(Ring, WrapAndNonWrapPathsOfEqualDistanceMatch) {
  // 0->3 stays inside the index range; 4->1 crosses the node-0 wrap. Both
  // are 3 hops clockwise and must take identical time.
  Ring inner(6, true);
  Ring wrapped(6, true);
  EXPECT_EQ(delivery_ticks(inner, 0, 3), delivery_ticks(wrapped, 4, 1));
}

TEST(Ring, CounterclockwiseWrapDelivers) {
  // The credit ring rotates the other way: 0->5 is ONE hop counterclockwise
  // on a 6-node ring, same as 5->4.
  Ring a(6, false);
  Ring b(6, false);
  EXPECT_EQ(delivery_ticks(a, 0, 5), delivery_ticks(b, 5, 4));
}

TEST(Ring, OffsetWrapsCleanlyOverManyRevolutions) {
  // Hundreds of revolutions move the rotation offset through every
  // wraparound; delivery from every node must still land at the right
  // destination with unchanged latency.
  Ring ring(7, true);
  RingMsg spin;
  spin.dst = 1;
  ASSERT_TRUE(ring.try_inject(0, spin));
  for (int warm = 0; warm < 1000; ++warm) ring.tick();
  (void)ring.drain(1);

  const int fresh_latency = [] {
    Ring probe(7, true);
    return delivery_ticks(probe, 2, 6);
  }();
  for (std::int32_t src = 0; src < 7; ++src) {
    const auto dst = static_cast<std::int32_t>((src + 4) % 7);
    EXPECT_EQ(delivery_ticks(ring, src, dst), fresh_latency)
        << "src " << src << " after 1000 warm ticks";
  }
}

TEST(Ring, FullRevolutionToSelfAdjacentPredecessor) {
  // dst one node BEHIND the rotation direction costs a near-full
  // revolution — the longest path and the one that exercises every wrap.
  Ring ring(5, true);
  const int long_way = delivery_ticks(ring, 2, 1);
  const int short_way = [] {
    Ring probe(5, true);
    return delivery_ticks(probe, 2, 3);
  }();
  EXPECT_EQ(long_way - short_way, 3);  // 4 hops vs 1 hop
}

TEST(Ring, MetricsCountInjectDeliverAndHops) {
  obs::MetricsRegistry reg;
  Ring ring(4, true);
  ring.set_metrics(&reg, "ring.t");
  RingMsg m;
  m.dst = 2;
  ASSERT_TRUE(ring.try_inject(0, m));
  for (int t = 0; t < 4; ++t) ring.tick();
  ASSERT_EQ(ring.drain(2).size(), 1u);
  const obs::MetricCell* injected = reg.find("ring.t.injected");
  const obs::MetricCell* delivered = reg.find("ring.t.delivered");
  const obs::MetricCell* hops = reg.find("ring.t.hops");
  ASSERT_NE(injected, nullptr);
  ASSERT_NE(delivered, nullptr);
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(injected->value, 1);
  EXPECT_EQ(delivered->value, 1);
  EXPECT_EQ(hops->value, 2);  // 0->1->2: one count per occupied-slot hop
}

TEST(Ring, CopyStateFromDeliversInFlightMessagesAlike) {
  // Mid-flight copy: occupied slots, queued injections and ejected messages
  // nobody drained yet all move over, so both rings deliver the same
  // payloads at the same nodes on every later tick.
  Ring a(6, true);
  std::uint64_t next = 1;
  for (int t = 0; t < 5; ++t) {
    for (const std::int32_t node : {0, 3}) {
      RingMsg m;
      m.dst = (node + 1 + t) % 6;
      m.payload = next++;
      ASSERT_TRUE(a.try_inject(node, m));
      ASSERT_TRUE(a.try_inject(node, m));  // keep the queue non-empty
    }
    a.tick();
  }
  ASSERT_FALSE(a.idle());
  Ring b(6, true);
  b.copy_state_from(a);
  EXPECT_EQ(b.cycle(), a.cycle());
  EXPECT_EQ(b.delivered(), a.delivered());
  StateHasher ha(0);
  StateHasher hb(0);
  a.snapshot_state(ha);
  b.snapshot_state(hb);
  EXPECT_EQ(hb.full(), ha.full());
  const auto payloads = [](const std::vector<RingMsg>& msgs) {
    std::vector<std::uint64_t> v;
    for (const RingMsg& m : msgs) v.push_back(m.payload);
    return v;
  };
  std::int64_t drained = 0;
  for (int t = 0; t < 40; ++t) {
    for (std::int32_t node = 0; node < 6; ++node) {
      const std::vector<RingMsg> got = a.drain(node);
      EXPECT_EQ(payloads(b.drain(node)), payloads(got))
          << "tick " << t << " node " << node;
      drained += static_cast<std::int64_t>(got.size());
    }
    a.tick();
    b.tick();
  }
  EXPECT_EQ(drained, 20);
  EXPECT_TRUE(a.idle());
  EXPECT_TRUE(b.idle());
  EXPECT_EQ(b.delivered(), a.delivered());
}

TEST(Flit, PackUnpackRoundTrip) {
  const CQ16 s{Q16::from_double(1.2345), Q16::from_double(-0.777)};
  EXPECT_EQ(unpack_sample(pack_sample(s)), s);
  const CQ16 neg{Q16::from_raw(-1), Q16::from_raw(INT32_MIN)};
  EXPECT_EQ(unpack_sample(pack_sample(neg)), neg);
}

}  // namespace
}  // namespace acc::sim
