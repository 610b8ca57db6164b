/** @file Edge-case tests for the transport protocol machinery. */

#include <memory>

#include <gtest/gtest.h>

#include "msg/transport.hh"
#include "net/fully_connected.hh"
#include "net/network.hh"
#include "sim/simulator.hh"
#include "util/logging.hh"

namespace ccsim::msg {
namespace {

using namespace time_literals;
using sim::Task;

struct World
{
    World(Bytes eager_threshold = 4 * KiB, double overlap = 0.0)
    {
        net::NetworkParams np;
        np.link_bandwidth_mbs = 100.0;
        np.hop_latency = 100 * NS;
        network = std::make_unique<net::Network>(
            std::make_unique<net::FullyConnected>(4), np);
        TransportParams tp;
        tp.send_overhead = 10 * US;
        tp.recv_overhead = 5 * US;
        tp.copy_bandwidth_mbs = 100.0;
        tp.eager_threshold = eager_threshold;
        tp.rendezvous_overhead = 2 * US;
        tp.coprocessor_overlap = overlap;
        fabric = std::make_unique<Fabric>(simulator, *network, 4, tp);
    }

    std::unique_ptr<net::Network> network;
    std::unique_ptr<Fabric> fabric;
    sim::Simulator simulator; //!< destroyed first, as in Machine
};

TEST(TransportEdge, AnyTagMatchesInArrivalOrder)
{
    World w;
    std::vector<int> tags;
    auto sender = [&]() -> Task<void> {
        co_await w.fabric->node(0).send(1, 5, 0, 8);
        co_await w.fabric->node(0).send(1, 9, 0, 8);
    };
    auto receiver = [&]() -> Task<void> {
        for (int i = 0; i < 2; ++i) {
            Message m =
                co_await w.fabric->node(1).recv(0, kAnyTag, 0);
            tags.push_back(m.tag);
        }
    };
    w.simulator.spawn(sender());
    w.simulator.spawn(receiver());
    w.simulator.run();
    EXPECT_EQ(tags, (std::vector<int>{5, 9}));
}

TEST(TransportEdge, EagerThresholdBoundaryExact)
{
    // <= threshold goes eager (receive copy), threshold+1 goes
    // rendezvous (handshake, no receive copy) — verify via timing
    // signature difference.
    auto completion = [&](Bytes size) {
        World w(/*eager_threshold=*/1000);
        Time done = -1;
        auto sender = [&]() -> Task<void> {
            co_await w.fabric->node(0).send(1, 1, 0, size);
        };
        auto receiver = [&]() -> Task<void> {
            co_await w.fabric->node(1).recv(0, 1, 0);
            done = w.simulator.now();
        };
        w.simulator.spawn(receiver());
        w.simulator.spawn(sender());
        w.simulator.run();
        return done;
    };
    // Eager at exactly 1000 bytes:
    // o_s(10) + copy(10) + wire(0.1+10) + o_r(5) + copy(10) = 45.1
    EXPECT_EQ(completion(1000), microseconds(45.1));
    // Rendezvous at 1001 bytes:
    // o_s+rdv(12) + rts(0.1) + rdv(2) + cts(0.1) + copy(10.01)
    // + wire(0.1 + 10.01) + o_r(5) = 39.32
    EXPECT_EQ(completion(1001), microseconds(39.32));
}

TEST(TransportEdge, ZeroByteMessagesFlow)
{
    World w;
    int got = 0;
    auto sender = [&]() -> Task<void> {
        co_await w.fabric->node(0).send(1, 1, 0, 0);
    };
    auto receiver = [&]() -> Task<void> {
        Message m = co_await w.fabric->node(1).recv(0, 1, 0);
        EXPECT_EQ(m.bytes, 0);
        ++got;
    };
    w.simulator.spawn(sender());
    w.simulator.spawn(receiver());
    w.simulator.run();
    EXPECT_EQ(got, 1);
}

TEST(TransportEdge, LargeSelfSendStaysEagerAndOrdered)
{
    // Self-sends are always buffered, even above the threshold, so a
    // lone rank can send-then-receive without deadlock.
    World w;
    Bytes size = 64 * KiB;
    bool done = false;
    auto prog = [&]() -> Task<void> {
        co_await w.fabric->node(2).send(2, 1, 0, size);
        Message m = co_await w.fabric->node(2).recv(2, 1, 0);
        EXPECT_EQ(m.bytes, size);
        done = true;
    };
    w.simulator.spawn(prog());
    w.simulator.run();
    EXPECT_TRUE(done);
}

TEST(TransportEdge, ManyConcurrentRendezvousInterleave)
{
    // All four nodes exchange long messages with everyone at once;
    // the handshakes must all complete (no lost CTS/data races).
    World w;
    int completed = 0;
    auto prog = [&](int me) -> Task<void> {
        std::vector<Request> reqs;
        for (int other = 0; other < 4; ++other)
            if (other != me)
                reqs.push_back(
                    w.fabric->node(me).isend(other, 7, 0, 16 * KiB));
        for (int other = 0; other < 4; ++other)
            if (other != me)
                co_await w.fabric->node(me).recv(other, 7, 0);
        for (auto &r : reqs)
            co_await w.fabric->node(me).wait(std::move(r));
        ++completed;
    };
    for (int r = 0; r < 4; ++r)
        w.simulator.spawn(prog(r));
    w.simulator.run();
    EXPECT_EQ(completed, 4);
}

TEST(TransportEdge, WildcardRecvSeesEagerAndRtsInArrivalOrder)
{
    // A short (eager) and a long (rendezvous RTS) message race to a
    // wildcard receiver; non-overtaking applies across protocols.
    World w;
    std::vector<Bytes> sizes;
    auto sender = [&]() -> Task<void> {
        co_await w.fabric->node(0).send(1, 1, 0, 64);       // eager
        co_await w.fabric->node(0).send(1, 1, 0, 16 * KiB); // rdv
    };
    auto receiver = [&]() -> Task<void> {
        co_await w.simulator.delay(100 * MS); // both arrived/queued
        for (int i = 0; i < 2; ++i) {
            Message m =
                co_await w.fabric->node(1).recv(0, kAnyTag, 0);
            sizes.push_back(m.bytes);
        }
    };
    w.simulator.spawn(sender());
    w.simulator.spawn(receiver());
    w.simulator.run();
    EXPECT_EQ(sizes, (std::vector<Bytes>{64, 16 * KiB}));
}

TEST(TransportEdge, CostOverrideChangesOnlyThisCall)
{
    World w;
    std::vector<Time> done;
    auto sender = [&]() -> Task<void> {
        CostOverride cheap{microseconds(1), microseconds(1)};
        co_await w.fabric->node(0).send(1, 1, 0, 0, nullptr, cheap);
        co_await w.fabric->node(0).send(1, 2, 0, 0); // defaults
    };
    auto receiver = [&]() -> Task<void> {
        co_await w.fabric->node(1).recv(0, 1, 0,
                                        CostOverride{-1,
                                                     microseconds(1)});
        done.push_back(w.simulator.now());
        co_await w.fabric->node(1).recv(0, 2, 0);
        done.push_back(w.simulator.now());
    };
    w.simulator.spawn(sender());
    w.simulator.spawn(receiver());
    w.simulator.run();
    ASSERT_EQ(done.size(), 2u);
    // First: o_s(1) + hop(0.1) + o_r(1) = 2.1 us.
    EXPECT_EQ(done[0], microseconds(2.1));
    // Second: sender continues at 1 us, o_s(10) -> 11, hop -> 11.1;
    // receiver o_r(5) -> 16.1 us.
    EXPECT_EQ(done[1], microseconds(16.1));
}

TEST(TransportEdge, CoprocessorSerializesBackToBackInjections)
{
    // With full overlap the sender's CPU is free immediately, but
    // the copro pipeline still paces injections; messages must not
    // arrive out of order or overlapped on the wire.
    World w(4 * KiB, /*overlap=*/1.0);
    std::vector<Time> arrivals;
    auto sender = [&]() -> Task<void> {
        for (int i = 0; i < 3; ++i)
            co_await w.fabric->node(0).send(1, 1, 0, 1000);
    };
    auto receiver = [&]() -> Task<void> {
        for (int i = 0; i < 3; ++i) {
            Message m = co_await w.fabric->node(1).recv(0, 1, 0);
            arrivals.push_back(m.arrival);
        }
    };
    w.simulator.spawn(sender());
    w.simulator.spawn(receiver());
    w.simulator.run();
    ASSERT_EQ(arrivals.size(), 3u);
    // Copro copies serialize at 10 us each; wire adds 10 us.
    EXPECT_LT(arrivals[0], arrivals[1]);
    EXPECT_LT(arrivals[1], arrivals[2]);
    EXPECT_GE(arrivals[1] - arrivals[0], 10 * US);
}

} // namespace
} // namespace ccsim::msg
