/**
 * @file
 * Frame-budget regression tests: how many coroutine-frame-pool blocks
 * the per-message hot path asks for, and how many the pool keeps.
 *
 * The counts are deterministic (the simulator is single-threaded and
 * each test starts from a trimmed pool), so each bound is tight
 * enough that turning busy()/wait() or the eager send/recv path into
 * coroutines, a coroutine frame that only forwards (a size-only
 * front end, runCollectiveOnce, a barrier algorithm), copying the
 * collective context into every algorithm frame, capping the blocks
 * a size class may park, or skipping the trim at Machine teardown
 * trips one of them.  A last test pins the event counts of a few
 * fixed points, which the frame-free awaiters must not move.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "harness/measure.hh"
#include "machine/machine_config.hh"
#include "sim/pool.hh"

namespace ccsim {
namespace {

using sim::FramePool;
using sim::framePool;

/** SP2 software on the fat tree: a dissemination barrier. */
machine::MachineConfig
fatTreeSp2()
{
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.name = "FatTree";
    cfg.topo_spec = "fattree";
    return cfg;
}

harness::MeasureOptions
coldOptions(int k)
{
    harness::MeasureOptions o;
    o.iterations = k;
    o.repetitions = 1;
    o.warmup = 1;
    o.memoize = false;
    return o;
}

/** Heap allocations the frame pool makes for one barrier point at
 *  @p p with @p k timed calls, starting from an empty pool. */
std::uint64_t
heapAllocsForBarrier(int p, int k)
{
    framePool().trim(0);
    const std::uint64_t before = framePool().counters().allocs;
    harness::measureCollective(fatTreeSp2(), p, machine::Coll::Barrier, 0,
                               machine::Algo::Default, coldOptions(k));
    return framePool().counters().allocs - before;
}

/** Frame-pool blocks handed out (from the heap or the freelist) per
 *  rank per timed call of @p op at @p p: the difference between
 *  k = 4 and k = 2 over 2 p, so set-up and warm-up cancel. */
double
blocksPerRankPerCall(machine::Coll op, int p, Bytes m)
{
    auto blocks = [&](int k) {
        framePool().trim(0);
        const sim::PoolCounters before = framePool().counters();
        harness::measureCollective(fatTreeSp2(), p, op, m,
                                   machine::Algo::Default, coldOptions(k));
        const sim::PoolCounters &after = framePool().counters();
        return (after.reuses - before.reuses) +
               (after.allocs - before.allocs);
    };
    return static_cast<double>(blocks(4) - blocks(2)) / (2.0 * p);
}

TEST(FrameBudget, HeapAllocationsDoNotGrowWithIterations)
{
    // p = 2048 keeps more than FramePool::kReserve frames of one size
    // in flight, so a pool that handed blocks past the reserve back
    // to the heap mid-run would re-allocate them every iteration.
    const std::uint64_t k1 = heapAllocsForBarrier(2048, 1);
    const std::uint64_t k8 = heapAllocsForBarrier(2048, 8);
    EXPECT_GT(k1, FramePool::kReserve);
    EXPECT_EQ(k1, k8);
}

TEST(FrameBudget, QueueStorageIsReusedAcrossIterations)
{
    // Event-queue buckets above the frame-pool size classes are heap
    // blocks.  Recycled as spares, the blocks the first iteration
    // needed serve every later one: no iteration, and so no window of
    // a repeating run, asks the heap for bucket storage again.
    auto oversize = [](int k) {
        framePool().trim(0);
        const std::uint64_t before = framePool().counters().oversize;
        harness::measureCollective(fatTreeSp2(), 4096,
                                   machine::Coll::Barrier, 0,
                                   machine::Algo::Default, coldOptions(k));
        return framePool().counters().oversize - before;
    };
    const std::uint64_t k1 = oversize(1);
    EXPECT_GT(k1, 0u);
    EXPECT_EQ(oversize(8), k1);
}

TEST(FrameBudget, FewFramesPerEagerSend)
{
    harness::MeasureOptions o = coldOptions(2);
    o.metrics = true;
    framePool().trim(0);
    const sim::PoolCounters before = framePool().counters();
    harness::Measurement meas = harness::measureCollective(
        fatTreeSp2(), 256, machine::Coll::Barrier, 0,
        machine::Algo::Default, o);
    const sim::PoolCounters &after = framePool().counters();
    const std::uint64_t blocks = (after.reuses - before.reuses) +
                                 (after.allocs - before.allocs);
    const std::uint64_t sends = meas.metrics.counters.at("msg.sends.eager");
    ASSERT_GT(sends, 0u);
    // An eager sendrecv round takes no frame-pool block: its send and
    // receive halves are ReqState slots that each Transport recycles
    // itself, and CPU charges and waits are awaiters.  A barrier call
    // is one BarrierRounds block, spread over its log2 p rounds; what
    // is left is the rank program's frame and the odd queue block:
    // 0.32 per send (the parent of this bound, with three coroutine
    // frames per barrier call, read 0.54).  One coroutine frame per message on the
    // eager path would add at least 1, and a coroutine frame per
    // barrier call (a forwarding layer, or a barrier algorithm run as
    // a coroutine) 1/8 at p = 256.
    EXPECT_LE(static_cast<double>(blocks) / static_cast<double>(sends),
              0.4)
        << blocks << " pool blocks for " << sends << " eager sends";
}

TEST(FrameBudget, PeakBlocksPerRankOfABarrier)
{
    // Heap blocks from a trimmed pool are the run's peak of live
    // blocks.  Per rank that is one coroutine frame (the rank
    // program), the BarrierRounds state, the send and receive
    // ReqState slots, and one match-queue block: 5, in 704 bytes.
    // runCollectiveOnce, Comm::barrier or the barrier algorithm as a
    // coroutine, or a frame per eager send or receive, adds a block
    // per rank and breaks the bound; so does a ReqState or a
    // BarrierRounds grown past its 128-byte block.
    for (int p : {4096, 16384}) {
        framePool().trim(0);
        const sim::PoolCounters before = framePool().counters();
        harness::measureCollective(fatTreeSp2(), p, machine::Coll::Barrier,
                                   0, machine::Algo::Default,
                                   coldOptions(2));
        const sim::PoolCounters &after = framePool().counters();
        const double blocks =
            static_cast<double>(after.allocs - before.allocs) / p;
        const double bytes =
            static_cast<double>(after.alloc_bytes - before.alloc_bytes) /
            p;
        EXPECT_LE(blocks, 5.5) << "p = " << p;
        EXPECT_LE(bytes, 768.0) << "p = " << p;
    }
}

TEST(FrameBudget, SizeOnlyCollectivesAddNoForwardingFrame)
{
    // A size-only call is its *Core coroutine and the algorithm's
    // frames, handed straight to the caller: Comm::bcast and
    // Comm::alltoall return the Core, and runCollectiveOnce returns
    // what they return.  Measured: 3.25 blocks per rank per bcast and
    // 13.08 per alltoall (with a front-end frame and a
    // runCollectiveOnce frame, 5.25 and 15.08).  A coroutine that only
    // co_awaits the next layer adds one block per rank per call.
    EXPECT_LE(blocksPerRankPerCall(machine::Coll::Bcast, 64, 1024), 3.75);
    EXPECT_LE(blocksPerRankPerCall(machine::Coll::Alltoall, 64, 64), 13.5);
}

TEST(FrameBudget, DestroyedMachineLeavesOnlyTheReserve)
{
    framePool().trim(0);
    const std::uint64_t before = framePool().counters().allocs;
    // The point's Machine is built and destroyed inside the call.
    harness::measureCollective(fatTreeSp2(), 2048, machine::Coll::Barrier,
                               0, machine::Algo::Default, coldOptions(1));
    ASSERT_GT(framePool().counters().allocs - before, FramePool::kReserve);
    for (std::size_t c = 0; c < FramePool::kClasses; ++c)
        EXPECT_LE(framePool().parked(c), FramePool::kReserve)
            << "size class " << c;
}

TEST(FrameBudget, EventCountsOfFixedPointsArePinned)
{
    harness::MeasureOptions o = coldOptions(2);
    o.metrics = true;
    auto events = [&](machine::Coll op, int p, Bytes m) {
        return harness::measureCollective(machine::sp2Config(), p, op, m,
                                          machine::Algo::Default, o)
            .metrics.counters.at("sim.events");
    };
    // Pinned counts: a zero-cost charge on an idle CPU (SP2's barrier
    // entry) schedules no event, and a wait adds none of its own.
    EXPECT_EQ(events(machine::Coll::Barrier, 64, 0), 7680u);
    EXPECT_EQ(events(machine::Coll::Alltoall, 16, 1024), 4688u);
    EXPECT_EQ(events(machine::Coll::Scan, 16, 64), 1486u);
}

TEST(FrameBudget, BarrierPlansKeepTheCoroutinesEventsAndTimes)
{
    // Every barrier algorithm runs as a plan on BarrierRounds.  These
    // points were pinned from the coroutine algorithms they replaced
    // (non-power-of-two sizes, every software plan, the hardware
    // tree): the same events, to the count, and the same times, to
    // the picosecond.
    harness::MeasureOptions o = coldOptions(2);
    o.metrics = true;
    struct Pin
    {
        machine::MachineConfig cfg;
        machine::Algo algo;
        int p;
        Time max_time;
        std::uint64_t events;
    };
    const Pin pins[] = {
        {machine::sp2Config(), machine::Algo::Linear, 13, 2800500000, 657},
        {machine::sp2Config(), machine::Algo::Binomial, 13, 961250000,
         692},
        {machine::sp2Config(), machine::Algo::Dissemination, 13,
         485500000, 1040},
        {machine::paragonConfig(), machine::Algo::Binomial, 24,
         1407720000, 1426},
        {machine::t3dConfig(), machine::Algo::Hardware, 8, 3000000, 36},
    };
    for (const Pin &pin : pins) {
        harness::Measurement meas = harness::measureCollective(
            pin.cfg, pin.p, machine::Coll::Barrier, 0, pin.algo, o);
        EXPECT_EQ(meas.max_time, pin.max_time)
            << pin.cfg.name << " " << machine::algoName(pin.algo);
        EXPECT_EQ(meas.metrics.counters.at("sim.events"), pin.events)
            << pin.cfg.name << " " << machine::algoName(pin.algo);
    }
}

} // namespace
} // namespace ccsim
