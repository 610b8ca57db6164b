/**
 * @file
 * Frame-budget regression tests: how many coroutine-frame-pool blocks
 * the per-message hot path asks for, and how many the pool keeps.
 *
 * The counts are deterministic (the simulator is single-threaded and
 * each test starts from a trimmed pool), so each bound is tight
 * enough that turning busy()/wait() or the eager send/recv path into
 * coroutines, copying the collective context into every algorithm
 * frame, capping the blocks a size class may park, or skipping the
 * trim at Machine teardown trips one of them.  A last test pins the
 * event counts of a few fixed points, which the frame-free awaiters
 * must not move.
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
    // itself, and CPU charges and waits are awaiters.  What remains is
    // one barrier call's frames (runCollectiveOnce, Comm::barrier and
    // barrierDissemination) spread over its log2 p rounds, plus the
    // odd queue block: 0.54 per send.  One coroutine frame per message
    // on the eager path would add at least 1.
    EXPECT_LE(static_cast<double>(blocks) / static_cast<double>(sends),
              0.75)
        << blocks << " pool blocks for " << sends << " eager sends";
}

TEST(FrameBudget, PeakBlocksPerRankOfABarrier)
{
    // Heap blocks from a trimmed pool are the run's peak of live
    // blocks.  Per rank that is four frames (the rank program,
    // runCollectiveOnce, Comm::barrier, barrierDissemination), the
    // send and receive ReqState slots, and one match-queue block: 7.
    // A frame per eager send or receive, or a barrierImpl frame
    // between Comm::barrier and the algorithm, breaks the bound.
    const int p = 4096;
    const std::uint64_t blocks = heapAllocsForBarrier(p, 2);
    EXPECT_LE(static_cast<double>(blocks) / p, 7.5)
        << blocks << " heap blocks for " << p << " ranks";
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

} // namespace
} // namespace ccsim
