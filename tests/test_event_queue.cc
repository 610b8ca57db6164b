/** @file Unit tests for the discrete-event queue. */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "util/logging.hh"

namespace ccsim::sim {
namespace {

using namespace time_literals;

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.fired(), 0u);
    EXPECT_EQ(q.lastFired(), 0);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5 * US, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunNextReturnsFireTime)
{
    EventQueue q;
    q.schedule(7 * NS, [] {});
    EXPECT_EQ(q.nextTime(), 7 * NS);
    EXPECT_EQ(q.runNext(), 7 * NS);
    EXPECT_EQ(q.lastFired(), 7 * NS);
    EXPECT_EQ(q.fired(), 1u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    std::vector<Time> fire_times;
    q.schedule(10, [&] {
        fire_times.push_back(q.lastFired());
        q.schedule(25, [&] { fire_times.push_back(q.lastFired()); });
    });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fire_times, (std::vector<Time>{10, 25}));
}

TEST(EventQueue, SchedulingAtCurrentTimeAllowed)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        q.schedule(10, [&] { ++fired; }); // same instant
    });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    throwOnError(true);
    EventQueue q;
    q.schedule(100, [] {});
    q.runNext();
    EXPECT_THROW(q.schedule(50, [] {}), PanicError);
    throwOnError(false);
}

TEST(EventQueue, EmptyCallbackPanics)
{
    throwOnError(true);
    EventQueue q;
    EXPECT_THROW(q.schedule(1, EventQueue::Callback()), PanicError);
    throwOnError(false);
}

TEST(EventQueue, PopOnEmptyPanics)
{
    throwOnError(true);
    EventQueue q;
    EXPECT_THROW(q.runNext(), PanicError);
    EXPECT_THROW(q.nextTime(), PanicError);
    throwOnError(false);
}

TEST(EventQueue, ManyEventsAllFire)
{
    EventQueue q;
    int count = 0;
    for (int i = 0; i < 10000; ++i)
        q.schedule(i % 97, [&] { ++count; });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(count, 10000);
    EXPECT_EQ(q.fired(), 10000u);
}

TEST(EventQueue, MoveOnlyCallbacksAreAccepted)
{
    // std::function required copyable callables; SmallFn does not.
    EventQueue q;
    auto payload = std::make_unique<int>(42);
    int seen = 0;
    q.schedule(1, [p = std::move(payload), &seen] { seen = *p; });
    q.runNext();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, CallbacksFiringDuringRunNextKeepOrder)
{
    // A callback scheduling new events mid-pop must not disturb the
    // stable time/sequence order.
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(10, [&] { order.push_back(3); });
        q.schedule(20, [&] { order.push_back(4); });
    });
    q.schedule(10, [&] { order.push_back(2); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, ReanchoredWindowAcceptsEarlierFutureEvents)
{
    // After the calendar window advances past a gap, its origin jumps
    // to the earliest spilled event.  A schedule that lands *between*
    // the current time and the jumped origin clamps to the first
    // bucket and must still fire in global time order.
    EventQueue q;
    std::vector<Time> fired;
    const Time far = Time(1) << 40;
    q.schedule(100, [&] { fired.push_back(100); });
    q.schedule(far, [&] { fired.push_back(far); });
    q.runNext(); // fires 100; the window re-anchors at `far`
    q.schedule(200, [&] { fired.push_back(200); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fired, (std::vector<Time>{100, 200, far}));
}

TEST(EventQueue, WideTimeSpreadRollsOverInOrder)
{
    // Enough spillover (>= 64 entries) over a huge span to trigger
    // the bucket-width re-fit on window advance.  Scheduled in
    // reverse time order to stress the move-back and overflow paths.
    EventQueue q;
    std::vector<Time> expect;
    Time t = 1000;
    for (int i = 0; i < 128; ++i) {
        expect.push_back(t);
        t += (Time(1) << 33) + i * 7919;
    }
    std::vector<Time> fired;
    for (int i = 127; i >= 0; --i) {
        Time when = expect[static_cast<std::size_t>(i)];
        q.schedule(when, [&fired, when] { fired.push_back(when); });
    }
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fired, expect);
}

TEST(EventQueue, StableAcrossBucketRollover)
{
    // Same-instant events must keep insertion order even when their
    // instant sits past several window advances.
    EventQueue q;
    std::vector<int> order;
    const Time far = (Time(1) << 30) + 17;
    q.schedule(1, [] {});
    for (int i = 0; i < 8; ++i)
        q.schedule(far, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, MatchesReferenceOrderUnderRandomLoad)
{
    // Deterministic random schedule, including events scheduled from
    // callbacks, checked against the (time, seq) contract: fire order
    // is a stable sort of schedule order by time.
    EventQueue q;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    std::vector<std::pair<Time, int>> scheduled; // (when, id)
    std::vector<int> fired;
    int id = 0;
    std::function<void(Time)> add = [&](Time when) {
        int my = id++;
        scheduled.emplace_back(when, my);
        q.schedule(when, [&, my, when] {
            fired.push_back(my);
            // A third of the callbacks schedule a follow-up.
            if (next() % 3 == 0)
                add(when + static_cast<Time>(next() % 5000));
        });
    };
    for (int i = 0; i < 2000; ++i)
        add(static_cast<Time>(next() % 100000));
    while (!q.empty())
        q.runNext();

    ASSERT_EQ(fired.size(), scheduled.size());
    std::vector<std::pair<Time, int>> expect = scheduled;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    // Callback-scheduled events interleave with pending ones, so the
    // stable sort must account for *when* each was scheduled: seq
    // order equals id order here because add() is the only scheduler.
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(fired[i], expect[i].second) << "at position " << i;
}

TEST(EventQueue, ReserveIsTransparent)
{
    // reserve() is a capacity hint: a reserved and an unreserved
    // queue must fire an identical schedule identically.
    EventQueue plain;
    EventQueue hinted;
    hinted.reserve(4096);
    std::vector<Time> fp, fh;
    for (int i = 0; i < 500; ++i) {
        Time when = (i * 37) % 1000 + 1;
        plain.schedule(when, [&fp, when] { fp.push_back(when); });
        hinted.schedule(when, [&fh, when] { fh.push_back(when); });
    }
    while (!plain.empty())
        plain.runNext();
    while (!hinted.empty())
        hinted.runNext();
    EXPECT_EQ(fp, fh);
}

TEST(EventQueue, StorageFollowsInFlightEvents)
{
    // 96 rounds, each a 16384-wide same-time batch a microsecond after
    // the last, drained before the next.  reserve(4096) makes 1024
    // buckets a few hundred nanoseconds wide, and a far event keeps
    // the window anchored at the first round, so every batch lands
    // in a bucket of its own.  Storage kept per visited bucket would
    // grow with the rounds; recycled storage stays with the one batch
    // in flight.
    const std::size_t width = 16384;
    const int rounds = 96;
    const std::size_t buckets = 1024;
    EventQueue q;
    q.reserve(4 * buckets);
    std::uint64_t sink = 0;
    std::uint64_t oversize_after_first = 0;
    for (int r = 0; r < rounds; ++r) {
        const Time when = (r + 1) * US;
        q.scheduleBatchAt(when, width, [&sink](std::size_t i) {
            return EventQueue::Callback([&sink, i] { sink += i; });
        });
        if (r == 0)
            q.schedule(200 * US, [] {}); // keeps the window anchored
        while (q.size() > 1)
            q.runNext();
        if (r == 0)
            oversize_after_first = framePool().counters().oversize;
    }
    EXPECT_EQ(sink, rounds * (width * (width - 1) / 2));
    EXPECT_EQ(q.maxDepth(), width + 1);
    const std::size_t bound =
        4 * q.maxDepth() + buckets * EventQueue::kBucketReserve;
    EXPECT_LE(q.capacityHighWater(), bound);
    EXPECT_LE(q.retainedCapacity(), q.capacityHighWater());
    // Once the first round's storage is a spare, later rounds reuse
    // it: no further oversize (heap) block is requested.
    EXPECT_EQ(framePool().counters().oversize, oversize_after_first);
    q.runNext();
    EXPECT_TRUE(q.empty());
}

TEST(SmallFn, SmallCapturesAreStoredInline)
{
    int x = 0;
    SmallFn f([&x] { ++x; });
    EXPECT_TRUE(f.inlined());
    f();
    EXPECT_EQ(x, 1);
}

TEST(SmallFn, OversizedCapturesFallBackToHeapAndStillRun)
{
    struct Big
    {
        char bytes[2 * SmallFn::kInlineBytes] = {};
    };
    int calls = 0;
    SmallFn f([big = Big{}, &calls] {
        (void)big;
        ++calls;
    });
    EXPECT_FALSE(f.inlined());
    f();
    f();
    EXPECT_EQ(calls, 2);
}

TEST(SmallFn, MoveTransfersTheCallable)
{
    int x = 0;
    SmallFn a([&x] { ++x; });
    SmallFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(x, 1);

    SmallFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(x, 2);
}

TEST(SmallFn, DestroysHeldCallableExactlyOnce)
{
    struct Probe
    {
        int *live;
        explicit Probe(int *l) : live(l) { ++*live; }
        Probe(Probe &&o) noexcept : live(o.live) { ++*live; }
        Probe(const Probe &o) : live(o.live) { ++*live; }
        ~Probe() { --*live; }
        void operator()() const {}
    };
    int live = 0;
    {
        SmallFn f{Probe(&live)};
        EXPECT_GE(live, 1);
        SmallFn g(std::move(f));
        EXPECT_GE(live, 1);
    }
    EXPECT_EQ(live, 0);
}

} // namespace
} // namespace ccsim::sim
