/** @file Unit tests for the Simulator event loop and awaitables. */

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "util/logging.hh"

namespace ccsim::sim {
namespace {

using namespace time_literals;

TEST(Simulator, TimeStartsAtZero)
{
    Simulator s;
    EXPECT_EQ(s.now(), 0);
}

TEST(Simulator, DelayAdvancesTime)
{
    Simulator s;
    Time seen = -1;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(5 * US);
        seen = s.now();
    };
    s.spawn(prog());
    s.run();
    EXPECT_EQ(seen, 5 * US);
}

TEST(Simulator, SequentialDelaysAccumulate)
{
    Simulator s;
    std::vector<Time> stamps;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(1 * US);
        stamps.push_back(s.now());
        co_await s.delay(2 * US);
        stamps.push_back(s.now());
        co_await s.delay(0);
        stamps.push_back(s.now());
    };
    s.spawn(prog());
    s.run();
    EXPECT_EQ(stamps, (std::vector<Time>{1 * US, 3 * US, 3 * US}));
}

TEST(Simulator, ZeroDelayDoesNotSuspend)
{
    Simulator s;
    bool done_before_run = false;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(0);
        done_before_run = true;
    };
    s.spawn(prog());
    // spawn runs until the first real block; a zero delay is not one.
    EXPECT_TRUE(done_before_run);
    s.run();
}

TEST(Simulator, ParallelTasksInterleaveByTime)
{
    Simulator s;
    std::vector<int> order;
    auto prog = [&](int id, Time d) -> Task<void> {
        co_await s.delay(d);
        order.push_back(id);
    };
    s.spawn(prog(1, 30 * NS));
    s.spawn(prog(2, 10 * NS));
    s.spawn(prog(3, 20 * NS));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Simulator, ManyTasksAllComplete)
{
    Simulator s;
    int done = 0;
    auto prog = [&](int i) -> Task<void> {
        co_await s.delay(i * NS);
        co_await s.delay((128 - i) * NS);
        ++done;
    };
    for (int i = 0; i < 128; ++i)
        s.spawn(prog(i));
    s.run();
    EXPECT_EQ(done, 128);
    EXPECT_EQ(s.pendingTasks(), 0u);
}

TEST(Simulator, NegativeDelayPanics)
{
    throwOnError(true);
    Simulator s;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(-1);
    };
    // The panic is raised inside the coroutine, captured by its
    // promise, and surfaces from run().
    s.spawn(prog());
    EXPECT_THROW(s.run(), PanicError);
    throwOnError(false);
}

TEST(Simulator, TriggerReleasesAllWaiters)
{
    Simulator s;
    Trigger t(s);
    int released = 0;
    auto waiter = [&]() -> Task<void> {
        co_await t.wait();
        ++released;
    };
    auto firer = [&]() -> Task<void> {
        co_await s.delay(10 * US);
        t.fire();
    };
    s.spawn(waiter());
    s.spawn(waiter());
    s.spawn(waiter());
    s.spawn(firer());
    s.run();
    EXPECT_EQ(released, 3);
    EXPECT_TRUE(t.fired());
}

TEST(Simulator, AwaitingFiredTriggerIsImmediate)
{
    Simulator s;
    Trigger t(s);
    t.fire();
    Time when = -1;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(3 * US);
        co_await t.wait(); // already fired: no extra time
        when = s.now();
    };
    s.spawn(prog());
    s.run();
    EXPECT_EQ(when, 3 * US);
}

TEST(Simulator, TriggerFireIsIdempotent)
{
    Simulator s;
    Trigger t(s);
    t.fire();
    t.fire();
    EXPECT_TRUE(t.fired());
    s.run();
}

TEST(Simulator, DeadlockDetected)
{
    throwOnError(true);
    Simulator s;
    Trigger never(s);
    auto prog = [&]() -> Task<void> {
        co_await never.wait();
    };
    s.spawn(prog());
    EXPECT_THROW(s.run(), PanicError);
    throwOnError(false);
}

TEST(Simulator, EventLimitGuards)
{
    throwOnError(true);
    Simulator s;
    s.setEventLimit(100);
    auto prog = [&]() -> Task<void> {
        for (;;)
            co_await s.delay(1 * NS);
    };
    s.spawn(prog());
    EXPECT_THROW(s.run(), PanicError);
    throwOnError(false);
}

TEST(Simulator, SuspendWithParksAndResumes)
{
    Simulator s;
    std::coroutine_handle<> parked;
    Time resumed_at = -1;
    auto prog = [&]() -> Task<void> {
        co_await suspendWith([&](std::coroutine_handle<> h) {
            parked = h;
        });
        resumed_at = s.now();
    };
    auto kicker = [&]() -> Task<void> {
        co_await s.delay(42 * US);
        s.resumeNow(parked);
    };
    s.spawn(prog());
    s.spawn(kicker());
    s.run();
    EXPECT_EQ(resumed_at, 42 * US);
}

TEST(Simulator, TriggerReleasesAFrameFreeContinuationInOrder)
{
    // A state machine parks a function and its state where a
    // coroutine parks its handle; fire() releases both from events at
    // now, in the order they parked.
    Simulator s;
    Trigger t(s);
    std::vector<int> order;
    struct Step
    {
        std::vector<int> *order;
        Simulator *sim;
        Time at = -1;
    } step{&order, &s};
    auto prog = [&]() -> Task<void> {
        co_await t.wait();
        order.push_back(1);
    };
    s.spawn(prog());
    t.wait().await_suspend(Continuation(
        [](void *state) {
            auto *st = static_cast<Step *>(state);
            st->order->push_back(2);
            st->at = st->sim->now();
        },
        &step));
    s.schedule(7 * US, [&] { t.fire(); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(step.at, 7 * US);
}

TEST(Simulator, RunTwiceWithFreshSpawns)
{
    Simulator s;
    int count = 0;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(1 * US);
        ++count;
    };
    s.spawn(prog());
    s.run();
    s.spawn(prog());
    s.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, ReclaimedRootsKeepFirstExceptionInSpawnOrder)
{
    Simulator s;
    // Spawned first, throws last in simulated time.
    auto early = [&]() -> Task<void> {
        co_await s.delay(50 * US);
        throw std::runtime_error("early");
    };
    // Spawned last, throws first in simulated time.
    auto late = [&]() -> Task<void> {
        co_await s.delay(1 * US);
        throw std::runtime_error("late");
    };
    auto finisher = [&](int i) -> Task<void> {
        co_await s.delay((i % 97) * US);
    };
    s.spawn(early());
    for (int i = 0; i < 5000; ++i)
        s.spawn(finisher(i));
    s.spawn(late());
    try {
        s.run();
        FAIL() << "run() should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "early");
    }
    // Every root has finished: the finishers were freed, the two
    // throwers are held for the rethrow, none is left blocked.
    EXPECT_EQ(s.pendingTasks(), 0u);
    EXPECT_EQ(s.tasksSpawned(), 5002u);
}

TEST(Simulator, DeadlockAfterReclaimedRootsCountsBlockedTasks)
{
    throwOnError(true);
    Simulator s;
    Trigger never(s);
    auto blocked = [&]() -> Task<void> {
        co_await s.delay(3 * US);
        co_await never.wait();
    };
    auto finisher = [&](int i) -> Task<void> {
        co_await s.delay((i % 13) * US);
    };
    for (int i = 0; i < 4000; ++i) {
        s.spawn(finisher(i));
        if (i % 1000 == 500)
            s.spawn(blocked());
    }
    try {
        s.run();
        FAIL() << "run() should have diagnosed the deadlock";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("deadlock, 4 task(s)"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(s.pendingTasks(), 4u);
    throwOnError(false);
}

TEST(Simulator, DestroyingMidRunFreesBlockedRoots)
{
    throwOnError(true);
    int freed = 0;
    struct Guard
    {
        int *count;
        ~Guard() { ++*count; }
    };
    {
        Simulator s;
        s.setEventLimit(10);
        Trigger never(s);
        auto blocked = [&]() -> Task<void> {
            Guard g{&freed};
            co_await never.wait();
        };
        auto ticking = [&]() -> Task<void> {
            Guard g{&freed};
            for (;;)
                co_await s.delay(1 * NS);
        };
        for (int i = 0; i < 3; ++i)
            s.spawn(blocked());
        s.spawn(ticking());
        // Stop mid-run with events still queued and every root parked.
        EXPECT_THROW(s.run(), PanicError);
        EXPECT_EQ(freed, 0);
        EXPECT_EQ(s.pendingTasks(), 4u);
    }
    EXPECT_EQ(freed, 4);
    throwOnError(false);
}

TEST(Simulator, RootsHeldDoNotGrowWithRootsSpawned)
{
    Simulator s;
    constexpr int kRoots = 100000;
    int done = 0;
    auto leaf = [&]() -> Task<void> {
        ++done;
        co_return;
    };
    auto driver = [&]() -> Task<void> {
        co_await s.delay(1 * US);
        for (int i = 0; i < kRoots; ++i)
            s.spawn(leaf());
    };
    s.spawn(driver());
    s.run();
    EXPECT_EQ(done, kRoots);
    EXPECT_EQ(s.tasksSpawned(), static_cast<std::uint64_t>(kRoots) + 1);
    // The driver plus the one leaf in flight, whatever kRoots is.
    EXPECT_EQ(s.rootsHighWater(), 2u);
}

} // namespace
} // namespace ccsim::sim
