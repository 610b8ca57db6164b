/**
 * @file
 * The Simulator: event loop, coroutine spawning, and the blocking
 * primitives rank programs co_await.
 *
 * Usage:
 * @code
 *     sim::Simulator s;
 *     s.spawn(myProgram(s));
 *     s.run();                     // drains the event queue
 * @endcode
 *
 * Spawned tasks run until they block; "blocking" means parking the
 * coroutine handle and scheduling its resumption from an event.  If
 * the queue drains while spawned tasks are still incomplete, the run
 * is deadlocked (e.g. a receive nobody will ever match) and run()
 * panics.
 *
 * A spawned root's frame is freed as soon as it finishes without an
 * exception, so a run's memory follows the roots still in flight, not
 * how many were ever spawned.  Roots that threw (run() rethrows the
 * first) and roots left blocked are destroyed with the Simulator.
 */

#ifndef CCSIM_SIM_SIMULATOR_HH
#define CCSIM_SIM_SIMULATOR_HH

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace ccsim::sim {

class Simulator;

/**
 * What a blocking primitive resumes when it completes: a suspended
 * coroutine, or one step of a frame-free state machine (a function
 * and its state).  Two words, no allocation; a coroutine handle
 * converts implicitly, so every awaiter that parks a handle parks a
 * Continuation instead, and a state machine can wait on the same
 * awaiters without a coroutine frame of its own.
 */
class Continuation
{
  public:
    Continuation() = default;

    template <typename P>
    Continuation(std::coroutine_handle<P> h) // NOLINT: implicit by design
        : arg_(h.address())
    {
    }

    /** Run @p fn (@p state) on completion. */
    Continuation(void (*fn)(void *), void *state) : fn_(fn), arg_(state)
    {
    }

    explicit operator bool() const { return arg_ != nullptr; }

    /** Resume the coroutine, or run the step, inline. */
    void
    operator()() const
    {
        if (fn_)
            fn_(arg_);
        else
            std::coroutine_handle<>::from_address(arg_).resume();
    }

  private:
    void (*fn_)(void *) = nullptr; //!< null: arg_ is a coroutine frame
    void *arg_ = nullptr;
};

/** Awaitable that resumes the caller after a fixed simulated delay. */
class DelayAwaiter
{
  public:
    DelayAwaiter(Simulator &sim, Time d) : sim_(sim), delay_(d) {}

    bool await_ready() const noexcept { return delay_ == 0; }
    void await_suspend(std::coroutine_handle<> h) const;
    void await_resume() const noexcept {}

  private:
    Simulator &sim_;
    Time delay_;
};

/**
 * Awaitable built from a callable that receives the suspended
 * coroutine handle; the callable is responsible for arranging the
 * handle's eventual resumption (via Simulator::resumeAt /
 * resumeNow).  This is the hook the messaging layer uses to park a
 * receiver until a matching message arrives.
 */
template <typename F>
class SuspendWith
{
  public:
    explicit SuspendWith(F f) : f_(std::move(f)) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { f_(h); }
    void await_resume() const noexcept {}

  private:
    F f_;
};

template <typename F>
SuspendWith<F>
suspendWith(F f)
{
    return SuspendWith<F>(std::move(f));
}

/**
 * One-shot broadcast trigger.  Coroutines co_await wait(); fire()
 * releases all current and future waiters (awaiting a fired trigger
 * completes immediately).  Used for rendezvous handshakes and the
 * hardwired barrier service.
 */
class Trigger
{
  public:
    explicit Trigger(Simulator &sim) : sim_(sim) {}

    Trigger(const Trigger &) = delete;
    Trigger &operator=(const Trigger &) = delete;

    /** True once fire() has been called. */
    bool fired() const { return fired_; }

    /** Release all waiters (resumed via the event queue at now). */
    void fire();

    class Awaiter
    {
      public:
        explicit Awaiter(Trigger &t) : trigger_(t) {}

        bool await_ready() const noexcept { return trigger_.fired_; }
        void await_suspend(Continuation k);
        void await_resume() const noexcept {}

      private:
        Trigger &trigger_;
    };

    /** Awaitable that completes when (or immediately after) fire(). */
    Awaiter wait() { return Awaiter(*this); }

  private:
    friend class Awaiter;

    Simulator &sim_;
    bool fired_ = false;
    /** Inline slot for the overwhelmingly common single waiter
     *  (request completion, rendezvous CTS/DATA); only a broadcast
     *  fan-out (hardware barrier) spills into the vector, whose
     *  storage is pooled. */
    Continuation first_;
    std::vector<Continuation, PoolAlloc<Continuation>> spill_;
};

/** Event loop + task lifetime management. */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Time now() const { return queue_.lastFired(); }

    /** The underlying event queue. */
    EventQueue &queue() { return queue_; }

    /** Schedule a callback @p delay after now. */
    void
    schedule(Time delay, EventQueue::Callback cb)
    {
        queue_.schedule(now() + delay, std::move(cb));
    }

    /** Schedule a callback at absolute time @p when. */
    void
    scheduleAt(Time when, EventQueue::Callback cb)
    {
        queue_.schedule(when, std::move(cb));
    }

    /** Schedule a callback at the current time, after every event
     *  already pending for it (the queue's append-at-now path). */
    void
    scheduleNow(EventQueue::Callback cb)
    {
        queue_.scheduleNow(std::move(cb));
    }

    /** Resume a parked coroutine (or state machine) at absolute time
     *  @p when. */
    void
    resumeAt(Time when, Continuation k)
    {
        queue_.schedule(when, [k] { k(); });
    }

    /** Resume a parked coroutine (or state machine) at the current
     *  time (via the queue, so ordering against other now-events
     *  stays stable).  Uses the queue's append-at-now fast path
     *  rather than re-deriving now() and re-checking it against
     *  itself. */
    void
    resumeNow(Continuation k)
    {
        queue_.scheduleNow([k] { k(); });
    }

    /** Awaitable: suspend the caller for @p d simulated time. */
    DelayAwaiter delay(Time d) { return DelayAwaiter(*this, d); }

    /**
     * Root a task into the simulator.  The task starts running at the
     * current time (it executes until its first block immediately).
     * The simulator owns the frame from here on and frees it when the
     * task finishes without an exception.
     */
    void spawn(Task<void> task);

    /**
     * Run until the event queue drains.  Panics on deadlock (tasks
     * still pending with an empty queue) and rethrows the first
     * exception, in spawn order, escaping any spawned task.
     */
    void run();

    /** Number of spawned tasks that have not yet completed. */
    std::size_t pendingTasks() const { return roots_.unfinished(); }

    /** Total events executed. */
    std::uint64_t eventsFired() const { return queue_.fired(); }

    /** Total tasks ever spawned (completed ones included). */
    std::uint64_t tasksSpawned() const { return roots_.adopted(); }

    /** Most root tasks held at once: running, blocked, or failed and
     *  awaiting rethrow.  Finished roots are freed, so this follows
     *  in-flight work, not the number of tasks ever spawned. */
    std::size_t rootsHighWater() const { return roots_.highWater(); }

    /**
     * Safety valve: panic if a single run() executes more than this
     * many events (runaway-loop guard).  Zero disables the check.
     */
    void setEventLimit(std::uint64_t limit) { event_limit_ = limit; }

  private:
    EventQueue queue_;
    detail::RootSet roots_;
    std::uint64_t event_limit_ = 0;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_SIMULATOR_HH
