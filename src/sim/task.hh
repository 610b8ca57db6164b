/**
 * @file
 * Task<T>: the lazy coroutine type all simulated programs are written
 * in.
 *
 * A Task is created suspended; awaiting it starts the child via
 * symmetric transfer, and when the child finishes its final awaiter
 * transfers control straight back to the awaiting parent.  Exceptions
 * thrown inside a task are captured and rethrown from the parent's
 * co_await.  Tasks are move-only and own their coroutine frame,
 * except a task handed to Simulator::spawn: that root's frame is owned
 * by the simulator's RootSet and freed the moment the root finishes
 * without an exception (see RootSet below).
 *
 * Rank programs block by co_awaiting primitives (delays, message
 * arrivals, barrier releases) that park the coroutine handle and
 * resume it from a scheduled simulator event, so "time passes" for a
 * program exactly when the event queue says it does.  The primitives
 * are plain awaiters, not Tasks, and so is everything the eager
 * message path awaits: a CPU charge (msg::Transport::busy), a request
 * completion (msg::Transport::wait) and the blocking send, recv and
 * sendrecv, whose eager protocol runs as callbacks on a pooled
 * request slot.  Blocking on them costs no frame.  Only the
 * rendezvous handshake and the lossy-wire protocol, reached above the
 * eager threshold or when faults can drop messages, are Task
 * coroutines (spawned as roots).
 */

#ifndef CCSIM_SIM_TASK_HH
#define CCSIM_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "sim/pool.hh"
#include "util/logging.hh"

namespace ccsim::sim {

template <typename T>
class Task;

namespace detail {

class RootSet;

/** State shared by Task promises independent of the result type. */
struct PromiseBase
{
    /**
     * Coroutine frames come from the thread-local FramePool: rank
     * programs create and destroy frames at the highest rate of
     * anything in the simulator, and only a handful of distinct
     * frame sizes exist, so a size-class freelist turns frame churn
     * into pointer pops.  Only the sized delete is defined — the
     * coroutine machinery prefers it when both are visible, and the
     * pool needs the size to find the class.
     */
    static void *
    operator new(std::size_t n)
    {
        return framePool().allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        framePool().release(p, n);
    }

    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    /** Set only on a spawned root: the set that owns its frame, and
     *  its slot there. */
    RootSet *root_set = nullptr;
    std::size_t root_slot = 0;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) const noexcept
        {
            auto &p = h.promise();
            if (p.continuation)
                return p.continuation;
            // A root that finished cleanly frees its own frame here;
            // nothing may touch h or this awaiter afterwards.  A root
            // that threw stays parked so Simulator::run() can rethrow.
            if (p.root_set && !p.exception)
                p.root_set->reap(p.root_slot);
            return std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() const noexcept { return {}; }

    void unhandled_exception() { exception = std::current_exception(); }
};

} // namespace detail

/**
 * A lazily-started coroutine returning a value of type T (or void).
 */
template <typename T>
class Task
{
  public:
    struct promise_type : detail::PromiseBase
    {
        std::optional<T> value;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        template <typename U>
        void
        return_value(U &&v)
        {
            value.emplace(std::forward<U>(v));
        }
    };

    Task() = default;

    Task(Task &&other) noexcept : handle_(other.handle_)
    {
        other.handle_ = nullptr;
    }

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = other.handle_;
            other.handle_ = nullptr;
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** True when this Task owns a coroutine frame. */
    bool valid() const { return handle_ != nullptr; }

    /** True once the coroutine has run to completion. */
    bool done() const { return handle_ && handle_.done(); }

    struct Awaiter
    {
        std::coroutine_handle<promise_type> handle;

        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) const noexcept
        {
            handle.promise().continuation = parent;
            return handle; // start the child
        }

        T
        await_resume() const
        {
            auto &p = handle.promise();
            if (p.exception)
                std::rethrow_exception(p.exception);
            return std::move(*p.value);
        }
    };

    Awaiter
    operator co_await() &&
    {
        if (!handle_)
            panic("co_await on an empty Task");
        return Awaiter{handle_};
    }

    /** Raw handle access for the spawning machinery. */
    std::coroutine_handle<promise_type> handle() const { return handle_; }

  private:
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

/** Specialization for coroutines that produce no value. */
template <>
class Task<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() const noexcept {}
    };

    Task() = default;

    Task(Task &&other) noexcept : handle_(other.handle_)
    {
        other.handle_ = nullptr;
    }

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = other.handle_;
            other.handle_ = nullptr;
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return handle_ && handle_.done(); }

    struct Awaiter
    {
        std::coroutine_handle<promise_type> handle;

        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) const noexcept
        {
            handle.promise().continuation = parent;
            return handle;
        }

        void
        await_resume() const
        {
            auto &p = handle.promise();
            if (p.exception)
                std::rethrow_exception(p.exception);
        }
    };

    Awaiter
    operator co_await() &&
    {
        if (!handle_)
            panic("co_await on an empty Task");
        return Awaiter{handle_};
    }

    std::coroutine_handle<promise_type> handle() const { return handle_; }

  private:
    friend class Simulator;

    /** Give up ownership of the frame (Simulator::spawn hands it to a
     *  RootSet). */
    std::coroutine_handle<promise_type>
    release()
    {
        return std::exchange(handle_, nullptr);
    }

    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

namespace detail {

/**
 * The root tasks a Simulator owns.  A root leaves the set, and its
 * frame is freed, from its own final awaiter as soon as it finishes
 * without an exception.  The set therefore holds only roots that are
 * still running or blocked, plus roots that threw (kept so that
 * Simulator::run() can rethrow the first of them).  Memory is bounded
 * by in-flight work, not by how many roots a run has ever spawned:
 * every rendezvous or lossy-wire protocol run is a root, and its
 * finished frame would otherwise pin its request state too.
 */
class RootSet
{
  public:
    using Handle = std::coroutine_handle<Task<void>::promise_type>;

    RootSet() = default;
    RootSet(const RootSet &) = delete;
    RootSet &operator=(const RootSet &) = delete;

    /** Destroys every root still held (blocked or failed). */
    ~RootSet()
    {
        for (Entry &e : entries_)
            e.handle.destroy();
    }

    /** Take ownership of a not-yet-started root frame. */
    void
    adopt(Handle h)
    {
        auto &p = h.promise();
        p.root_set = this;
        p.root_slot = entries_.size();
        entries_.push_back(Entry{h, adopted_++});
        if (entries_.size() > high_water_)
            high_water_ = entries_.size();
    }

    /** Drop the finished root in @p slot and destroy its frame. */
    void
    reap(std::size_t slot) noexcept
    {
        Handle h = entries_[slot].handle;
        if (slot + 1 != entries_.size()) {
            entries_[slot] = entries_.back();
            entries_[slot].handle.promise().root_slot = slot;
        }
        entries_.pop_back();
        h.destroy();
    }

    /** Roots not yet finished (running or blocked). */
    std::size_t
    unfinished() const
    {
        std::size_t n = 0;
        for (const Entry &e : entries_)
            if (!e.handle.done())
                ++n;
        return n;
    }

    /** The exception of the earliest-adopted root that threw, if any
     *  (slots are reordered by reaping, so order comes from seq). */
    std::exception_ptr
    firstException() const
    {
        const Entry *first = nullptr;
        for (const Entry &e : entries_)
            if (e.handle.promise().exception &&
                (!first || e.seq < first->seq))
                first = &e;
        return first ? first->handle.promise().exception : nullptr;
    }

    /** Roots adopted over the set's lifetime. */
    std::uint64_t adopted() const { return adopted_; }

    /** Most roots held at once over the set's lifetime. */
    std::size_t highWater() const { return high_water_; }

  private:
    struct Entry
    {
        Handle handle;
        std::uint64_t seq; //!< adoption order
    };

    std::vector<Entry> entries_;
    std::uint64_t adopted_ = 0;
    std::size_t high_water_ = 0;
};

} // namespace detail

} // namespace ccsim::sim

#endif // CCSIM_SIM_TASK_HH
