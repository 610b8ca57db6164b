/**
 * @file
 * Allocation pools for the simulation hot path.
 *
 * Profiling the sweep engine (see DESIGN.md §4.11) shows ~560 heap
 * allocations per sweep point, dominated by coroutine frames and the
 * per-operation request/handshake objects — at ~60 us per point the
 * allocator IS the hot path.  Two pools remove almost all of it:
 *
 *  - FramePool: a thread-local size-class freelist that Task's
 *    promise types allocate coroutine frames from.  Frames are
 *    created and destroyed at an enormous rate but only a handful of
 *    distinct sizes exist, so a freelist turns every frame
 *    allocation after warm-up into a pointer pop.  It keeps every
 *    released block until the run's Machine is gone, then trims
 *    back to a fixed reserve.
 *
 *  - Pool<T> / PoolPtr<T>: an intrusive-refcount object pool used by
 *    the transport for its ReqState / Handshake completion objects,
 *    replacing std::make_shared.  Like the simulator itself it is
 *    single-threaded: a pool and all PoolPtrs into it must stay on
 *    one thread, and the pool must outlive its pointers (the
 *    transport owns its pools, and Requests already must not outlive
 *    their Machine because ReqState references the Simulator).
 *
 * Under AddressSanitizer, free slots are poisoned while parked on a
 * freelist and unpoisoned on reuse, so use-after-release bugs in
 * pooled objects are still caught.
 */

#ifndef CCSIM_SIM_POOL_HH
#define CCSIM_SIM_POOL_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define CCSIM_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCSIM_POOL_ASAN 1
#endif
#endif

#ifdef CCSIM_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ccsim::sim {

/** Poison a parked freelist region under ASan (no-op otherwise). */
inline void
poolPoison(void *p, std::size_t n)
{
#ifdef CCSIM_POOL_ASAN
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/** Re-arm a recycled region for use under ASan (no-op otherwise). */
inline void
poolUnpoison(void *p, std::size_t n)
{
#ifdef CCSIM_POOL_ASAN
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/** Allocation counters of a pool (monotonic over its lifetime). */
struct PoolCounters
{
    std::uint64_t reuses = 0;   //!< served from the freelist
    std::uint64_t allocs = 0;   //!< fell through to the heap
    std::uint64_t oversize = 0; //!< larger than any size class
    /** FramePool only: bytes of the size-class blocks it took from
     *  the heap (from a trimmed pool, a run's peak of live state). */
    std::uint64_t alloc_bytes = 0;
};

/**
 * Thread-local size-class freelist for coroutine frames.
 *
 * Sizes are rounded up to kGranule-byte classes; blocks above the
 * largest class (or over-aligned frames, which never reach a promise
 * operator new without an align_val_t overload) go straight to the
 * global heap.
 *
 * During a run every released block is parked, so a class's heap
 * allocations stop once it has reached the run's peak of live
 * blocks: a p = 16384 run churns millions of frames through a few
 * hundred thousand blocks instead of handing most of them back to
 * malloc and asking again.  trim() returns each class to kReserve
 * parked blocks; msg::Fabric calls it when a Machine is torn down
 * (the last pool user to go), so an idle thread holds no more than
 * the reserve however large its last run was.
 */
class FramePool
{
  public:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kClasses = 40; //!< up to 2560 bytes
    static constexpr std::size_t kReserve = 512; //!< kept per class by trim

    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    ~FramePool() { trim(0); }

    /** Hand parked blocks back to the heap until every class holds
     *  at most @p keep. */
    void
    trim(std::size_t keep = kReserve) noexcept
    {
        for (std::size_t c = 0; c < kClasses; ++c) {
            while (parked_[c] > keep) {
                Node *n = free_[c];
                free_[c] = n->next;
                --parked_[c];
                poolUnpoison(n, bytesFor(c));
                ::operator delete(n);
            }
        }
    }

    void *
    allocate(std::size_t n)
    {
        std::size_t c = classFor(n);
        if (c >= kClasses) {
            ++counters_.oversize;
            return ::operator new(n);
        }
        if (Node *head = free_[c]) {
            free_[c] = head->next;
            --parked_[c];
            ++counters_.reuses;
            poolUnpoison(reinterpret_cast<char *>(head) + sizeof(Node),
                         bytesFor(c) - sizeof(Node));
            return head;
        }
        ++counters_.allocs;
        counters_.alloc_bytes += bytesFor(c);
        return ::operator new(bytesFor(c));
    }

    void
    release(void *p, std::size_t n) noexcept
    {
        std::size_t c = classFor(n);
        if (c >= kClasses) {
            ::operator delete(p);
            return;
        }
        Node *node = static_cast<Node *>(p);
        node->next = free_[c];
        free_[c] = node;
        ++parked_[c];
        // The link word stays readable; everything past it is armed.
        poolPoison(static_cast<char *>(p) + sizeof(Node),
                   bytesFor(c) - sizeof(Node));
    }

    const PoolCounters &counters() const { return counters_; }

    /** Blocks parked in size class @p c (c < kClasses). */
    std::size_t parked(std::size_t c) const { return parked_[c]; }

  private:
    struct Node
    {
        Node *next;
    };

    static std::size_t classFor(std::size_t n)
    {
        return n == 0 ? 0 : (n - 1) / kGranule;
    }

    static std::size_t bytesFor(std::size_t c)
    {
        return (c + 1) * kGranule;
    }

    Node *free_[kClasses] = {};
    std::size_t parked_[kClasses] = {};
    PoolCounters counters_;
};

/** The calling thread's coroutine-frame pool. */
inline FramePool &
framePool() noexcept
{
    thread_local FramePool pool;
    return pool;
}

/**
 * Standard-allocator shim over the thread-local FramePool, for the
 * small hot-path vectors (event buckets, trigger waiter spill,
 * transport match queues).  All instances compare equal; memory
 * must be released on the thread that will reuse it (true for the
 * simulator, which is single-threaded per Machine).
 */
template <typename T>
struct PoolAlloc
{
    using value_type = T;

    PoolAlloc() noexcept = default;

    template <typename U>
    PoolAlloc(const PoolAlloc<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(framePool().allocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        framePool().release(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PoolAlloc<U> &) const noexcept
    {
        return true;
    }
};

template <typename T>
class PoolPtr;

/**
 * Freelist of embedded-refcount slots for one object type.
 * Single-threaded; make() returns a PoolPtr that recycles the slot
 * when the last copy drops.
 *
 * Slot memory comes from the thread's FramePool rather than the
 * global heap: pools are short-lived (one per Transport, one
 * Transport per node per Machine, one Machine per sweep point), so
 * without the shared backing every fresh Machine would re-pay one
 * heap allocation per in-flight request.  Through the FramePool the
 * slots a destroyed Machine parks are the ones the next Machine's
 * pools pick up.
 */
template <typename T>
class Pool
{
  public:
    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        Slot *s = free_;
        while (s) {
            poolUnpoison(s, sizeof(Slot));
            Slot *next = getNext(s);
            framePool().release(s, sizeof(Slot));
            s = next;
        }
    }

    /** Construct a T in a recycled (or fresh) slot. */
    template <typename... A>
    PoolPtr<T>
    make(A &&...args)
    {
        static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "Slot must not be over-aligned: the FramePool "
                      "hands out default-aligned blocks");
        Slot *s = free_;
        if (s) {
            poolUnpoison(s, sizeof(Slot));
            free_ = getNext(s);
            ++counters_.reuses;
        } else {
            s = static_cast<Slot *>(framePool().allocate(sizeof(Slot)));
            ++counters_.allocs;
        }
        s->refs = 1;
        s->pool = this;
        ::new (static_cast<void *>(s->storage)) T(std::forward<A>(args)...);
        return PoolPtr<T>(s);
    }

    const PoolCounters &counters() const { return counters_; }

  private:
    friend class PoolPtr<T>;

    struct Slot
    {
        std::uint32_t refs = 0;
        Pool *pool = nullptr;
        alignas(T) unsigned char storage[sizeof(T) < sizeof(void *)
                                             ? sizeof(void *)
                                             : sizeof(T)];
    };

    // While parked, the first storage bytes hold the freelist link
    // (type-punned via memcpy: the T has been destroyed).
    static Slot *
    getNext(Slot *s)
    {
        Slot *n;
        std::memcpy(&n, s->storage, sizeof n);
        return n;
    }

    static void
    setNext(Slot *s, Slot *n)
    {
        std::memcpy(s->storage, &n, sizeof n);
    }

    static T *
    obj(Slot *s)
    {
        return std::launder(reinterpret_cast<T *>(s->storage));
    }

    void
    recycle(Slot *s) noexcept
    {
        obj(s)->~T();
        setNext(s, free_);
        free_ = s;
        poolPoison(s, sizeof(Slot));
        poolUnpoison(s->storage, sizeof(Slot *)); // keep the link live
    }

    Slot *free_ = nullptr;
    PoolCounters counters_;
};

/** Shared handle to a pooled object (single-threaded refcount). */
template <typename T>
class PoolPtr
{
  public:
    PoolPtr() = default;

    PoolPtr(const PoolPtr &o) noexcept : s_(o.s_)
    {
        if (s_)
            ++s_->refs;
    }

    PoolPtr(PoolPtr &&o) noexcept : s_(o.s_) { o.s_ = nullptr; }

    PoolPtr &
    operator=(const PoolPtr &o) noexcept
    {
        if (this != &o) {
            reset();
            s_ = o.s_;
            if (s_)
                ++s_->refs;
        }
        return *this;
    }

    PoolPtr &
    operator=(PoolPtr &&o) noexcept
    {
        if (this != &o) {
            reset();
            s_ = o.s_;
            o.s_ = nullptr;
        }
        return *this;
    }

    ~PoolPtr() { reset(); }

    void
    reset() noexcept
    {
        if (s_ && --s_->refs == 0)
            s_->pool->recycle(s_);
        s_ = nullptr;
    }

    T *get() const noexcept { return s_ ? Pool<T>::obj(s_) : nullptr; }
    T &operator*() const noexcept { return *Pool<T>::obj(s_); }
    T *operator->() const noexcept { return Pool<T>::obj(s_); }
    explicit operator bool() const noexcept { return s_ != nullptr; }

  private:
    friend class Pool<T>;

    explicit PoolPtr(typename Pool<T>::Slot *s) noexcept : s_(s) {}

    typename Pool<T>::Slot *s_ = nullptr;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_POOL_HH
