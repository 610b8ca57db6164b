/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are (time, sequence, callback) triples kept in a calendar
 * queue: a window of fixed-width time buckets walked by a cursor,
 * with a spillover list for events beyond the window.  Scheduling
 * appends to a bucket unsorted in O(1); a bucket is sorted lazily,
 * once, when the cursor reaches it.  The sequence number makes
 * ordering *stable*: two events scheduled for the same simulated
 * instant fire in the order they were scheduled, which keeps runs
 * bit-reproducible regardless of queue internals.  (The previous
 * implementation was a binary heap; profiling showed sift-up/down
 * entry shuffling near the top of the sweep profile, and the
 * calendar layout turns the common schedule patterns — "resume at
 * now" and "deliver a short delay ahead" — into plain appends.)
 *
 * Ordering contract (pinned by the byte-identity determinism
 * suites): runNext() fires pending events in ascending (time, seq)
 * order, where seq is assignment order.  Scheduling before the last
 * fired time panics, so simulated time is monotone; the calendar
 * exploits that by never revisiting a bucket it has walked past
 * within a window.
 *
 * Callbacks are sim::SmallFn rather than std::function: the vast
 * majority capture a coroutine handle or a message plus a pointer
 * and are stored inline in the entry, so scheduling an event costs
 * no allocation.
 *
 * Storage follows the events in flight, not the run's history.  A
 * bucket's capacity is kBucketReserve entries or that doubled k
 * times.  Storage up to the reserve is a frame-pool block
 * (PoolAlloc), kept by its bucket; larger storage is an oversize heap
 * block.  When the cursor walks past a bucket, storage above the
 * reserve goes to a spare list, and the next bucket that outgrows its
 * own storage takes a spare of exactly the capacity it needs.  So a
 * run that repeats its pattern window after window makes no heap call
 * once the spares cover it.  The spare list holds at most
 * 8 x maxDepth() entries.  A bucket's storage is at most twice its
 * entries, or four times its pending ones for the cursor bucket,
 * which drops its consumed prefix before it grows once half of it
 * has fired.
 */

#ifndef CCSIM_SIM_EVENT_QUEUE_HH
#define CCSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/pool.hh"
#include "sim/small_fn.hh"
#include "util/units.hh"

namespace ccsim::sim {

/** Stable-ordered time-sorted event queue (calendar queue). */
class EventQueue
{
  public:
    using Callback = SmallFn;

    EventQueue();

    /**
     * Enqueue a callback to fire at absolute time @p when.  Scheduling
     * in the past (before the last popped event's time) is a bug in
     * the caller and panics.
     */
    void schedule(Time when, Callback cb);

    /**
     * Enqueue a callback at the last fired time — the parked-coroutine
     * resume path.  Equivalent to schedule(lastFired(), cb) but skips
     * the cannot-be-in-the-past check by construction.
     */
    void scheduleNow(Callback cb);

    /**
     * Enqueue @p n callbacks all firing at @p when, in factory order
     * (@p make is called with 0..n-1 and returns each Callback).  One
     * capacity reservation covers the whole batch — the fan-out shape
     * collectives emit when a trigger releases many waiters at once.
     */
    template <typename MakeCb>
    void
    scheduleBatchAt(Time when, std::size_t n, MakeCb &&make)
    {
        reserveFor(when, n);
        for (std::size_t i = 0; i < n; ++i)
            schedule(when, make(i));
    }

    /**
     * Capacity hint: the caller expects up to @p events pending at
     * once.  Widens the bucket array (about one bucket per four
     * events, at most 1024 buckets), so a dense run spreads over more
     * buckets.  Only effective while the queue is empty, since the
     * bucket mapping cannot change mid-flight.  Reserves no entry
     * storage.
     */
    void reserve(std::size_t events);

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Time of the earliest pending event; queue must be non-empty. */
    Time nextTime() const;

    /**
     * Pop and run the earliest event.  Returns the time it fired at.
     * Queue must be non-empty.
     */
    Time runNext();

    /** Time of the most recently fired event (0 before any fire). */
    Time lastFired() const { return last_fired_; }

    /** Total events executed over the queue's lifetime. */
    std::uint64_t fired() const { return fired_; }

    /** Largest number of simultaneously pending events ever seen. */
    std::size_t maxDepth() const { return max_depth_; }

    /** Entry slots held now: every bucket's capacity, the spillover
     *  list's, and the spare storage kept for reuse. */
    std::size_t retainedCapacity() const { return cap_; }

    /** Largest retainedCapacity() over the queue's lifetime. */
    std::size_t capacityHighWater() const { return cap_hw_; }

    /** Entry slots a walked bucket keeps (one frame-pool block). */
    static constexpr std::size_t kBucketReserve = 16;

  private:
    struct Entry
    {
        Time when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Bucket storage draws from the thread-local frame pool. */
    using Bucket = std::vector<Entry, PoolAlloc<Entry>>;

    /** True when @p a fires strictly before @p b. */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Bucket index of @p when; entries before the window origin
     *  clamp to bucket 0 (they sort first inside it anyway). */
    std::size_t
    bucketOf(Time when) const
    {
        if (when <= origin_)
            return 0;
        return static_cast<std::size_t>((when - origin_) >> width_bits_);
    }

    void insert(Entry e);
    void insertSortedCur(Entry e);
    void ensureSortedCur();
    void settle();
    void advanceWindow();
    void reserveFor(Time when, std::size_t n);

    /** Append @p e to @p bk, growing it through makeRoom. */
    void push(Bucket &bk, Entry &&e);
    /** Make room in @p bk for @p extra more entries (see the file
     *  comment for the growth rule). */
    void makeRoom(Bucket &bk, std::size_t extra);
    /** Empty a walked bucket; storage above the reserve is recycled. */
    void release(Bucket &bk);
    /** Storage of exactly @p cap entries: a spare, or a new block. */
    Bucket takeStorage(std::size_t cap);
    /** Keep @p b (empty) as a spare, or free it. */
    void recycle(Bucket &b);

    std::vector<Bucket> buckets_;
    std::vector<unsigned char> sorted_; //!< per-bucket "is sorted" flag
    Bucket overflow_;                   //!< events beyond the window
    std::vector<Bucket> spares_;        //!< recycled storage, all empty
    std::size_t spare_cap_ = 0;         //!< entry slots in spares_
    std::size_t cap_ = 0;               //!< retainedCapacity()
    std::size_t cap_hw_ = 0;
    std::size_t nb_ = 0;                //!< bucket count (power of two)
    int width_bits_ = 18;               //!< log2 bucket width (ps)
    Time origin_ = 0;                   //!< window start time
    std::size_t cur_ = 0;               //!< cursor bucket
    std::size_t pos_ = 0;               //!< consumed prefix of cur_
    std::size_t size_ = 0;

    std::uint64_t next_seq_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t max_depth_ = 0;
    Time last_fired_ = 0;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_EVENT_QUEUE_HH
