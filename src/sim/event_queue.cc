#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace ccsim::sim {

namespace {

/** Smallest power of two >= @p n (n >= 1). */
std::size_t
pow2AtLeast(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/**
 * Spare storage is capped at this many times maxDepth().  A bucket
 * that doubled its way up to capacity N leaves spares summing to about
 * 2N, and a window fills several buckets.  A cap of 8 lets a run
 * that repeats its pattern reuse every block (with 2, a fat-tree
 * barrier still asked the heap for bucket storage every iteration),
 * while the spares stay a fixed multiple of the deepest backlog.
 */
constexpr std::size_t kSpareDepths = 8;

/** Storage capacity for @p n entries: the reserve, doubled as needed. */
std::size_t
capacityFor(std::size_t n)
{
    std::size_t c = EventQueue::kBucketReserve;
    while (c < n)
        c <<= 1;
    return c;
}

} // namespace

EventQueue::EventQueue()
{
    nb_ = 64;
    buckets_.resize(nb_);
    sorted_.assign(nb_, 1);
}

void
EventQueue::reserve(std::size_t events)
{
    if (size_ == 0 && events / 4 + 1 > nb_) {
        nb_ = std::min<std::size_t>(pow2AtLeast(events / 4 + 1), 1024);
        buckets_.resize(nb_);
        sorted_.assign(nb_, 1);
        cur_ = 0;
        pos_ = 0;
    }
}

void
EventQueue::schedule(Time when, Callback cb)
{
    if (when < last_fired_)
        panic("EventQueue::schedule: time %lld before current time %lld",
              static_cast<long long>(when),
              static_cast<long long>(last_fired_));
    if (!cb)
        panic("EventQueue::schedule: empty callback");
    insert(Entry{when, next_seq_++, std::move(cb)});
}

void
EventQueue::scheduleNow(Callback cb)
{
    if (!cb)
        panic("EventQueue::scheduleNow: empty callback");
    insert(Entry{last_fired_, next_seq_++, std::move(cb)});
}

void
EventQueue::insert(Entry e)
{
    if (size_ == 0) {
        // Empty queue: re-anchor the window at this event, bucket 0.
        // All buckets are empty here (the last pop clears its bucket).
        origin_ = e.when;
        cur_ = 0;
        pos_ = 0;
        push(buckets_[0], std::move(e));
        sorted_[0] = 1;
    } else {
        std::size_t b = bucketOf(e.when);
        if (b >= nb_) {
            push(overflow_, std::move(e));
        } else if (b == cur_) {
            Bucket &bk = buckets_[cur_];
            if (pos_ == 0) {
                // Nothing consumed from this bucket yet: a plain
                // append suffices, sorting is deferred to first
                // access.  In-order arrivals keep the flag set so
                // the deferred sort is usually skipped entirely.
                if (sorted_[cur_] && !bk.empty() &&
                    earlier(e, bk.back()))
                    sorted_[cur_] = 0;
                push(bk, std::move(e));
            } else {
                // Mid-consumption the bucket is sorted past pos_;
                // keep it that way.
                insertSortedCur(std::move(e));
            }
        } else if (b > cur_) {
            Bucket &bk = buckets_[b];
            push(bk, std::move(e));
            if (bk.size() > 1)
                sorted_[b] = 0;
        } else {
            // Earlier than the cursor's bucket.  Possible only when
            // nothing has been consumed from the cursor bucket yet
            // (events fired from it would have advanced last_fired_
            // past this one), so pos_ is 0 and walking the cursor
            // back is safe: every bucket in [b, cur_) is empty.
            cur_ = b;
            pos_ = 0;
            push(buckets_[b], std::move(e));
            sorted_[b] = 1;
        }
    }
    ++size_;
    if (size_ > max_depth_)
        max_depth_ = size_;
}

void
EventQueue::insertSortedCur(Entry e)
{
    // The cursor bucket is always sorted past its consumed prefix;
    // keep it that way.  Same-instant entries carry the largest seq
    // so the common "resume at now" case appends at the tail.
    Bucket &bk = buckets_[cur_];
    makeRoom(bk, 1); // may drop the consumed prefix, moving pos_
    auto it = std::upper_bound(
        bk.begin() + static_cast<std::ptrdiff_t>(pos_), bk.end(), e,
        [](const Entry &a, const Entry &b) { return earlier(a, b); });
    bk.insert(it, std::move(e));
}

void
EventQueue::reserveFor(Time when, std::size_t n)
{
    // An empty queue re-anchors its window at the first insert, which
    // lands in bucket 0.
    std::size_t b = size_ == 0 ? 0 : bucketOf(when);
    makeRoom(b >= nb_ ? overflow_ : buckets_[b], n);
}

void
EventQueue::push(Bucket &bk, Entry &&e)
{
    if (bk.size() == bk.capacity())
        makeRoom(bk, 1);
    bk.push_back(std::move(e));
}

void
EventQueue::makeRoom(Bucket &bk, std::size_t extra)
{
    if (bk.size() + extra <= bk.capacity())
        return;
    if (&bk == &buckets_[cur_] && pos_ > 0 && 2 * pos_ >= bk.size()) {
        // The cursor bucket is at least half consumed: drop the fired
        // prefix instead of growing, so a bucket that keeps receiving
        // "now" events holds its pending entries, not its history.
        // Each entry moves at most once per halving, O(1) amortized.
        bk.erase(bk.begin(), bk.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
        if (bk.size() + extra <= bk.capacity())
            return;
    }
    Bucket next = takeStorage(capacityFor(bk.size() + extra));
    next.insert(next.end(), std::make_move_iterator(bk.begin()),
                std::make_move_iterator(bk.end()));
    next.swap(bk);
    next.clear();
    recycle(next);
}

void
EventQueue::release(Bucket &bk)
{
    bk.clear();
    if (bk.capacity() > kBucketReserve) {
        Bucket old;
        old.swap(bk);
        recycle(old);
    }
}

EventQueue::Bucket
EventQueue::takeStorage(std::size_t cap)
{
    // Spares are all above the reserve (recycle frees smaller blocks).
    for (std::size_t i = 0; cap > kBucketReserve && i < spares_.size(); ++i) {
        if (spares_[i].capacity() != cap)
            continue;
        Bucket b;
        b.swap(spares_[i]);
        spares_[i].swap(spares_.back());
        spares_.pop_back();
        spare_cap_ -= cap;
        return b;
    }
    Bucket b;
    b.reserve(cap);
    cap_ += b.capacity();
    cap_hw_ = std::max(cap_hw_, cap_);
    return b;
}

void
EventQueue::recycle(Bucket &b)
{
    const std::size_t c = b.capacity();
    // Reserve-sized blocks go back to the frame pool; larger ones are
    // kept while the spares stay within kSpareDepths x maxDepth().
    if (c > kBucketReserve && spare_cap_ + c <= kSpareDepths * max_depth_) {
        spares_.emplace_back();
        spares_.back().swap(b);
        spare_cap_ += c;
        return;
    }
    cap_ -= c;
    Bucket().swap(b);
}

Time
EventQueue::nextTime() const
{
    if (size_ == 0)
        panic("EventQueue::nextTime: queue is empty");
    // The cursor bucket holds the earliest pending entry but may not
    // have been sorted yet (that happens on first pop); peek without
    // mutating.
    const Bucket &bk = buckets_[cur_];
    if (sorted_[cur_])
        return bk[pos_].when;
    auto it = std::min_element(
        bk.begin(), bk.end(),
        [](const Entry &a, const Entry &b) { return earlier(a, b); });
    return it->when;
}

void
EventQueue::ensureSortedCur()
{
    if (sorted_[cur_])
        return;
    // An unsorted cursor bucket has no consumed prefix (consumption
    // sorts first), so the whole bucket is fair game.
    Bucket &bk = buckets_[cur_];
    std::sort(bk.begin(), bk.end(),
              [](const Entry &a, const Entry &b) { return earlier(a, b); });
    sorted_[cur_] = 1;
}

Time
EventQueue::runNext()
{
    if (size_ == 0)
        panic("EventQueue::runNext: queue is empty");
    ensureSortedCur();
    // Move the earliest entry out and restore the cursor invariant
    // *before* invoking the callback — callbacks routinely schedule
    // new events.
    Entry e = std::move(buckets_[cur_][pos_]);
    ++pos_;
    --size_;
    last_fired_ = e.when;
    ++fired_;
    if (size_ == 0) {
        release(buckets_[cur_]);
        sorted_[cur_] = 1;
        pos_ = 0;
    } else {
        settle();
    }
    e.cb();
    return e.when;
}

void
EventQueue::settle()
{
    // Post-condition (size_ > 0): buckets_[cur_] holds the earliest
    // pending entries (sorting is deferred to first access).
    for (;;) {
        Bucket &bk = buckets_[cur_];
        if (pos_ < bk.size())
            return;
        release(bk);
        sorted_[cur_] = 1;
        pos_ = 0;
        if (++cur_ == nb_)
            advanceWindow();
    }
}

void
EventQueue::advanceWindow()
{
    origin_ += static_cast<Time>(nb_) << width_bits_;
    cur_ = 0;
    if (overflow_.empty())
        return;

    // All in-window buckets are empty here, so the window can be
    // re-anchored and re-scaled freely.  Jump the origin straight to
    // the earliest spillover event — overflow times are never below
    // the advanced origin, and later schedules before a jumped
    // origin clamp to bucket 0, which sorts first — and, when the
    // spillover population is dense enough to sample, re-fit the
    // bucket width so the whole span lands inside one window.
    // Without the re-fit a long-horizon machine (SP2's ~100 us
    // software rounds against the default ~17 us window) would pay a
    // full overflow scan per window step instead of ingesting each
    // event exactly once.
    Time min_when = overflow_[0].when;
    Time max_when = min_when;
    for (const Entry &e : overflow_) {
        min_when = std::min(min_when, e.when);
        max_when = std::max(max_when, e.when);
    }
    origin_ = min_when;
    if (overflow_.size() >= 64) {
        Time span = max_when - min_when;
        Time per = span / static_cast<Time>(nb_ / 2) + 1;
        int bits = 4;
        while ((Time(1) << bits) < per && bits < 44)
            ++bits;
        width_bits_ = bits;
    }

    std::size_t keep = 0;
    for (Entry &e : overflow_) {
        std::size_t b = bucketOf(e.when);
        if (b < nb_) {
            Bucket &bk = buckets_[b];
            push(bk, std::move(e));
            if (bk.size() > 1)
                sorted_[b] = 0;
        } else {
            overflow_[keep++] = std::move(e);
        }
    }
    overflow_.resize(keep);
    if (keep == 0)
        release(overflow_);
}

} // namespace ccsim::sim
