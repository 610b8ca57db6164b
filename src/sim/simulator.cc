#include "sim/simulator.hh"

#include "util/logging.hh"

namespace ccsim::sim {

void
DelayAwaiter::await_suspend(std::coroutine_handle<> h) const
{
    if (delay_ < 0)
        panic("delay: negative duration %lld",
              static_cast<long long>(delay_));
    sim_.resumeAt(sim_.now() + delay_, h);
}

void
Trigger::fire()
{
    if (fired_)
        return;
    fired_ = true;
    if (first_) {
        sim_.resumeNow(first_);
        first_ = {};
    }
    if (!spill_.empty()) {
        // Broadcast release: one batched reservation for the whole
        // fan-out instead of per-waiter queue growth.
        sim_.queue().scheduleBatchAt(
            sim_.now(), spill_.size(), [this](std::size_t i) {
                Continuation k = spill_[i];
                return EventQueue::Callback([k] { k(); });
            });
        spill_.clear();
    }
}

void
Trigger::Awaiter::await_suspend(Continuation k)
{
    if (!trigger_.first_ && trigger_.spill_.empty())
        trigger_.first_ = k;
    else
        trigger_.spill_.push_back(k);
}

void
Simulator::spawn(Task<void> task)
{
    if (!task.valid())
        panic("Simulator::spawn: empty task");
    auto handle = task.release();
    roots_.adopt(handle);
    // Start the lazily-created coroutine; it runs until its first
    // blocking point (and may finish, and be freed, right here).
    handle.resume();
}

void
Simulator::run()
{
    while (!queue_.empty()) {
        queue_.runNext();
        if (event_limit_ && queue_.fired() > event_limit_)
            panic("Simulator::run: event limit %llu exceeded",
                  static_cast<unsigned long long>(event_limit_));
    }

    // Surface the first task failure before diagnosing deadlock: a
    // dead rank usually strands its peers, and the root cause is the
    // exception, not the resulting starvation.
    if (std::exception_ptr e = roots_.firstException())
        std::rethrow_exception(e);

    std::size_t stuck = pendingTasks();
    if (stuck > 0)
        panic("Simulator::run: deadlock, %zu task(s) blocked with an "
              "empty event queue", stuck);
}

} // namespace ccsim::sim
