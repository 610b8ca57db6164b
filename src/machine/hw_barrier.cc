#include "machine/hw_barrier.hh"

#include "util/logging.hh"

namespace ccsim::machine {

HardwareBarrier::HardwareBarrier(sim::Simulator &sim, int ranks,
                                 Time latency)
    : sim_(sim), ranks_(ranks), latency_(latency)
{
    if (ranks < 1)
        fatal("HardwareBarrier: need at least one rank, got %d", ranks);
    if (latency < 0)
        fatal("HardwareBarrier: negative latency");
    next_round_.assign(static_cast<size_t>(ranks), 0);
}

HardwareBarrier::Round &
HardwareBarrier::roundFor(std::uint64_t idx)
{
    if (idx < base_round_)
        panic("HardwareBarrier: round %llu already retired",
              static_cast<unsigned long long>(idx));
    while (rounds_.size() <= idx - base_round_)
        rounds_.push_back(std::make_unique<Round>(sim_));
    return *rounds_[idx - base_round_];
}

HardwareBarrier::Arrival
HardwareBarrier::arrive(int rank)
{
    if (rank < 0 || rank >= ranks_)
        panic("HardwareBarrier::arrive: rank %d out of range", rank);

    std::uint64_t idx = next_round_[static_cast<size_t>(rank)]++;
    Round &round = roundFor(idx);
    if (++round.arrived == ranks_) {
        ++completed_;
        sim::Trigger *release = &round.release;
        sim_.schedule(latency_, [release] { release->fire(); });
    }
    return Arrival(*this, round);
}

void
HardwareBarrier::retire()
{
    while (!rounds_.empty() && rounds_.front()->release.fired()) {
        bool safe = true;
        for (std::uint64_t nr : next_round_) {
            if (nr <= base_round_) {
                safe = false;
                break;
            }
        }
        if (!safe)
            break;
        rounds_.erase(rounds_.begin());
        ++base_round_;
    }
}

} // namespace ccsim::machine
