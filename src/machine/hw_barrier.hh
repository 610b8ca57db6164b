/**
 * @file
 * HardwareBarrier: the Cray T3D's dedicated barrier network.
 *
 * The T3D wires a physical AND-tree across the machine: each PE sets
 * a bit on arrival and every PE sees the tree output flip once all
 * have arrived.  The paper measures this at ~3 us regardless of
 * machine size (Table 3: 0.011 log p + 3), at least 30x faster than
 * the software barriers of the SP2/Paragon.
 *
 * The model: arrivals are counted per barrier episode ("round");
 * when the last rank of a round arrives, all ranks of that round
 * are released a fixed latency later.  Rounds are tracked per rank
 * so a fast rank entering the next barrier cannot corrupt the
 * current one.
 */

#ifndef CCSIM_MACHINE_HW_BARRIER_HH
#define CCSIM_MACHINE_HW_BARRIER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace ccsim::machine {

/** Dedicated barrier-tree service shared by all ranks of a machine. */
class HardwareBarrier
{
  public:
    /**
     * @param sim     owning simulator
     * @param ranks   number of participating ranks
     * @param latency release delay once the last rank arrives
     */
    HardwareBarrier(sim::Simulator &sim, int ranks, Time latency);

    HardwareBarrier(const HardwareBarrier &) = delete;
    HardwareBarrier &operator=(const HardwareBarrier &) = delete;

  private:
    struct Round
    {
        explicit Round(sim::Simulator &s) : release(s) {}

        int arrived = 0;
        sim::Trigger release;
    };

  public:
    /** What arrive() returns: parks the caller on its episode's
     *  release.  No coroutine frame is created. */
    class [[nodiscard]] Arrival
    {
      public:
        Arrival() = default;

        Arrival(HardwareBarrier &hw, Round &round)
            : hw_(&hw), round_(&round)
        {
        }

        bool await_ready() const noexcept { return round_->release.fired(); }

        void
        await_suspend(sim::Continuation k) const
        {
            round_->release.wait().await_suspend(k);
        }

        /** Retires released rounds; the episode's own round may be
         *  gone by now, so this touches only the barrier. */
        void await_resume() const { hw_->retire(); }

      private:
        HardwareBarrier *hw_ = nullptr;
        Round *round_ = nullptr;
    };

    /**
     * Rank @p rank arrives at its next barrier episode (at the call);
     * co_await the result to block until every rank has arrived at
     * the same episode plus the hardware latency.
     */
    Arrival arrive(int rank);

    /** Completed barrier episodes. */
    std::uint64_t episodes() const { return completed_; }

  private:
    Round &roundFor(std::uint64_t idx);

    /** Drop the fully-released leading rounds nobody can revisit. */
    void retire();

    sim::Simulator &sim_;
    int ranks_;
    Time latency_;
    std::vector<std::uint64_t> next_round_;
    std::vector<std::unique_ptr<Round>> rounds_;
    std::uint64_t base_round_ = 0; // index of rounds_[0]
    std::uint64_t completed_ = 0;
};

} // namespace ccsim::machine

#endif // CCSIM_MACHINE_HW_BARRIER_HH
