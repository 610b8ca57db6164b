/**
 * @file
 * The four workloads and the layer probes of the traced run.
 *
 * Every workload follows one shape.  Untraced (--trace 0): set up,
 * run the workload's fixed job in timed passes until --seconds have
 * gone, check every output, report set-up and job times.  Traced
 * (--trace 1): one untraced and one traced pass of the same job, the
 * traced one with spans around each call into the libraries and with
 * MeasureOptions::metrics on where the workload measures points
 * itself, so the layer counts come from the simulator's own counters.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>

#include "harness/measure.hh"
#include "machine/collective_types.hh"
#include "machine/machine_config.hh"
#include "report.hh"
#include "stats/snapshot.hh"

namespace perfbench {

Outcome runPaperSweep(const RunArgs &args);
Outcome runLargeP(const RunArgs &args);
Outcome runServeMix(const RunArgs &args);
Outcome runTune(const RunArgs &args);

/** The large_p machine: SP2 parameters on the fat tree of
 *  bench/fig3_extrapolation. */
ccsim::machine::MachineConfig fatTreeSp2();

/** large_p's procedure: k timed calls, one repetition, one warm-up
 *  call, memo off (every pass simulates). */
ccsim::harness::MeasureOptions largePOptions(int k);

/** One (machine, op, p, m) point of the paper's grid. */
struct PaperPoint
{
    ccsim::machine::MachineConfig cfg;
    ccsim::machine::Coll op;
    int p;
    ccsim::Bytes m;
};

/** The three paper machines x the seven paper ops x @p sizes x
 *  @p lengths; barrier takes one point per p, with m = 0. */
std::vector<PaperPoint> paperPoints(const std::vector<int> &sizes,
                                    const std::vector<ccsim::Bytes> &lengths);

/** The `ccsim serve` request for @p pt with the given tier keys
 *  ("tier=fast", "tier=exact wait=block"). */
std::string predictLine(const PaperPoint &pt, const std::string &tier);

/** Set-ups per run of the workloads whose set-up is short; setup_s
 *  is their median. */
constexpr int kSetUps = 9;

/** Layer counters summed over the metrics snapshots of a traced
 *  pass. */
struct LayerCounts
{
    std::uint64_t events = 0;
    std::uint64_t tasks = 0;
    std::uint64_t eager = 0;
    std::uint64_t rdv = 0;
    std::uint64_t blt = 0;
    std::uint64_t self = 0;
    std::uint64_t pool_reuses = 0;
    std::uint64_t pool_allocs = 0;
    std::uint64_t walks = 0;
    std::uint64_t hops = 0;
    double stall_us = 0.0;
    double busy_us = 0.0;
    std::array<std::uint64_t, ccsim::machine::kNumColl> calls{};

    void add(const ccsim::stats::MetricsSnapshot &s);

    /** Messages the transport sent (every protocol). */
    std::uint64_t sends() const { return eager + rdv + blt + self; }

    /** Add the sim/msg/net/mpi count metrics to @p out. */
    void emit(Metrics &out) const;
};

/**
 * The layer probes: each drives one library entry point with inputs
 * shaped like the workload it matters to, and reports host time per
 * unit of work.  Runs first in every traced run, so the RSS probe
 * sees the process's high-water mark before anything else raises it.
 */
void runProbes(Metrics &out);

/**
 * Run @p pass(PacedTimer &) until --seconds have gone and at least
 * @p min_passes ran.  Each pass's paced host time goes to job_s, its
 * plain host time to job_raw_s.
 */
template <typename Pass>
void
timedPasses(const RunArgs &args, std::size_t min_passes, Outcome &out,
            Pass &&pass)
{
    const auto t0 = Clock::now();
    while (out.job_s.size() < min_passes ||
           secondsSince(t0) < args.seconds) {
        PacedTimer timer(*args.pace);
        pass(timer);
        out.job_s.push_back(timer.paced());
        out.job_raw_s.push_back(timer.raw());
    }
}

/** harness.memo_hit_ratio over a pass (memo statistics before and
 *  after it) and harness.memo_entries after it. */
void emitMemo(const ccsim::harness::MemoStats &before,
              const ccsim::harness::MemoStats &after, std::size_t entries,
              Metrics &out);

/** trace.overhead_pct and trace.spans from one untraced and one
 *  traced pass of the same job. */
void emitTraceOverhead(double untraced_s, double traced_s,
                       std::size_t spans, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
