/**
 * @file
 * tune: tuning::tuneMachine on the SP2 over a reduced paper grid,
 * one SweepRunner worker, cold memo.  The only workload that runs
 * the non-default algorithms in mpi; the baseline that oracle-pruned
 * tuning must beat.  Its inputs are fixed (the seed changes nothing):
 * the selection table must match the pinned copy byte for byte.
 */

#include <sstream>

#include "checks.hh"
#include "tuning/tuner.hh"
#include "workloads.hh"

using namespace ccsim;

namespace perfbench {

namespace {

constexpr const char *kPinnedTable = "tune_sp2.sel";

tuning::TuneGrid
reducedGrid()
{
    tuning::TuneGrid g;
    g.ops.assign(machine::kPaperColls.begin(), machine::kPaperColls.end());
    g.sizes = {4, 16, 64};
    g.lengths = {16, 1024, 16384};
    return g;
}

/** One cold tune timed by @p timer; returns plain host seconds and
 *  the saved table. */
double
runPass(const machine::MachineConfig &cfg, const tuning::TuneGrid &grid,
        std::string &table, std::size_t &cells, PacedTimer &timer,
        Tracer *tracer)
{
    harness::memoClear();
    tuning::TuneResult r;
    timer.start();
    {
        SpanScope span(tracer, "tuning.tuneMachine");
        r = tuning::tuneMachine(cfg, grid, 1);
    }
    timer.stop();
    std::ostringstream os;
    r.table.save(os);
    table = os.str();
    cells = r.cells.size();
    return timer.raw();
}

void
check(const std::string &table, std::size_t cells,
      const std::string &pinned, Outcome &out)
{
    out.computed[std::string("file:") + kPinnedTable] = table;
    out.attempted += cells;
    if (table != pinned)
        out.fail(cells, "tune: selection table differs from the pinned " +
                            std::string(kPinnedTable));
}

/** Simulate every candidate point of the grid again with metrics on:
 *  the layer counts of the tune (they are deterministic). */
LayerCounts
countCandidates(const machine::MachineConfig &cfg,
                const tuning::TuneGrid &grid, Tracer &tracer)
{
    LayerCounts lc;
    harness::MeasureOptions opt = grid.options;
    opt.metrics = true;
    SpanScope pass(&tracer, "tune.count_pass");
    for (machine::Coll op : grid.ops)
        for (machine::Algo a : tuning::candidateAlgos(cfg, op))
            for (int p : grid.sizes)
                for (Bytes m : grid.lengths) {
                    const Bytes mm = op == machine::Coll::Barrier ? 0 : m;
                    SpanScope span(&tracer, "harness.measureCollective",
                                   pass.id());
                    lc.add(harness::measureCollective(cfg, p, op, mm, a, opt)
                               .metrics);
                    if (op == machine::Coll::Barrier)
                        break;
                }
    return lc;
}

} // namespace

Outcome
runTune(const RunArgs &args)
{
    Outcome out;
    const std::string pinned = readFile(args.data_dir + "/" + kPinnedTable);
    machine::MachineConfig cfg;
    tuning::TuneGrid grid;
    for (int i = 0; i < kSetUps; ++i) {
        PacedTimer t(*args.pace);
        t.start();
        cfg = machine::sp2Config();
        grid = reducedGrid();
        harness::MeasureOptions warm;
        warm.memoize = false;
        harness::measureCollective(cfg, 8, machine::Coll::Bcast, 1024,
                                   machine::Algo::Default, warm);
        t.stop();
        out.setup_s.push_back(t.paced());
    }

    std::string table;
    std::size_t cells = 0;
    if (!args.trace) {
        timedPasses(args, 3, out, [&](PacedTimer &timer) {
            runPass(cfg, grid, table, cells, timer, nullptr);
            check(table, cells, pinned, out);
        });
        out.named["tune_s"] = {median(out.job_raw_s), "s"};
        return out;
    }

    PacedTimer timer(*args.pace);
    const harness::MemoStats m0 = harness::memoStats();
    const double untraced = runPass(cfg, grid, table, cells, timer, nullptr);
    const harness::MemoStats m1 = harness::memoStats();
    emitMemo(m0, m1, harness::memoSize(), out.layers);
    out.layers["tuning.candidates_simulated"] = {
        static_cast<double>(m1.misses - m0.misses), "count"};
    check(table, cells, pinned, out);

    Tracer tracer;
    const double traced = runPass(cfg, grid, table, cells, timer, &tracer);
    check(table, cells, pinned, out);
    const double untraced_after =
        runPass(cfg, grid, table, cells, timer, nullptr);
    check(table, cells, pinned, out);
    countCandidates(cfg, grid, tracer).emit(out.layers);
    emitTraceOverhead((untraced + untraced_after) / 2, traced, tracer.size(),
                      out.layers);
    tracer.write(args.spanPath());
    return out;
}

} // namespace perfbench
