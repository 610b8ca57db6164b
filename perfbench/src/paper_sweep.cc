/**
 * @file
 * paper_sweep: the paper's own job.  The three machines x the seven
 * paper operations x paperMachineSizes x paperMessageLengths, 1997
 * default algorithms, default MeasureOptions, cold memo: 980 points
 * per pass on one SweepRunner worker.  The seed permutes the order
 * the points run in; results are checked in spec order.
 */

#include <cmath>

#include "checks.hh"
#include "harness/sweep.hh"
#include "machine/config_io.hh"
#include "model/paper_data.hh"
#include "workloads.hh"

using namespace ccsim;

namespace perfbench {

namespace {

struct Sweep
{
    std::vector<harness::SweepPoint> points; //!< spec order
    std::vector<std::size_t> order;          //!< execution order
};

Sweep
setUp(std::uint64_t seed)
{
    harness::SweepSpec spec;
    for (const machine::MachineConfig &cfg : machine::paperMachines())
        spec.machines.push_back(cfg);
    spec.ops.assign(machine::kPaperColls.begin(),
                    machine::kPaperColls.end());
    spec.algos = {machine::Algo::Default};
    Sweep s;
    s.points = spec.expand();
    InputRng rng(seed);
    s.order = rng.permutation(s.points.size());
    // Fault in the simulator's code and allocator pools before timing.
    harness::MeasureOptions warm;
    warm.memoize = false;
    harness::measureCollective(s.points.front().cfg, 8,
                               machine::Coll::Bcast, 1024,
                               machine::Algo::Default, warm);
    return s;
}

/** One cold pass timed by @p timer; returns plain host seconds.  With
 *  a tracer, every measureCollective gets a span and the points
 *  collect metrics. */
double
runPass(const Sweep &s, std::vector<harness::Measurement> &results,
        PacedTimer &timer, Tracer *tracer)
{
    harness::memoClear();
    results.assign(s.points.size(), {});
    harness::SweepRunner runner(1);
    timer.start();
    SpanScope pass(tracer, "paper_sweep.pass");
    runner.runTasks(s.points.size(), [&](std::size_t i) {
        const std::size_t idx = s.order[i];
        const harness::SweepPoint &pt = s.points[idx];
        harness::MeasureOptions opt = pt.options;
        opt.metrics = tracer != nullptr;
        SpanScope span(tracer, "harness.measureCollective", pass.id(), idx);
        results[idx] = harness::measureCollective(pt.cfg, pt.p, pt.op,
                                                  pt.m, pt.algo, opt);
    });
    timer.stop();
    return timer.raw();
}

/** Check one pass against the per-(machine, op) pinned digests. */
void
check(const Sweep &s, const std::vector<harness::Measurement> &results,
      const Pins &pins, Outcome &out)
{
    std::size_t begin = 0;
    while (begin < results.size()) {
        std::size_t end = begin;
        const std::string key = "paper_sweep." + s.points[begin].cfg.name +
                                "." + machine::collKey(s.points[begin].op);
        while (end < results.size() &&
               s.points[end].cfg.name == s.points[begin].cfg.name &&
               s.points[end].op == s.points[begin].op)
            ++end;
        std::vector<harness::Measurement> group(results.begin() + begin,
                                                results.begin() + end);
        const std::uint64_t d = timesDigest(group);
        out.computed[key] = hexDigest(d);
        std::string why;
        out.attempted += group.size();
        if (!digestMatches(pins, key, d, why))
            out.fail(group.size(), why);
        begin = end;
    }
}

/** Median relative error (%) of the simulation against the paper's
 *  Table 3 closed forms, over the points that have one. */
double
table3ErrPct(const Sweep &s, const std::vector<harness::Measurement> &r)
{
    std::vector<double> errs;
    for (std::size_t i = 0; i < r.size(); ++i) {
        const harness::SweepPoint &pt = s.points[i];
        if (!model::paper::hasExpression(pt.cfg.name, pt.op))
            continue;
        const double ref =
            model::paper::expression(pt.cfg.name, pt.op).evalUs(pt.m, pt.p);
        if (ref > 0)
            errs.push_back(100.0 * std::fabs(r[i].us() - ref) / ref);
    }
    return median(errs);
}

} // namespace

Outcome
runPaperSweep(const RunArgs &args)
{
    Outcome out;
    const Pins pins = Pins::load(args.data_dir + "/pins.txt");
    Sweep s;
    for (int i = 0; i < kSetUps; ++i) {
        PacedTimer t(*args.pace);
        t.start();
        s = setUp(args.seed);
        t.stop();
        out.setup_s.push_back(t.paced());
    }

    std::vector<harness::Measurement> results;
    if (!args.trace) {
        timedPasses(args, 2, out, [&](PacedTimer &timer) {
            runPass(s, results, timer, nullptr);
            check(s, results, pins, out);
        });
        const double job = median(out.job_raw_s);
        out.named["sweep_points_per_s"] = {
            static_cast<double>(s.points.size()) / job, "1/s"};
        out.named["table3_err_pct"] = {table3ErrPct(s, results), "%"};
        return out;
    }

    PacedTimer timer(*args.pace);
    const harness::MemoStats m0 = harness::memoStats();
    const double untraced = runPass(s, results, timer, nullptr);
    const harness::MemoStats m1 = harness::memoStats();
    check(s, results, pins, out);
    const std::size_t entries = harness::memoSize();

    Tracer tracer;
    const double traced = runPass(s, results, timer, &tracer);
    check(s, results, pins, out);
    LayerCounts lc;
    for (const harness::Measurement &m : results)
        lc.add(m.metrics);
    lc.emit(out.layers);
    emitMemo(m0, m1, entries, out.layers);
    const double untraced_after = runPass(s, results, timer, nullptr);
    check(s, results, pins, out);
    emitTraceOverhead((untraced + untraced_after) / 2, traced, tracer.size(),
                      out.layers);
    tracer.write(args.spanPath());
    return out;
}

} // namespace perfbench
