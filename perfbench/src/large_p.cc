/**
 * @file
 * large_p: per-rank state, event-queue depth and memory, with almost
 * no harness or serve cost.  SP2 parameters on the fat tree, memo
 * off, k = 2: a barrier at p = 16384 and an alltoall at p = 512,
 * m = 64.  The seed picks which of the two runs first.
 */

#include "checks.hh"
#include "workloads.hh"

using namespace ccsim;

namespace perfbench {

namespace {

struct Point
{
    const char *key;
    machine::Coll op;
    int p;
    Bytes m;
};

constexpr Point kPoints[] = {
    {"large_p.barrier.p16384", machine::Coll::Barrier, 16384, 0},
    {"large_p.alltoall.p512", machine::Coll::Alltoall, 512, 64},
};
constexpr std::size_t kNumPoints = sizeof(kPoints) / sizeof(kPoints[0]);

/** One pass over both points timed by @p timer; returns its plain
 *  host seconds, per-point seconds go to @p secs. */
double
runPass(const machine::MachineConfig &cfg, bool alltoall_first,
        std::vector<harness::Measurement> &results,
        std::vector<double> &secs, PacedTimer &timer, Tracer *tracer)
{
    results.assign(kNumPoints, {});
    secs.assign(kNumPoints, 0.0);
    timer.start();
    SpanScope pass(tracer, "large_p.pass");
    for (std::size_t n = 0; n < kNumPoints; ++n) {
        const std::size_t i = alltoall_first ? kNumPoints - 1 - n : n;
        const Point &pt = kPoints[i];
        harness::MeasureOptions opt = largePOptions(2);
        opt.metrics = tracer != nullptr;
        const auto t0 = Clock::now();
        SpanScope span(tracer, "harness.measureCollective", pass.id(), i);
        results[i] = harness::measureCollective(cfg, pt.p, pt.op, pt.m,
                                                machine::Algo::Default, opt);
        secs[i] = secondsSince(t0);
    }
    timer.stop();
    return timer.raw();
}

void
check(const std::vector<harness::Measurement> &results, const Pins &pins,
      Outcome &out)
{
    for (std::size_t i = 0; i < kNumPoints; ++i) {
        const std::uint64_t d = timesDigest({results[i]});
        out.computed[kPoints[i].key] = hexDigest(d);
        std::string why;
        ++out.attempted;
        if (!digestMatches(pins, kPoints[i].key, d, why))
            out.fail(1, why);
    }
}

} // namespace

Outcome
runLargeP(const RunArgs &args)
{
    Outcome out;
    const Pins pins = Pins::load(args.data_dir + "/pins.txt");
    machine::MachineConfig cfg;
    for (int i = 0; i < kSetUps; ++i) {
        PacedTimer t(*args.pace);
        t.start();
        cfg = fatTreeSp2();
        harness::measureCollective(cfg, 256, machine::Coll::Barrier, 0,
                                   machine::Algo::Default, largePOptions(1));
        t.stop();
        out.setup_s.push_back(t.paced());
    }
    const bool alltoall_first = InputRng(args.seed).next() & 1;

    std::vector<harness::Measurement> results;
    std::vector<double> secs;
    if (!args.trace) {
        std::vector<double> barrier_s, alltoall_s;
        timedPasses(args, 2, out, [&](PacedTimer &timer) {
            runPass(cfg, alltoall_first, results, secs, timer, nullptr);
            check(results, pins, out);
            barrier_s.push_back(secs[0]);
            alltoall_s.push_back(secs[1]);
        });
        out.named["scale_barrier_s"] = {median(barrier_s), "s"};
        out.named["scale_alltoall_s"] = {median(alltoall_s), "s"};
        return out;
    }

    PacedTimer timer(*args.pace);
    const harness::MemoStats m0 = harness::memoStats();
    const double untraced =
        runPass(cfg, alltoall_first, results, secs, timer, nullptr);
    emitMemo(m0, harness::memoStats(), harness::memoSize(), out.layers);
    check(results, pins, out);

    Tracer tracer;
    const double traced =
        runPass(cfg, alltoall_first, results, secs, timer, &tracer);
    check(results, pins, out);
    LayerCounts lc;
    for (const harness::Measurement &m : results)
        lc.add(m.metrics);
    lc.emit(out.layers);
    const double untraced_after =
        runPass(cfg, alltoall_first, results, secs, timer, nullptr);
    check(results, pins, out);
    emitTraceOverhead((untraced + untraced_after) / 2, traced, tracer.size(),
                      out.layers);
    tracer.write(args.spanPath());
    return out;
}

} // namespace perfbench
