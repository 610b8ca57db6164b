#include <memory>
#include <string>
#include <vector>

#include "harness/measure.hh"
#include "machine/config_io.hh"
#include "net/network.hh"
#include "net/topology_factory.hh"
#include "serve/server.hh"
#include "sim/event_queue.hh"
#include "tuning/tuner.hh"
#include "workloads.hh"

using namespace ccsim;

namespace perfbench {

machine::MachineConfig
fatTreeSp2()
{
    machine::MachineConfig ft = machine::sp2Config();
    ft.name = "FatTree";
    ft.topo_spec = "fattree";
    return ft;
}

harness::MeasureOptions
largePOptions(int k)
{
    harness::MeasureOptions o;
    o.iterations = k;
    o.repetitions = 1;
    o.warmup = 1;
    o.memoize = false;
    return o;
}

std::vector<PaperPoint>
paperPoints(const std::vector<int> &sizes, const std::vector<Bytes> &lengths)
{
    std::vector<PaperPoint> pts;
    for (const machine::MachineConfig &cfg : machine::paperMachines())
        for (machine::Coll op : machine::kPaperColls)
            for (int p : sizes)
                for (Bytes m : lengths) {
                    pts.push_back({cfg, op, p,
                                   op == machine::Coll::Barrier ? 0 : m});
                    if (op == machine::Coll::Barrier)
                        break;
                }
    return pts;
}

std::string
predictLine(const PaperPoint &pt, const std::string &tier)
{
    std::string line = "predict machine=" + pt.cfg.name +
                       " op=" + machine::collKey(pt.op) +
                       " p=" + std::to_string(pt.p);
    if (pt.op != machine::Coll::Barrier)
        line += " m=" + std::to_string(pt.m);
    return line + " " + tier;
}

void
LayerCounts::add(const stats::MetricsSnapshot &s)
{
    auto c = [&s](const std::string &name) -> std::uint64_t {
        auto it = s.counters.find(name);
        return it == s.counters.end() ? 0 : it->second;
    };
    events += c("sim.events");
    tasks += c("sim.tasks");
    eager += c("msg.sends.eager");
    rdv += c("msg.sends.rdv");
    blt += c("msg.sends.blt");
    self += c("msg.sends.self");
    pool_reuses += c("msg.pool.reuses");
    pool_allocs += c("msg.pool.allocs");
    walks += c("net.route.walks");
    hops += c("net.route.hops");
    stall_us += s.totalStallUs();
    busy_us += s.totalLinkBusyUs();
    for (machine::Coll op : machine::kAllColls)
        calls[static_cast<std::size_t>(op)] +=
            c("coll." + machine::collKey(op) + ".calls");
}

void
LayerCounts::emit(Metrics &out) const
{
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    out["sim.events"] = {n(events), "count"};
    out["sim.tasks"] = {n(tasks), "count"};
    out["msg.sends.eager"] = {n(eager), "count"};
    out["msg.sends.rdv"] = {n(rdv), "count"};
    out["msg.sends.blt"] = {n(blt), "count"};
    const std::uint64_t pool = pool_reuses + pool_allocs;
    out["msg.pool.reuse_ratio"] = {pool ? n(pool_reuses) / n(pool) : 0.0,
                                   "ratio"};
    out["net.route.walks"] = {n(walks), "count"};
    out["net.route.hops"] = {n(hops), "count"};
    // Share of link time spent waiting for a busy link; simulated,
    // so it must never move with a host-side change.
    const double link_us = stall_us + busy_us;
    out["net.stall_share"] = {link_us > 0 ? stall_us / link_us : 0.0,
                              "ratio"};
    for (machine::Coll op : {machine::Coll::Barrier, machine::Coll::Bcast,
                             machine::Coll::Alltoall, machine::Coll::Scan})
        out["mpi.calls." + machine::collKey(op)] = {
            n(calls[static_cast<std::size_t>(op)]), "count"};
}

void
emitMemo(const harness::MemoStats &before, const harness::MemoStats &after,
         std::size_t entries, Metrics &out)
{
    const auto hits = static_cast<double>(after.hits - before.hits);
    const auto misses = static_cast<double>(after.misses - before.misses);
    out["harness.memo_hit_ratio"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    out["harness.memo_entries"] = {static_cast<double>(entries), "count"};
}

void
emitTraceOverhead(double untraced_s, double traced_s, std::size_t spans,
                  Metrics &out)
{
    out["trace.overhead_pct"] = {
        untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s
                       : 0.0,
        "%"};
    out["trace.spans"] = {static_cast<double>(spans), "count"};
}

namespace {

/** Keeps probe callbacks' side effects observable. */
std::uint64_t g_probe_sink = 0;

/** Median host time of @p reps calls of @p fn, seconds. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> s;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

/**
 * large_p's scaling probe: the fat-tree barrier at growing p.  Host
 * time comes from an untraced k = 1 run, the message count from a
 * metrics run of the same point (counts are deterministic).  VmHWM
 * is read after the p = 16384 point at k = 1 and again at k = 2: the
 * growth is memory kept per timed iteration.
 */
void
scaleProbe(Metrics &out)
{
    const machine::MachineConfig cfg = fatTreeSp2();
    for (int p : {1024, 4096, 16384}) {
        auto t0 = Clock::now();
        harness::measureCollective(cfg, p, machine::Coll::Barrier, 0,
                                   machine::Algo::Default,
                                   largePOptions(1));
        const double wall = secondsSince(t0);
        if (p == 16384) {
            const double hwm1 = peakRssMb();
            harness::measureCollective(cfg, p, machine::Coll::Barrier, 0,
                                       machine::Algo::Default,
                                       largePOptions(2));
            out["sim.rss_mb_per_iter"] = {peakRssMb() - hwm1, "MB"};
        }
        harness::MeasureOptions mo = largePOptions(1);
        mo.metrics = true;
        LayerCounts lc;
        lc.add(harness::measureCollective(cfg, p, machine::Coll::Barrier,
                                          0, machine::Algo::Default, mo)
                   .metrics);
        out["msg.host_us_per_msg.p" + std::to_string(p)] = {
            1e6 * wall / static_cast<double>(lc.sends()), "us"};
        if (p == 16384)
            out["sim.host_ns_per_event"] = {
                1e9 * wall / static_cast<double>(lc.events), "ns"};
    }
}

/** EventQueue with p-wide same-time batches, the fan-out a barrier
 *  round releases at p = 16384. */
void
queueProbe(Metrics &out)
{
    const std::size_t width = 16384;
    const int rounds = 64;
    std::uint64_t sink = 0;
    const double s = medianSeconds(5, [&] {
        sim::EventQueue q;
        for (int r = 0; r < rounds; ++r) {
            q.scheduleBatchAt(static_cast<Time>(r + 1) * 1000, width,
                              [&sink](std::size_t i) {
                                  return sim::EventQueue::Callback(
                                      [&sink, i] { sink += i; });
                              });
            while (!q.empty())
                q.runNext();
        }
    });
    g_probe_sink += sink;
    out["sim.queue_ns_per_event"] = {
        1e9 * s / static_cast<double>(width * rounds), "ns"};
}

/** Network::transfer over large_p's alltoall pattern (p = 512,
 *  m = 64, pairwise shifts), and the bare route walk under it. */
void
networkProbe(Metrics &out)
{
    const int p = 512;
    const machine::MachineConfig cfg = fatTreeSp2();
    net::Network net(net::makeTopology(cfg.topo_spec, p), cfg.network);
    const double transfers = static_cast<double>(p) * (p - 1);
    const double s = medianSeconds(5, [&] {
        net.reset();
        Time now = 0;
        for (int shift = 1; shift < p; ++shift) {
            Time round_end = now;
            for (int i = 0; i < p; ++i)
                round_end = std::max(
                    round_end, net.transfer(i, (i + shift) % p, 64, now));
            now = round_end;
        }
    });
    out["net.transfer_ns"] = {1e9 * s / transfers, "ns"};

    const net::Topology &topo = net.topology();
    std::uint64_t hops = 0;
    const double w = medianSeconds(5, [&] {
        hops = 0;
        for (int src = 0; src < p; ++src)
            for (int dst = 0; dst < p; ++dst)
                topo.forEachLink(src, dst, [&hops](net::LinkId) { ++hops; });
    });
    out["net.walk_ns_per_hop"] = {1e9 * w / static_cast<double>(hops),
                                  "ns"};
}

/** Host cost of one collective call: the same point at k = 4 and
 *  k = 24, the difference divided by the 20 extra calls. */
void
mpiProbe(Metrics &out)
{
    const machine::MachineConfig cfg = machine::sp2Config();
    const int p = 64;
    for (machine::Coll op : {machine::Coll::Barrier, machine::Coll::Bcast,
                             machine::Coll::Alltoall, machine::Coll::Scan}) {
        const Bytes m = op == machine::Coll::Barrier ? 0 : 1024;
        auto timed = [&](int k) {
            harness::MeasureOptions o = largePOptions(k);
            return medianSeconds(3, [&] {
                harness::measureCollective(cfg, p, op, m,
                                           machine::Algo::Default, o);
            });
        };
        const double lo = timed(4);
        const double hi = timed(24);
        out["mpi.host_us_per_call." + machine::collKey(op)] = {
            1e6 * (hi - lo) / 20.0, "us"};
    }
}

/** measureCollective per cold point, and per memo hit. */
void
harnessProbe(Metrics &out)
{
    const std::vector<PaperPoint> pts =
        paperPoints({16}, harness::paperMessageLengths());
    harness::MeasureOptions cold;
    cold.memoize = false;
    const double s = medianSeconds(3, [&] {
        for (const PaperPoint &pt : pts)
            harness::measureCollective(pt.cfg, pt.p, pt.op, pt.m,
                                       machine::Algo::Default, cold);
    });
    out["harness.host_us_per_point"] = {
        1e6 * s / static_cast<double>(pts.size()), "us"};

    harness::memoClear();
    for (const PaperPoint &pt : pts)
        harness::measureCollective(pt.cfg, pt.p, pt.op, pt.m);
    const int rounds = 20;
    const double h = medianSeconds(5, [&] {
        for (int r = 0; r < rounds; ++r)
            for (const PaperPoint &pt : pts)
                harness::measureCollective(pt.cfg, pt.p, pt.op, pt.m);
    });
    out["harness.memo_hit_us"] = {
        1e6 * h / static_cast<double>(rounds * pts.size()), "us"};
    harness::memoClear();
}

/** Server::handleLine per tier, no sockets; the first fast answer of
 *  each (machine, op) pays the fast path's calibration fit. */
void
serveProbe(Metrics &out)
{
    const std::vector<Bytes> &lengths = harness::paperMessageLengths();
    harness::memoClear();
    serve::ServerOptions so;
    so.jobs = 1;
    serve::Server srv(so);

    auto timeLine = [&srv](const std::string &line) {
        auto t0 = Clock::now();
        srv.handleLine(line);
        return secondsSince(t0);
    };

    const char *fast = "tier=fast";
    const char *exact = "tier=exact wait=block";
    std::vector<double> fit_ms, fast_us, exact_us, cache_us;
    for (const PaperPoint &pt : paperPoints({4}, {lengths.front()}))
        fit_ms.push_back(1e3 * timeLine(predictLine(pt, fast)));
    for (const PaperPoint &pt : paperPoints({64}, lengths))
        fast_us.push_back(1e6 * timeLine(predictLine(pt, fast)));
    const std::vector<PaperPoint> pts = paperPoints({16}, lengths);
    for (const PaperPoint &pt : pts)
        exact_us.push_back(1e6 * timeLine(predictLine(pt, exact)));
    for (int r = 0; r < 10; ++r)
        for (const PaperPoint &pt : pts)
            cache_us.push_back(1e6 * timeLine(predictLine(pt, exact)));

    out["model.fastpath_fit_ms"] = {median(fit_ms), "ms"};
    out["serve.brain_us.fast"] = {median(fast_us), "us"};
    out["serve.exact_miss_us"] = {median(exact_us), "us"};
    out["serve.brain_us.cache"] = {median(cache_us), "us"};
    harness::memoClear();
}

/** tuneMachine on a small SP2 grid, cold memo: host ms per cell. */
void
tuningProbe(Metrics &out)
{
    tuning::TuneGrid grid;
    grid.ops = {machine::Coll::Bcast, machine::Coll::Alltoall};
    grid.sizes = {8, 32};
    grid.lengths = {64, 4096};
    std::size_t cells = 0;
    const double s = medianSeconds(3, [&] {
        harness::memoClear();
        cells = tuning::tuneMachine(machine::sp2Config(), grid, 1)
                    .cells.size();
    });
    out["tuning.host_ms_per_cell"] = {
        1e3 * s / static_cast<double>(cells), "ms"};
    harness::memoClear();
}

} // namespace

void
runProbes(Metrics &out)
{
    scaleProbe(out);
    queueProbe(out);
    networkProbe(out);
    mpiProbe(out);
    harnessProbe(out);
    serveProbe(out);
    tuningProbe(out);
}

} // namespace perfbench
