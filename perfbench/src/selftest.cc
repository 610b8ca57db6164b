/**
 * @file
 * Tests of the benchmark's own gates: each check must be able to
 * fail.  A perturbed digest and a wrong serve answer are rejected;
 * the unperturbed inputs pass.  `python3 perfbench/run.py --selftest`
 * runs this, then whole workloads against perturbed pinned files.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "checks.hh"
#include "harness/measure.hh"
#include "serve/server.hh"

using namespace ccsim;
using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++g_failures;
}

void
digestGate()
{
    const machine::MachineConfig cfg = machine::sp2Config();
    std::vector<harness::Measurement> ms = {
        harness::measureCollective(cfg, 8, machine::Coll::Bcast, 1024),
        harness::measureCollective(cfg, 16, machine::Coll::Alltoall, 64),
    };
    Pins pins;
    pins.set("k", hexDigest(timesDigest(ms)));
    std::string why;
    expect(digestMatches(pins, "k", timesDigest(ms), why),
           "digest of unchanged times matches its pin");

    for (auto field : {&harness::Measurement::max_time,
                       &harness::Measurement::min_time,
                       &harness::Measurement::mean_time}) {
        std::vector<harness::Measurement> bad = ms;
        bad[1].*field += 1; // one picosecond
        expect(!digestMatches(pins, "k", timesDigest(bad), why),
               "digest with one picosecond changed fails");
    }
    std::vector<harness::Measurement> swapped = {ms[1], ms[0]};
    expect(!digestMatches(pins, "k", timesDigest(swapped), why),
           "digest of reordered points fails");
    expect(!digestMatches(Pins(), "k", timesDigest(ms), why),
           "a missing pin fails");
}

void
serveGate()
{
    serve::ServerOptions so;
    so.jobs = 1;
    serve::Server srv(so);
    const std::string line =
        "predict machine=T3D op=alltoall p=16 m=1024 tier=exact wait=block";
    harness::MeasureOptions fresh_opt;
    fresh_opt.memoize = false;
    const harness::Measurement fresh = harness::measureCollective(
        machine::t3dConfig(), 16, machine::Coll::Alltoall, 1024,
        machine::Algo::Auto, fresh_opt);

    const std::string exact = srv.handleLine(line);
    expect(replyMatches(parseReply(exact), fresh),
           "exact answer equals a fresh simulation");
    const std::string cached = srv.handleLine(line);
    expect(parseReply(cached).tier == "cache" &&
               replyMatches(parseReply(cached), fresh),
           "cache answer equals a fresh simulation");

    ServeReply wrong = parseReply(exact);
    wrong.max_ps += 1;
    expect(!replyMatches(wrong, fresh), "answer off by 1 ps fails");
    wrong = parseReply(exact);
    wrong.mean_ps -= 1;
    expect(!replyMatches(wrong, fresh), "mean off by 1 ps fails");

    const std::string fast = srv.handleLine(
        "predict machine=T3D op=alltoall p=16 m=4096 tier=fast");
    harness::Measurement other = harness::measureCollective(
        machine::t3dConfig(), 16, machine::Coll::Alltoall, 4096,
        machine::Algo::Auto, fresh_opt);
    expect(!replyMatches(parseReply(fast), other),
           "an approximate answer never passes as exact");
    expect(!replyMatches(parseReply("{\"status\":\"error\",\"component\":"
                                    "\"config\",\"exit_code\":5}"),
                         fresh),
           "an error reply fails");
}

} // namespace

int
main()
{
    digestGate();
    serveGate();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
                g_failures);
    return g_failures ? 1 : 0;
}
