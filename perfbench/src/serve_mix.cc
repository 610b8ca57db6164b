/**
 * @file
 * serve_mix: the serve cache, protocol, backfill and harness memo,
 * where simulation per request is cheap.  An in-process Server with
 * one backfill job and a cache bound below the point universe; two
 * closed-loop Client connections (callers such as `ccsim query` and
 * tuners wait for each reply) send a request stream generated from
 * the seed: Zipf-popular over machine x paper op x p <= 64 x paper m,
 * mostly tier=exact wait=block, some tier=fast, no deadline.  Cache
 * hits (reads) run beside misses that backfill, insert and evict
 * (writes).  Each pass starts from a cleared memo and a new server.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "checks.hh"
#include "machine/config_io.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "workloads.hh"

using namespace ccsim;

namespace perfbench {

namespace {

constexpr std::size_t kRequests = 20000;
constexpr int kClients = 2;
constexpr double kFastShare = 0.1;
constexpr double kZipfS = 1.0;
constexpr std::size_t kCacheMax = 256;
constexpr const char *kFast = "tier=fast";
constexpr const char *kExact = "tier=exact wait=block";

struct Request
{
    std::size_t point;
    bool fast;
    std::string line;
};

/** The seeded stream: popularity ranks are a seeded permutation of
 *  the universe, requests draw ranks from a Zipf law. */
std::vector<Request>
requestStream(const std::vector<PaperPoint> &u, std::uint64_t seed)
{
    InputRng rng(seed);
    const std::vector<std::size_t> rank = rng.permutation(u.size());
    std::vector<double> cdf(u.size());
    double total = 0.0;
    for (std::size_t r = 0; r < u.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        cdf[r] = total;
    }
    std::vector<Request> out;
    out.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        const double x = rng.uniform() * total;
        const std::size_t r = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
        const std::size_t pt = rank[std::min(r, u.size() - 1)];
        const bool fast = rng.uniform() < kFastShare;
        out.push_back({pt, fast, predictLine(u[pt], fast ? kFast : kExact)});
    }
    return out;
}

struct Live
{
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<serve::Client>> clients;
};

/** Cold memo, new server, connected clients, and one fast answer per
 *  (machine, op) so the fast path's fits are made before timing. */
Live
setUp(const std::vector<PaperPoint> &u)
{
    harness::memoClear();
    Live live;
    serve::ServerOptions so;
    so.jobs = 1;
    so.cache_max = kCacheMax;
    live.server = std::make_unique<serve::Server>(so);
    live.server->start();
    for (int c = 0; c < kClients; ++c) {
        live.clients.push_back(std::make_unique<serve::Client>());
        live.clients.back()->connect(live.server->port());
    }
    for (std::size_t i = 0; i < u.size(); ++i)
        if (i == 0 || u[i].op != u[i - 1].op)
            live.clients[0]->request(predictLine(u[i], kFast));
    return live;
}

struct PassResult
{
    double seconds = 0.0;
    std::vector<std::string> replies;
    std::vector<double> latency_us;
};

/** Both clients send their share of the stream, each waiting for
 *  every reply (closed loop). */
PassResult
runPass(Live &live, const std::vector<Request> &stream, Tracer *tracer)
{
    PassResult r;
    r.replies.resize(stream.size());
    r.latency_us.resize(stream.size());
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            serve::Client &client = *live.clients[c];
            SpanScope conn(tracer, "serve.connection");
            for (std::size_t i = c; i < stream.size(); i += kClients) {
                const auto q0 = Clock::now();
                SpanScope span(tracer, "serve.request", conn.id(), i + 1);
                r.replies[i] = client.request(stream[i].line);
                r.latency_us[i] = 1e6 * secondsSince(q0);
            }
        });
    for (std::thread &t : threads)
        t.join();
    r.seconds = secondsSince(t0);
    return r;
}

/** Fresh simulations (memo off) of the points a pass answered. */
class FreshTimes
{
  public:
    explicit FreshTimes(const std::vector<PaperPoint> &u) : u_(u) {}

    const harness::Measurement &
    get(std::size_t pt)
    {
        auto it = cache_.find(pt);
        if (it != cache_.end())
            return it->second;
        harness::MeasureOptions opt;
        opt.memoize = false;
        const PaperPoint &p = u_[pt];
        return cache_[pt] = harness::measureCollective(p.cfg, p.p, p.op, p.m,
                                                       machine::Algo::Auto,
                                                       opt);
    }

  private:
    const std::vector<PaperPoint> &u_;
    std::map<std::size_t, harness::Measurement> cache_;
};

/** Every cache or exact answer must equal a fresh simulation; an
 *  exact request must not come back approximate.  Returns the number
 *  of answers per tier. */
std::map<std::string, double>
check(const std::vector<Request> &stream, const PassResult &r,
      FreshTimes &fresh, Outcome &out)
{
    std::map<std::string, double> tiers;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        ++out.attempted;
        const ServeReply rep = parseReply(r.replies[i]);
        tiers[rep.tier] += 1;
        if (!rep.ok) {
            out.fail(1, "serve: error reply to '" + stream[i].line +
                            "': " + r.replies[i]);
            continue;
        }
        if (stream[i].fast && rep.tier == "fast")
            continue;
        if (!replyMatches(rep, fresh.get(stream[i].point)))
            out.fail(1, "serve: '" + stream[i].line + "' answered " +
                            r.replies[i] + ", fresh simulation differs");
    }
    return tiers;
}

/** Median relative error (%) of fast answers against exact ones on a
 *  fixed list of points the fast path was not calibrated on. */
double
fastTierErrPct()
{
    const std::vector<PaperPoint> held =
        paperPoints({4, 16, 64}, {16, 256, 4096});
    harness::memoClear();
    serve::ServerOptions so;
    so.jobs = 1;
    serve::Server srv(so);
    std::vector<double> errs;
    for (const PaperPoint &pt : held) {
        const ServeReply rep =
            parseReply(srv.handleLine(predictLine(pt, kFast)));
        const double exact = harness::measureCollective(pt.cfg, pt.p, pt.op,
                                                        pt.m)
                                 .us();
        if (exact > 0)
            errs.push_back(100.0 * std::fabs(rep.time_us - exact) / exact);
    }
    harness::memoClear();
    return median(errs);
}

/** Stop the clients and the server (not timed). */
void
tearDown(Live &live)
{
    for (auto &c : live.clients)
        c->close();
    live.server->stop();
}

} // namespace

Outcome
runServeMix(const RunArgs &args)
{
    Outcome out;
    std::vector<int> sizes;
    for (int p : harness::paperMachineSizes("SP2"))
        if (p <= 64)
            sizes.push_back(p);
    const std::vector<PaperPoint> u =
        paperPoints(sizes, harness::paperMessageLengths());
    const std::vector<Request> stream = requestStream(u, args.seed);
    FreshTimes fresh(u);

    auto setUpTimed = [&] {
        PacedTimer t(*args.pace);
        t.start();
        Live live = setUp(u);
        t.stop();
        out.setup_s.push_back(t.paced());
        return live;
    };

    if (!args.trace) {
        std::vector<double> latencies;
        timedPasses(args, 3, out, [&](PacedTimer &timer) {
            Live live = setUpTimed();
            timer.start();
            PassResult r = runPass(live, stream, nullptr);
            timer.stop();
            tearDown(live);
            check(stream, r, fresh, out);
            latencies.insert(latencies.end(), r.latency_us.begin(),
                             r.latency_us.end());
        });
        out.named["serve_qps"] = {
            static_cast<double>(stream.size()) / median(out.job_raw_s),
            "1/s"};
        out.named["serve_p50_us"] = {quantile(latencies, 0.5), "us"};
        out.named["serve_p99_us"] = {quantile(latencies, 0.99), "us"};
        out.named["serve_samples"] = {static_cast<double>(latencies.size()),
                                      "count"};
        out.named["fast_tier_err_pct"] = {fastTierErrPct(), "%"};
        return out;
    }

    Live live = setUpTimed();
    const harness::MemoStats m0 = harness::memoStats();
    PassResult r = runPass(live, stream, nullptr);
    const harness::MemoStats m1 = harness::memoStats();
    emitMemo(m0, m1, harness::memoSize(), out.layers);
    const stats::CacheStats cs = live.server->cache().stats();
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    out.layers["serve.cache_hit_ratio"] = {
        lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0, "ratio"};
    out.layers["serve.cache_evictions"] = {static_cast<double>(cs.evictions),
                                           "count"};
    out.layers["serve.backfill_coalesced"] = {
        static_cast<double>(live.server->backfill().coalesced()), "count"};
    tearDown(live);
    std::map<std::string, double> tiers = check(stream, r, fresh, out);
    for (const char *t : {"cache", "fast", "exact"})
        out.layers[std::string("serve.tier_share.") + t] = {
            tiers[t] / static_cast<double>(stream.size()), "ratio"};

    Tracer tracer;
    live = setUpTimed();
    PassResult traced = runPass(live, stream, &tracer);
    tearDown(live);
    check(stream, traced, fresh, out);
    live = setUpTimed();
    PassResult after = runPass(live, stream, nullptr);
    tearDown(live);
    check(stream, after, fresh, out);

    // Layer counts of the simulations the stream caused: every
    // distinct exact-requested point, simulated once more with
    // metrics on (counts are deterministic).
    LayerCounts lc;
    std::vector<char> seen(u.size(), 0);
    harness::MeasureOptions mo;
    mo.metrics = true;
    for (const Request &q : stream)
        if (!q.fast && !seen[q.point]) {
            seen[q.point] = 1;
            const PaperPoint &pt = u[q.point];
            lc.add(harness::measureCollective(pt.cfg, pt.p, pt.op, pt.m,
                                              machine::Algo::Auto, mo)
                       .metrics);
        }
    lc.emit(out.layers);
    emitTraceOverhead((r.seconds + after.seconds) / 2, traced.seconds,
                      tracer.size(), out.layers);
    tracer.write(args.spanPath());
    return out;
}

} // namespace perfbench
