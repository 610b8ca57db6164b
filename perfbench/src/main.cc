/**
 * @file
 * perfbench: one workload per process, so its peak RSS is its own.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *               --data DIR --out DIR [--pin]
 *
 * The last stdout line is the result object {"correct", "attempted",
 * "failed", "metrics"}: the end-to-end metrics with --trace 0, the
 * per-layer metrics with --trace 1.  The line before it details the
 * workload's own named metrics and sample counts.  --pin rewrites the
 * pinned reference outputs under --data from this run.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checks.hh"
#include "util/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

using WorkloadFn = Outcome (*)(const RunArgs &);

const std::map<std::string, WorkloadFn> &
workloads()
{
    static const std::map<std::string, WorkloadFn> w = {
        {"paper_sweep", runPaperSweep},
        {"large_p", runLargeP},
        {"serve_mix", runServeMix},
        {"tune", runTune},
    };
    return w;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_sweep|large_p|serve_mix|tune --seed N --seconds S "
                 "--trace 0|1 --data DIR --out DIR [--pin]\n",
                 why.c_str());
    std::exit(2);
}

RunArgs
parse(int argc, char **argv)
{
    RunArgs a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--pin") {
            a.pin = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), &end, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v.c_str(), &end);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--data")
            a.data_dir = v;
        else if (flag == "--out")
            a.out_dir = v;
        else
            usage("unknown flag " + flag);
        if (end && *end != '\0')
            usage("bad number for " + flag + ": " + v);
    }
    if (!workloads().count(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (a.data_dir.empty() || a.out_dir.empty())
        usage("--data and --out are required");
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

std::string
json(const Metrics &m)
{
    std::string s = "{";
    for (const auto &[name, metric] : m) {
        if (s.size() > 1)
            s += ", ";
        s += "\"" + name + "\": {\"value\": " + formatNumber(metric.value) +
             ", \"unit\": \"" + metric.unit + "\"}";
    }
    return s + "}";
}

std::string
json(const std::vector<double> &v)
{
    std::string s = "[";
    for (double x : v)
        s += (s.size() > 1 ? ", " : "") + formatNumber(x);
    return s + "]";
}

/** Merge this run's computed reference outputs into the pinned ones:
 *  "file:NAME" keys are whole files, the rest lines of pins.txt. */
void
writePins(const RunArgs &a, const Outcome &out)
{
    const std::string path = a.data_dir + "/pins.txt";
    std::map<std::string, std::string> lines;
    std::ifstream in(path);
    std::string key, value;
    while (in >> key >> value)
        if (key[0] != '#')
            lines[key] = value;
    for (const auto &[k, v] : out.computed) {
        if (k.rfind("file:", 0) == 0)
            std::ofstream(a.data_dir + "/" + k.substr(5)) << v;
        else
            lines[k] = v;
    }
    std::ofstream os(path);
    os << "# Pinned digests of simulated times (perfbench --pin).\n";
    for (const auto &[k, v] : lines)
        os << k << " " << v << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args = parse(argc, argv);
    ccsim::quietLogging(true);
    // One malloc arena: with one per thread, serve_mix's peak RSS
    // swings by a fifth from run to run with how glibc happens to
    // hand arenas to its short-lived threads.
    mallopt(M_ARENA_MAX, 1);
    try {
        Pace pace;
        args.pace = &pace;
        Metrics layers;
        if (args.trace) {
            runProbes(layers);
            // Layers only one workload exercises read 0 elsewhere.
            const std::pair<const char *, const char *> only_one[] = {
                {"tuning.candidates_simulated", "count"},
                {"serve.cache_hit_ratio", "ratio"},
                {"serve.tier_share.cache", "ratio"},
                {"serve.tier_share.fast", "ratio"},
                {"serve.tier_share.exact", "ratio"},
                {"serve.backfill_coalesced", "count"},
                {"serve.cache_evictions", "count"},
            };
            for (const auto &[name, unit] : only_one)
                layers[name] = {0.0, unit};
        }
        Outcome out = workloads().at(args.workload)(args);
        for (auto &[name, m] : out.layers)
            layers[name] = m;

        for (const std::string &e : out.errors)
            std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
        if (args.pin)
            writePins(args, out);

        Metrics metrics;
        if (args.trace) {
            metrics = layers;
        } else {
            metrics["setup_s"] = {median(out.setup_s), "s"};
            metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
            metrics["job_s"] = {median(out.job_s), "s"};
        }
        const double failed_frac =
            out.attempted ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0;
        out.named["failed_frac"] = {failed_frac, "ratio"};
        std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                    "\"setup_s\": %s, \"job_s\": %s, \"job_raw_s\": %s, "
                    "\"named\": %s}\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    args.trace ? 1 : 0, json(out.setup_s).c_str(),
                    json(out.job_s).c_str(), json(out.job_raw_s).c_str(),
                    json(out.named).c_str());
        const bool correct = out.failed == 0 && out.attempted > 0;
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(
                        out.attempted ? out.attempted : 1),
                    static_cast<unsigned long long>(
                        out.attempted ? out.failed : 1),
                    json(metrics).c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
