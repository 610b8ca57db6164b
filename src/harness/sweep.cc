#include "harness/sweep.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "util/logging.hh"

namespace ccsim::harness {

std::vector<SweepPoint>
SweepSpec::expand() const
{
    if (machines.empty())
        fatal("SweepSpec: no machines");
    if (ops.empty())
        fatal("SweepSpec: no operations");
    if (algos.empty())
        fatal("SweepSpec: no algorithms");

    std::vector<Bytes> default_lengths;
    if (lengths.empty())
        default_lengths = paperMessageLengths();

    // Reserve the exact count: SweepPoint is ~1 KB, so growing by
    // doubling would touch about twice the final vector's pages, and
    // a cold sweep set-up pays for every one of them in page faults.
    std::size_t count = 0;
    for (const auto &cfg : machines) {
        std::size_t n_sizes =
            sizes.empty() ? paperMachineSizes(cfg.name).size() : sizes.size();
        for (machine::Coll op : ops) {
            std::size_t n_lengths = op == machine::Coll::Barrier
                                        ? 1
                                        : (lengths.empty()
                                               ? default_lengths.size()
                                               : lengths.size());
            count += n_sizes * n_lengths * algos.size();
        }
    }
    std::vector<SweepPoint> points;
    points.reserve(count);

    // Each point gets its own fault universe, mixed from the spec's
    // seed and the point's position in declaration order — the same
    // scheme the harness uses for clock skew, so results are
    // identical at any --jobs level.
    auto seedPoint = [](SweepPoint &pt, std::uint64_t idx) {
        if (pt.cfg.fault.enabled())
            pt.cfg.fault.seed = fault::mixSeed(pt.cfg.fault.seed, idx);
    };
    std::uint64_t idx = 0;

    for (const auto &cfg : machines) {
        std::vector<int> machine_sizes =
            sizes.empty() ? paperMachineSizes(cfg.name) : sizes;
        for (machine::Coll op : ops) {
            const std::vector<Bytes> &ms =
                lengths.empty() ? default_lengths : lengths;
            for (int p : machine_sizes) {
                for (Bytes m : ms) {
                    SweepPoint pt;
                    pt.cfg = cfg;
                    pt.p = p;
                    pt.op = op;
                    pt.m = op == machine::Coll::Barrier ? 0 : m;
                    pt.options = options;
                    for (machine::Algo algo : algos) {
                        pt.algo = algo;
                        points.push_back(pt);
                        seedPoint(points.back(), idx++);
                    }
                    if (op == machine::Coll::Barrier)
                        break; // barrier has no length axis
                }
            }
        }
    }
    return points;
}

int
SweepRunner::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(int jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
}

std::vector<Measurement>
SweepRunner::run(const std::vector<SweepPoint> &points)
{
    std::vector<Measurement> results(points.size());
    runTasks(points.size(), [&](std::size_t i) {
        const SweepPoint &pt = points[i];
        results[i] = measureCollective(pt.cfg, pt.p, pt.op, pt.m,
                                       pt.algo, pt.options);
    });
    return results;
}

void
SweepRunner::runTasks(std::size_t n,
                      const std::function<void(std::size_t)> &task)
{
    auto wall_start = std::chrono::steady_clock::now();
    MemoStats memo_before = memoStats();

    auto simulate = [&](std::size_t i) { task(i); };

    int workers = jobs_;
    if (static_cast<std::size_t>(workers) > n)
        workers = static_cast<int>(n);

    if (workers <= 1) {
        // Serial reference path: no pool, no atomics.
        for (std::size_t i = 0; i < n; ++i)
            simulate(i);
    } else {
        // Dynamic work-stealing over a shared index: points vary in
        // cost by orders of magnitude (p = 2 vs p = 128), so static
        // partitioning would leave most workers idle at the tail.
        std::atomic<std::size_t> next{0};
        std::atomic<bool> stop{false};
        std::mutex error_mutex;
        std::exception_ptr first_error;

        auto worker = [&] {
            for (;;) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n || stop.load(std::memory_order_relaxed))
                    return;
                try {
                    simulate(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                    stop.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
        if (first_error)
            std::rethrow_exception(first_error);
    }

    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    MemoStats memo_after = memoStats();
    stats_.points = n;
    stats_.wall_seconds = wall.count();
    stats_.memo_hits = memo_after.hits - memo_before.hits;
    stats_.memo_misses = memo_after.misses - memo_before.misses;
}

} // namespace ccsim::harness
