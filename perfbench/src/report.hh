/**
 * @file
 * What every perfbench workload shares: the run arguments, the
 * outcome a workload hands back, wall-clock, paced and peak-RSS
 * readings, order statistics, the seeded input generator, and the
 * in-memory span tracer of the traced run.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Peak resident set of this process in MB (VmHWM of
 *  /proc/self/status); 0 when the file cannot be read. */
double peakRssMb();

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Linearly interpolated @p q-quantile of @p v, q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/**
 * How fast this process's core runs right now.  On a shared host a
 * core can slow by up to 1.5x, for seconds at a time, when a
 * neighbouring process shares it, and each core slows on its own.  Pace pins the process,
 * and every thread it creates afterwards, to the CPU it starts on, and
 * forks a helper pinned to the same CPU that times a fixed slice of
 * work every 50 ms: hash-map updates and short-lived heap allocations
 * of mixed sizes, the kind of work the simulator's host time goes to.
 * The helper has a heap of its own, so the slice's thread CPU time
 * moves with the core's speed and never with the program or with what
 * the program leaves in its heap.  Construct it before any thread.
 */
class Pace
{
  public:
    Pace();

    /** Stops the helper and waits for it. */
    ~Pace();

    Pace(const Pace &) = delete;
    Pace &operator=(const Pace &) = delete;

    /** Time one slice now on the calling thread: thread CPU seconds
     *  (about 1.5 ms on an uncontended core). */
    static double sample();

    /** The slice's time on the reference core: paced seconds are
     *  host seconds at this pace. */
    static constexpr double kReferenceSeconds = 0.0015;

    struct Window
    {
        std::vector<double> slices; //!< slice times inside the window
        double busy_s = 0.0;        //!< time the slices took from it
    };

    /** The helper's slices that ran between @p from and @p to. */
    Window between(Clock::time_point from, Clock::time_point to);

  private:
    /** One helper record: slice start and end on the steady clock
     *  (ns, shared by both processes) and its CPU time (ns). */
    struct Slice
    {
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int64_t cpu_ns;
    };

    [[noreturn]] static void helper(int fd);
    void drain();

    int pid_ = -1;
    int fd_ = -1; //!< read end of the helper's pipe
    std::vector<Slice> slices_;
};

/**
 * Host time of one timed stretch of work, rescaled to the reference
 * pace.  The scale is the mean reference-to-sample ratio over a slice
 * taken just before, one just after, and the background slices in
 * between; the background slices' own time is taken out of the work.
 */
class PacedTimer
{
  public:
    explicit PacedTimer(Pace &pace) : pace_(&pace) {}

    void start();
    void stop();

    /** Plain wall seconds of the stretch. */
    double raw() const { return raw_; }

    /** Work seconds at the reference pace. */
    double paced() const { return paced_; }

  private:
    Pace *pace_;
    double before_ = 0.0;
    Clock::time_point t0_;
    double raw_ = 0.0;
    double paced_ = 0.0;
};

/** The benchmark's own input generator (splitmix64), so a seed gives
 *  the same inputs whatever the program's RNG does. */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

    /** Fisher-Yates permutation of 0..n-1. */
    std::vector<std::size_t> permutation(std::size_t n);

  private:
    std::uint64_t s_;
};

/** One printed number and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/**
 * Spans of the traced run: name, start, end, parent span and request
 * id, kept in memory and written out once when the run ends.  Spans
 * are recorded only by the benchmark, around its calls into the
 * simulator's libraries; the libraries themselves are not touched.
 */
class Tracer
{
  public:
    static constexpr int kNoParent = -1;

    Tracer();

    /** Open a span; returns its id. */
    int begin(const std::string &name, int parent = kNoParent,
              std::uint64_t request_id = 0);

    /** Close span @p id. */
    void end(int id);

    std::size_t size() const;

    /** Write every span as a JSON array; false when unwritable. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;
        int parent = kNoParent;
        std::uint64_t request_id = 0;
    };

    std::int64_t nowNs() const;

    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Scoped span; does nothing (not even read the clock) when the
 *  tracer is null, so the untraced run pays nothing for it. */
class SpanScope
{
  public:
    SpanScope(Tracer *t, const std::string &name,
              int parent = Tracer::kNoParent, std::uint64_t rid = 0)
        : t_(t), id_(t ? t->begin(name, parent, rid) : Tracer::kNoParent)
    {
    }

    ~SpanScope()
    {
        if (t_)
            t_->end(id_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Tracer *t_;
    int id_;
};

/** Command-line arguments of one benchmark run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string data_dir; //!< pinned reference outputs
    std::string out_dir;  //!< span file of the traced run
    bool pin = false;     //!< rewrite the pinned outputs from this run
    Pace *pace = nullptr; //!< the run's core-speed sampler

    /** Where the traced run writes its spans. */
    std::string
    spanPath() const
    {
        return out_dir + "/" + workload + "-seed" + std::to_string(seed) +
               ".spans.json";
    }
};

/**
 * What one workload reports.  attempted/failed count operations
 * (sweep points, served requests, tuned cells); a wrong output counts
 * as failed.  The untraced run fills setup_s and job_s samples and
 * the workload's named metrics; the traced run fills layers.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; //!< first few failures, for stderr

    std::vector<double> setup_s; //!< one sample per set-up
    std::vector<double> job_s;     //!< paced seconds, one per pass
    std::vector<double> job_raw_s; //!< plain seconds, one per pass
    Metrics named;               //!< the workload's own end-to-end view
    Metrics layers;              //!< per-layer metrics (traced run)

    /** Reference outputs as computed by this run, keyed like the
     *  pinned files (written back by --pin). */
    std::map<std::string, std::string> computed;

    /** Record @p n failed operations with a reason (kept for the
     *  first few only). */
    void fail(std::uint64_t n, const std::string &why);
};

/** "%.17g": every digit as measured. */
std::string formatNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
