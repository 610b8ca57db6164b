#include "report.hh"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

/** Keeps the pace slice's work observable. */
std::uint64_t g_pace_sink = 0;

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kb = 0.0;
            ls >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

std::vector<std::size_t>
InputRng::permutation(std::size_t n)
{
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[below(i)]);
    return v;
}

Pace::Pace()
{
    cpu_set_t one;
    CPU_ZERO(&one);
    const int cpu = sched_getcpu();
    CPU_SET(cpu >= 0 ? cpu : 0, &one);
    sched_setaffinity(0, sizeof(one), &one);

    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error("pace: pipe failed");
    pid_ = fork();
    if (pid_ < 0)
        throw std::runtime_error("pace: fork failed");
    if (pid_ == 0) {
        close(fds[0]);
        helper(fds[1]);
    }
    close(fds[1]);
    fd_ = fds[0];
    fcntl(fd_, F_SETFL, O_NONBLOCK);
}

Pace::~Pace()
{
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    close(fd_);
}

void
Pace::helper(int fd)
{
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const timespec period{0, 50 * 1000 * 1000};
    for (;;) {
        nanosleep(&period, nullptr);
        Slice s{};
        s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now().time_since_epoch())
                         .count();
        s.cpu_ns = static_cast<std::int64_t>(sample() * 1e9);
        s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now().time_since_epoch())
                       .count();
        if (write(fd, &s, sizeof(s)) != sizeof(s))
            _exit(0);
    }
}

double
Pace::sample()
{
    timespec c0{}, c1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c0);
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    std::vector<std::unique_ptr<std::uint64_t[]>> live;
    std::uint64_t x = 1;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        counts[x % 5000] += static_cast<std::uint64_t>(i);
        live.emplace_back(new std::uint64_t[4 + (x >> 59) % 28]);
        if (live.size() > 256)
            live.erase(live.begin(), live.begin() + 128);
    }
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c1);
    g_pace_sink += counts.size();
    return static_cast<double>(c1.tv_sec - c0.tv_sec) +
           1e-9 * static_cast<double>(c1.tv_nsec - c0.tv_nsec);
}

void
Pace::drain()
{
    Slice s{};
    while (read(fd_, &s, sizeof(s)) == sizeof(s))
        slices_.push_back(s);
}

Pace::Window
Pace::between(Clock::time_point from, Clock::time_point to)
{
    drain();
    auto ns = [](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t.time_since_epoch())
            .count();
    };
    Window w;
    for (const Slice &s : slices_)
        if (s.start_ns >= ns(from) && s.end_ns <= ns(to)) {
            w.slices.push_back(1e-9 * static_cast<double>(s.cpu_ns));
            w.busy_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
        }
    return w;
}

void
PacedTimer::start()
{
    before_ = Pace::sample();
    t0_ = Clock::now();
}

void
PacedTimer::stop()
{
    const auto t1 = Clock::now();
    const double after = Pace::sample();
    raw_ = std::chrono::duration<double>(t1 - t0_).count();
    const Pace::Window w = pace_->between(t0_, t1);
    double scale = Pace::kReferenceSeconds / before_ +
                   Pace::kReferenceSeconds / after;
    for (double s : w.slices)
        scale += Pace::kReferenceSeconds / s;
    scale /= static_cast<double>(w.slices.size() + 2);
    paced_ = (raw_ - w.busy_s) * scale;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
Tracer::begin(const std::string &name, int parent,
              std::uint64_t request_id)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.request_id = request_id;
    s.start_ns = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int id)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end_ns = t;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.start_ns
           << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
           << ",\"request_id\":" << s.request_id << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

void
Outcome::fail(std::uint64_t n, const std::string &why)
{
    failed += n;
    if (errors.size() < 8)
        errors.push_back(why);
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
