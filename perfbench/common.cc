#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace perfbench {

namespace {

thread_local int64_t t_currentSpan = -1;

uint32_t
threadTag()
{
    static std::mutex m;
    static std::map<std::thread::id, uint32_t> ids;
    thread_local uint32_t tag = [] {
        std::lock_guard<std::mutex> lk(m);
        return ids.emplace(std::this_thread::get_id(),
                           static_cast<uint32_t>(ids.size() + 1))
            .first->second;
    }();
    return tag;
}

} // namespace

void
Report::note(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    record[key] = buf;
}

void
Report::fail(const std::string &what)
{
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    correct = false;
}

int64_t
Tracer::nowNs() const
{
    return toNs(Clock::now());
}

int64_t
Tracer::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - _epoch)
        .count();
}

int64_t
Tracer::open(const char *name, uint64_t id)
{
    SpanRec s;
    s.name = name;
    s.parent = t_currentSpan;
    s.id = id;
    s.tid = threadTag();
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lk(_mutex);
    const auto idx = static_cast<int64_t>(_spans.size());
    _spans.push_back(s);
    t_currentSpan = idx;
    return idx;
}

void
Tracer::close(int64_t idx)
{
    const int64_t end = nowNs();
    std::lock_guard<std::mutex> lk(_mutex);
    auto &s = _spans[static_cast<size_t>(idx)];
    s.endNs = end;
    t_currentSpan = s.parent;
}

void
Tracer::record(const char *name, int64_t start_ns, int64_t end_ns,
               uint64_t id, uint32_t tid)
{
    if (!enabled())
        return;
    SpanRec s;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.id = id;
    s.tid = tid;
    std::lock_guard<std::mutex> lk(_mutex);
    _spans.push_back(s);
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(_mutex);
    std::vector<double> out;
    for (const auto &s : _spans) {
        if (name == s.name)
            out.push_back(1e-9 * static_cast<double>(s.endNs - s.startNs));
    }
    return out;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (const double d : durations(name))
        sum += d;
    return sum;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lk(_mutex);
    std::vector<int64_t> child(_spans.size(), 0);
    for (const auto &s : _spans) {
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < _spans.size(); i++) {
        const auto &s = _spans[i];
        out[s.name] +=
            1e-9 * static_cast<double>(s.endNs - s.startNs - child[i]);
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lk(_mutex);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[384];
    for (size_t i = 0; i < _spans.size(); i++) {
        const auto &s = _spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"span\":%zu,\"parent\":%lld,"
                      "\"id\":%llu}}",
                      i == 0 ? "" : ",", s.name,
                      static_cast<int>(std::strcspn(s.name, ".")), s.name,
                      s.tid, 1e-3 * static_cast<double>(s.startNs),
                      1e-3 * static_cast<double>(s.endNs - s.startNs), i,
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.id));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

std::vector<double>
blockRates(std::vector<std::pair<double, double>> events, size_t block)
{
    std::vector<double> rates;
    if (block == 0 || events.size() <= block)
        return rates;
    std::sort(events.begin(), events.end());
    double work = 0;
    for (size_t i = 1; i <= block; i++)
        work += events[i].second;
    for (size_t k = 0; k + block < events.size(); k++) {
        if (k > 0)
            work += events[k + block].second - events[k].second;
        const double span = events[k + block].first - events[k].first;
        if (span > 0)
            rates.push_back(work / span);
    }
    return rates;
}

double
blockRate(std::vector<std::pair<double, double>> events, size_t block)
{
    return median(blockRates(std::move(events), block));
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

int
onlineCpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

double
spreadFraction(uint64_t i, double offset)
{
    constexpr double kGolden = 0.6180339887498949;
    const double x = offset + static_cast<double>(i) * kGolden;
    return x - std::floor(x);
}

} // namespace perfbench
