#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench
{

void
Metrics::add(const std::string &name, const std::string &unit,
             double value)
{
    if (!std::isfinite(value))
        throw ImpossibleNumber("metric " + name + " is not finite");
    entries_.push_back({name, unit, value});
}

void
Metrics::rate(const std::string &name, const std::string &unit,
              double amount, double seconds)
{
    if (!(seconds >= kMinDurationSeconds))
        throw ImpossibleNumber("metric " + name +
                               " would divide by a duration of " +
                               std::to_string(seconds) + " s");
    add(name, unit, amount / seconds);
}

std::string
Metrics::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
        if (i)
            out += ", ";
        out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        throw ImpossibleNumber("quantile of no samples");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMiB()
{
    // VmHWM belongs to this address space. getrusage's ru_maxrss would
    // also carry the high-water mark of the parent that spawned us.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw ImpossibleNumber("no VmHWM in /proc/self/status");
}

namespace
{

void
sumInto(const memnet::prof::PhaseTree &node,
        std::map<std::string, SpanTotal> &out)
{
    SpanTotal &t = out[node.name];
    t.ns += node.ns;
    t.selfNs += node.selfNs();
    t.count += node.count;
    for (const memnet::prof::PhaseTree &c : node.children)
        sumInto(c, out);
}

} // namespace

std::map<std::string, SpanTotal>
spanTotals(const memnet::prof::PhaseTree &tree)
{
    std::map<std::string, SpanTotal> out;
    for (const memnet::prof::PhaseTree &c : tree.children)
        sumInto(c, out);
    return out;
}

std::string
layerOf(const std::string &span)
{
    // The client thread only waits while the pool's workers run.
    if (span == "bench/parallel_run")
        return "";
    const std::string prefix = span.substr(0, span.find('/'));
    if (prefix == "eq" || prefix == "part")
        return "sim";
    // Self time in the benchmark's spans around facade calls is facade
    // code that no library span covers, such as runMultiChannel's
    // assembly and merge, or Runner's memo lookups.
    if (prefix == "sim" || prefix == "mc" || prefix == "parallel" ||
        prefix == "bench")
        return "memnet";
    return prefix;
}

} // namespace perfbench
