/**
 * @file
 * Named metrics with units, guarded against impossible numbers, plus
 * the order statistics and profiler-tree sums the benchmark reports.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/prof.hh"

namespace perfbench
{

/**
 * Durations below this are refused as a rate's denominator: steady_clock
 * reads on this class of host are not trustworthy below a microsecond.
 */
constexpr double kMinDurationSeconds = 1e-6;

/** Raised instead of reporting a value that cannot be right. */
class ImpossibleNumber : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        std::string unit;
        double value = 0.0;
    };

    /** Record @p value. @throws ImpossibleNumber unless finite. */
    void add(const std::string &name, const std::string &unit,
             double value);

    /**
     * Record @p amount / @p seconds. @throws ImpossibleNumber when the
     * duration is zero, negative or below kMinDurationSeconds.
     */
    void rate(const std::string &name, const std::string &unit,
              double amount, double seconds);

    const std::vector<Entry> &entries() const { return entries_; }

    /** {"name": {"value": v, "unit": "u"}, ...} with full precision. */
    std::string json() const;

  private:
    std::vector<Entry> entries_;
};

/** @p num / @p den, or 0 when nothing was counted (den == 0). */
double ratio(double num, double den);

/** Linear-interpolated quantile, @p q in [0, 1]; @p v must be non-empty. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Peak resident set size of this process image (VmHWM), in MiB. */
double peakRssMiB();

/** Inclusive time and entry count of every span with one name. */
struct SpanTotal
{
    std::uint64_t ns = 0;
    std::uint64_t selfNs = 0;
    std::uint64_t count = 0;
};

/** Sum a profiler tree by span name, over every thread and depth. */
std::map<std::string, SpanTotal>
spanTotals(const memnet::prof::PhaseTree &tree);

/**
 * The src/ module a span's self time belongs to, from its "prefix/"
 * name: eq and part are sim; sim, mc, parallel and the benchmark's own
 * bench spans around facade calls are memnet. "" for bench/parallel_run,
 * whose self time is waiting, not work.
 */
std::string layerOf(const std::string &span);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
