/**
 * @file
 * Bounded-memory streaming quantile sketch for latency distributions.
 *
 * An HDR-histogram-style log-bucketed counter array: values below
 * 2*kSubBuckets land in exact unit buckets; above that, each power-of-
 * two octave is split into kSubBuckets linear sub-buckets, bounding the
 * relative rank error at 1/kSubBuckets (~3.1%). Everything is integer
 * arithmetic over picosecond ticks, so results are identical across
 * platforms, merges are exact and associative (bucket-wise addition),
 * and epoch deltas are exact subtractions.
 *
 * The count array is stored only up to the highest bucket recorded so
 * far and grows on demand (at most kBuckets, 15 KiB). A sketch of small
 * values — a link-occupancy depth, a sub-microsecond latency — costs a
 * few hundred bytes to build instead of a zero-filled 15 KiB block.
 * Missing tail buckets read as zero everywhere (merge, subtract,
 * operator==, quantile), so the stored length never changes a result.
 * record() allocates only when a value lands past every bucket seen so
 * far, which stops once the distribution's maximum has been reached.
 *
 * Header-only with no dependencies beyond the standard library, so the
 * net layer can embed sketches without linking the obs library.
 */

#ifndef MEMNET_OBS_QUANTILE_SKETCH_HH
#define MEMNET_OBS_QUANTILE_SKETCH_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace memnet
{
namespace obs
{

class QuantileSketch
{
  public:
    /** Linear sub-buckets per octave: 2^5 = 32. */
    static constexpr int kSubBits = 5;
    static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBits;
    /**
     * Bucket count covering all of uint64: indices [0, 2*kSubBuckets)
     * are exact; each further shift (1..63-kSubBits) adds kSubBuckets.
     */
    static constexpr std::size_t kBuckets =
        static_cast<std::size_t>((64 - kSubBits + 1) * kSubBuckets);

    /** Worst-case relative error of any quantile estimate. */
    static constexpr double kRelativeError = 1.0 / kSubBuckets;

    /** Index of the bucket holding @p v. */
    static constexpr std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < 2 * kSubBuckets)
            return static_cast<std::size_t>(v);
        const int msb = 63 - std::countl_zero(v);
        const int shift = msb - kSubBits;
        const std::uint64_t sub = (v >> shift) & (kSubBuckets - 1);
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(shift) + 1) * kSubBuckets + sub);
    }

    /** Largest value mapping to bucket @p idx (quantiles err high). */
    static constexpr std::uint64_t
    bucketUpperBound(std::size_t idx)
    {
        if (idx < 2 * kSubBuckets)
            return idx;
        const int shift = static_cast<int>(idx / kSubBuckets) - 1;
        const std::uint64_t sub = idx % kSubBuckets;
        return ((kSubBuckets + sub + 1) << shift) - 1;
    }

    void
    record(std::uint64_t v)
    {
        const std::size_t b = bucketOf(v);
        if (b >= counts_.size())
            counts_.resize(b + 1);
        ++counts_[b];
        ++n_;
        sum_ += v;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t samples() const { return n_; }
    std::uint64_t sum() const { return sum_; }
    /** Exact maximum recorded value (0 when empty). */
    std::uint64_t maxValue() const { return max_; }

    /**
     * Value at quantile @p q in [0, 1]. Returns an upper bound within
     * kRelativeError of the exact order statistic, clamped to the exact
     * maximum. An empty sketch always answers 0 (never NaN/UB) — callers
     * pair the value with samples() to tell "no data" from "all zero".
     */
    std::uint64_t
    quantile(double q) const
    {
        if (n_ == 0)
            return 0;
        if (q < 0.0)
            q = 0.0;
        if (q > 1.0)
            q = 1.0;
        // Rank of the target order statistic, 1-based.
        std::uint64_t rank =
            static_cast<std::uint64_t>(q * static_cast<double>(n_) + 0.5);
        if (rank < 1)
            rank = 1;
        if (rank > n_)
            rank = n_;
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            cum += counts_[i];
            if (cum >= rank) {
                const std::uint64_t ub = bucketUpperBound(i);
                return ub < max_ ? ub : max_;
            }
        }
        return max_; // unreachable: cum == n_ after the loop
    }

    /** Exact bucket-wise merge; associative and commutative. */
    void
    merge(const QuantileSketch &o)
    {
        if (o.counts_.size() > counts_.size())
            counts_.resize(o.counts_.size());
        for (std::size_t i = 0; i < o.counts_.size(); ++i)
            counts_[i] += o.counts_[i];
        n_ += o.n_;
        sum_ += o.sum_;
        if (o.max_ > max_)
            max_ = o.max_;
    }

    /**
     * Exact bucket-wise subtraction of an earlier snapshot (epoch
     * deltas). The caller guarantees @p prev is a prefix of this
     * sketch's history. maxValue() keeps the cumulative maximum — an
     * upper bound for the delta window, not its exact max.
     */
    void
    subtract(const QuantileSketch &prev)
    {
        if (prev.counts_.size() > counts_.size())
            counts_.resize(prev.counts_.size());
        for (std::size_t i = 0; i < prev.counts_.size(); ++i)
            counts_[i] -= prev.counts_[i];
        n_ -= prev.n_;
        sum_ -= prev.sum_;
    }

    void reset() { *this = QuantileSketch{}; }

    /** Equal contents; the stored lengths may differ (missing = 0). */
    bool
    operator==(const QuantileSketch &o) const
    {
        if (n_ != o.n_ || sum_ != o.sum_ || max_ != o.max_)
            return false;
        const std::size_t n = std::max(counts_.size(), o.counts_.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (count(i) != o.count(i))
                return false;
        }
        return true;
    }

    /** Buckets currently stored (memory footprint; not a result). */
    std::size_t storedBuckets() const { return counts_.size(); }

  private:
    std::uint64_t
    count(std::size_t i) const
    {
        return i < counts_.size() ? counts_[i] : 0;
    }

    /** Counts for buckets [0, size()); every later bucket is zero. */
    std::vector<std::uint64_t> counts_;
    std::uint64_t n_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * The latency observatory's component sketches, all in picoseconds.
 * dram is the residual (end-to-end minus everything attributed to
 * links), i.e. vault service time; see docs/OBSERVABILITY.md.
 */
struct LatencySketches
{
    QuantileSketch endToEnd;
    QuantileSketch queue;
    QuantileSketch wakeStall;
    QuantileSketch retrainStall;
    QuantileSketch ser;
    QuantileSketch dram;

    void
    reset()
    {
        endToEnd.reset();
        queue.reset();
        wakeStall.reset();
        retrainStall.reset();
        ser.reset();
        dram.reset();
    }

    void
    merge(const LatencySketches &o)
    {
        endToEnd.merge(o.endToEnd);
        queue.merge(o.queue);
        wakeStall.merge(o.wakeStall);
        retrainStall.merge(o.retrainStall);
        ser.merge(o.ser);
        dram.merge(o.dram);
    }

    void
    subtract(const LatencySketches &prev)
    {
        endToEnd.subtract(prev.endToEnd);
        queue.subtract(prev.queue);
        wakeStall.subtract(prev.wakeStall);
        retrainStall.subtract(prev.retrainStall);
        ser.subtract(prev.ser);
        dram.subtract(prev.dram);
    }
};

} // namespace obs

/** Percentile summary of one latency component (picoseconds). */
struct LatencyPercentiles
{
    std::uint64_t samples = 0;
    std::uint64_t sumPs = 0;
    std::uint64_t p50Ps = 0;
    std::uint64_t p90Ps = 0;
    std::uint64_t p99Ps = 0;
    std::uint64_t p999Ps = 0;
    std::uint64_t maxPs = 0;
};

inline LatencyPercentiles
summarizeSketch(const obs::QuantileSketch &s)
{
    LatencyPercentiles p;
    p.samples = s.samples();
    p.sumPs = s.sum();
    p.p50Ps = s.quantile(0.50);
    p.p90Ps = s.quantile(0.90);
    p.p99Ps = s.quantile(0.99);
    p.p999Ps = s.quantile(0.999);
    p.maxPs = s.maxValue();
    return p;
}

/**
 * RunResult's latency decomposition: per-component percentiles plus the
 * network-wide stall-attribution totals. All simulation-determined and
 * deterministic, but excluded from audit::diffRunResults like wall_s
 * because the observatory may legitimately be off on one side.
 */
struct LatencyBreakdown
{
    bool enabled = false;
    LatencyPercentiles endToEnd;
    LatencyPercentiles queue;
    LatencyPercentiles wakeStall;
    LatencyPercentiles retrainStall;
    LatencyPercentiles serialization;
    LatencyPercentiles dram;
    /** Sum over links of packet-seconds blocked behind wakes. */
    double wakeStallSeconds = 0.0;
    /** Sum over links of packet-seconds blocked behind retrains. */
    double retrainStallSeconds = 0.0;
    /** Largest waiting-queue depth seen on any link. */
    std::uint64_t queuePeak = 0;
};

inline LatencyBreakdown
summarizeLatency(const obs::LatencySketches &s)
{
    LatencyBreakdown b;
    b.enabled = true;
    b.endToEnd = summarizeSketch(s.endToEnd);
    b.queue = summarizeSketch(s.queue);
    b.wakeStall = summarizeSketch(s.wakeStall);
    b.retrainStall = summarizeSketch(s.retrainStall);
    b.serialization = summarizeSketch(s.ser);
    b.dram = summarizeSketch(s.dram);
    return b;
}

} // namespace memnet

#endif // MEMNET_OBS_QUANTILE_SKETCH_HH
