/**
 * @file
 * The benchmark's workloads, and one timed call of each through the
 * library's public entry points: Simulator, runMultiChannel, Runner and
 * ParallelRunner. Every SystemConfig field a workload does not name
 * keeps its default, so an optimisation counts only if it is on by
 * default. Why each workload exists is recorded in BENCHMARK.json and
 * perfbench/README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "memnet/config.hh"
#include "memnet/multichannel.hh"

namespace perfbench
{

/** One fig15 cell: the unaware and aware runs of one workload/topology. */
struct Cell
{
    memnet::SystemConfig unaware;
    memnet::SystemConfig aware;
};

struct Workload
{
    enum class Kind
    {
        Single, ///< one Simulator::run per call
        Sweep,  ///< a fig15-style sweep on ParallelRunner per call
        Multi,  ///< one runMultiChannel per call
    };

    std::string name;
    Kind kind = Kind::Single;
    memnet::SystemConfig single;
    std::vector<Cell> cells;
    memnet::MultiChannelConfig multi;
    /**
     * Closed-loop clients: threads that each start their next call when
     * the last one returns. Load never exceeds 2 threads in all.
     */
    int clients = 1;
    /** ParallelRunner workers of a sweep. */
    int jobs = 1;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name with @p seed as every run's SystemConfig::seed,
 * which is the only input the seed reaches.
 * @throws std::invalid_argument for an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** How a call deviates from the workload's default configuration. */
struct Variant
{
    bool observatories = true; ///< latencyObs and energyObs
    bool audit = false;        ///< SystemConfig::audit
};

/** Everything one call of a workload produced. */
struct CallResult
{
    /** Host seconds of the whole call. */
    double wallSeconds = 0.0;
    /** Simulated microseconds (warmup + measure) summed over its runs. */
    double simMicros = 0.0;
    /** Single-network runs, in workload order (empty for Multi). */
    std::vector<memnet::RunResult> runs;
    /** The multi-channel result (Multi only). */
    memnet::MultiChannelResult multi;
    /** Physics text of each run (physicsText). */
    std::vector<std::string> physics;
    /** The same with the observatory summaries left out. */
    std::vector<std::string> physicsNoObs;

    /** Sweep only: Runner requests, and the runs they executed. */
    std::uint64_t requests = 0;
    std::uint64_t executed = 0;
    /** Sweep only: mean network-power reduction of aware vs unaware. */
    double awareVsUnaware = 0.0;
};

/**
 * Run one call of @p w. The benchmark's own profiler spans
 * (bench/...) wrap its calls into the library, so a traced call shows
 * them as parents of the library's spans.
 */
CallResult runCall(const Workload &w, const Variant &v = {});

/**
 * Host seconds to assemble a workload's system and collect its results
 * with an empty simulated window: one entry per probe, each a
 * configuration of @p w run with warmup 0 and a 1 ns measure window.
 */
std::vector<double> setupProbes(const Workload &w, int probes);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
