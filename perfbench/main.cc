/**
 * @file
 * memnet_perfbench: one workload of the repository benchmark.
 *
 *   memnet_perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--expect <digest>]
 *                    [--trace-out <path>]
 *   memnet_perfbench --workload <name> --seed <n> --record
 *
 * --trace 0 times calls of the workload for --seconds and prints the
 * end-to-end metrics; --trace 1 prints the per-layer metrics from
 * untraced, observatory-off and one profiled call. Either way every
 * call's simulated physics is checked: against --expect, the digest the
 * benchmark recorded for this workload and seed, or, without one,
 * against a separate pass with the runtime auditor on. --record prints
 * that digest from an audited call. The last stdout line is the JSON
 * result; perfbench/run.py validates it against BENCHMARK.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hh"
#include "obs/prof.hh"
#include "physics.hh"
#include "sim/log.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool record = false;
    std::string expect;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "memnet_perfbench: %s\nusage: memnet_perfbench "
                 "--workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--expect <digest>] [--trace-out <path>] | --record\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage("bad --seed " + val);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(a.seconds > 0.0))
                usage("bad --seconds " + val);
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("bad --trace " + val);
            a.trace = val == "1";
        } else if (flag == "--expect") {
            a.expect = val;
        } else if (flag == "--trace-out") {
            a.traceOut = val;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return a;
}

/** Simulation runs one call of @p w performs. */
std::uint64_t
runsPerCall(const Workload &w)
{
    return w.kind == Workload::Kind::Sweep ? 3 * w.cells.size() : 1;
}

/** Attempted and failed runs, with a line per failure. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(std::uint64_t runs, const std::string &why)
    {
        failed += runs;
        std::printf("FAIL %s\n", why.c_str());
    }
};

/**
 * What is kept of each call. Only the first call is kept whole, so
 * memory does not grow with the number of calls a run makes.
 */
struct CallSummary
{
    double wallSeconds = 0.0;
    double simMicros = 0.0;
    /** Per-run wall times: RunProfile::wallSeconds, or the whole call. */
    std::vector<double> runWallsMs;
    std::string digest;
    std::string digestNoObs;
};

struct Calls
{
    std::vector<CallSummary> done;
    CallResult first;
};

CallSummary
summarize(const CallResult &c)
{
    CallSummary s;
    s.wallSeconds = c.wallSeconds;
    s.simMicros = c.simMicros;
    if (c.runs.empty())
        s.runWallsMs.push_back(c.wallSeconds * 1e3);
    for (const memnet::RunResult &r : c.runs)
        s.runWallsMs.push_back(r.profile.wallSeconds * 1e3);
    s.digest = digestOf(c.physics);
    s.digestNoObs = digestOf(c.physicsNoObs);
    return s;
}

double
sumWall(const Calls &calls)
{
    double s = 0.0;
    for (const CallSummary &c : calls.done)
        s += c.wallSeconds;
    return s;
}

/**
 * Calls of @p w from @p clients closed-loop threads, each starting its
 * next call when the last one returns, until a call would end after
 * @p seconds (at least @p minCalls, at most @p maxCalls in all).
 * Throwing calls count as failed.
 */
Calls
callsFor(const Workload &w, const Variant &v, double seconds, int minCalls,
         int maxCalls, int clients, Ledger &ledger)
{
    Calls out;
    std::mutex mu; // guards out, ledger and started
    int started = 0;
    const auto t0 = Clock::now();
    const auto client = [&] {
        for (;;) {
            {
                const std::lock_guard<std::mutex> lock(mu);
                const double spent =
                    std::chrono::duration<double>(Clock::now() - t0)
                        .count();
                const double mean =
                    out.done.empty()
                        ? 0.0
                        : sumWall(out) /
                              static_cast<double>(out.done.size());
                if (started >= maxCalls ||
                    (started >= minCalls && spent + mean > seconds))
                    return;
                ++started;
                ledger.attempted += runsPerCall(w);
            }
            std::string error;
            try {
                CallResult c = runCall(w, v);
                CallSummary s = summarize(c);
                const std::lock_guard<std::mutex> lock(mu);
                out.done.push_back(std::move(s));
                if (out.done.size() == 1)
                    out.first = std::move(c);
                continue;
            } catch (const std::exception &e) {
                error = e.what();
            } catch (...) {
                error = "unknown exception";
            }
            const std::lock_guard<std::mutex> lock(mu);
            ledger.fail(runsPerCall(w), "call threw: " + error);
        }
    };
    std::vector<std::thread> pool;
    for (int i = 0; i < clients; ++i)
        pool.emplace_back(client);
    for (std::thread &t : pool)
        t.join();
    if (out.done.empty())
        throw ImpossibleNumber("no call of the workload succeeded");
    return out;
}

/**
 * The reference physics digest: @p expect when the benchmark recorded
 * one for this seed, else that of an audited pass (empty when it fails).
 */
std::string
referenceDigest(const Workload &w, const std::string &expect,
                Ledger &ledger)
{
    if (!expect.empty())
        return expect;
    std::printf("info no recorded reference for this seed: "
                "checking against an audited pass\n");
    ledger.attempted += runsPerCall(w);
    try {
        return digestOf(runCall(w, Variant{.audit = true}).physics);
    } catch (const std::exception &e) {
        ledger.fail(runsPerCall(w),
                    std::string("audited pass threw: ") + e.what());
        return "";
    }
}

void
checkAgainst(const Workload &w, const Calls &calls, const std::string &ref,
             Ledger &ledger)
{
    for (const CallSummary &c : calls.done) {
        if (c.digest != ref)
            ledger.fail(runsPerCall(w), "physics digest " + c.digest +
                                            " != reference " + ref);
    }
}

std::vector<double>
callWalls(const Calls &calls)
{
    std::vector<double> v;
    for (const CallSummary &c : calls.done)
        v.push_back(c.wallSeconds);
    return v;
}

/** Informational paper numbers (EXPERIMENTS.md); never gated. */
void
printPaperReference(const Workload &w, const CallResult &c)
{
    if (w.name == "fullpower_daisy_writes") {
        std::printf("paper power.idle_io_frac: this run %.4f; paper 0.67 "
                    "(big study); EXPERIMENTS.md 0.63 (big-study mean)\n",
                    c.runs.front().idleIoFrac);
    } else if (w.name == "fig15_sweep") {
        std::printf("paper aware-vs-unaware network power reduction: this "
                    "sweep %.4f (VWL+ROO, alpha 5%%, %.0f us runs); paper "
                    "0.11 (small study); EXPERIMENTS.md 0.091\n",
                    c.awareVsUnaware, c.simMicros / c.runs.size());
    } else {
        return;
    }
    std::printf("paper the power model is unvalidated against hardware, "
                "so no hardware error figure is given\n");
}

void
emit(const Metrics &m, const Ledger &ledger)
{
    for (const Metrics::Entry &e : m.entries())
        std::printf("metric %-34s %.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    std::printf("info failed_frac %.6g (%llu failed of %llu attempted "
                "runs)\n",
                ratio(static_cast<double>(ledger.failed),
                      static_cast<double>(ledger.attempted)),
                static_cast<unsigned long long>(ledger.failed),
                static_cast<unsigned long long>(ledger.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ledger.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted),
                static_cast<unsigned long long>(ledger.failed),
                m.json().c_str());
}

/** --trace 0: the end-to-end metrics of untraced calls. */
int
timedMode(const Workload &w, const Args &a)
{
    Ledger ledger;
    // Setup takes well under a millisecond, so many probes go into the
    // median: every sweep configuration twice, or 101 of the one config.
    const int probes = w.kind == Workload::Kind::Sweep
                           ? 2 * static_cast<int>(runsPerCall(w))
                           : 101;
    const std::vector<double> setup = setupProbes(w, probes);

    const Calls calls =
        callsFor(w, Variant{}, a.seconds, 1, 1000, w.clients, ledger);
    const double rss = peakRssMiB();
    checkAgainst(w, calls, referenceDigest(w, a.expect, ledger), ledger);

    // Host speed on a shared machine drifts by tens of percent over
    // seconds, so the rate is that of the fastest call (min of K): the
    // least disturbed measurement, and the steadiest across runs.
    double simMicros = 0.0;
    const CallSummary *fastest = &calls.done.front();
    std::vector<double> runWallsMs;
    for (const CallSummary &c : calls.done) {
        simMicros += c.simMicros;
        if (c.simMicros * fastest->wallSeconds >
            fastest->simMicros * c.wallSeconds)
            fastest = &c;
        runWallsMs.insert(runWallsMs.end(), c.runWallsMs.begin(),
                          c.runWallsMs.end());
    }

    Metrics m;
    m.rate("sim_us_per_wall_s", "us/s", fastest->simMicros,
           fastest->wallSeconds);
    m.add("setup_s", "s", median(setup));
    m.add("peak_rss_mb", "MiB", rss);
    m.add("run_wall_p50_ms", "ms", quantile(runWallsMs, 0.5));
    m.add("run_wall_p90_ms", "ms", quantile(runWallsMs, 0.9));
    std::printf("info sim_us_per_wall_s is the fastest of %zu calls; "
                "over all calls it is %.6g us/s\n",
                calls.done.size(), simMicros / sumWall(calls));
    std::printf("info %zu calls, %zu run-wall samples (%s), %d setup "
                "probes\n",
                calls.done.size(), runWallsMs.size(),
                w.kind == Workload::Kind::Multi
                    ? "whole runMultiChannel calls"
                    : "RunProfile::wallSeconds of each run",
                probes);
    printPaperReference(w, calls.first);
    emit(m, ledger);
    return 0;
}

/** --trace 1: the per-layer metrics. */
int
tracedMode(const Workload &w, const Args &a)
{
    Ledger ledger;
    const Calls plain =
        callsFor(w, Variant{}, a.seconds / 2, 1, 1000, 1, ledger);
    const int n = static_cast<int>(plain.done.size());
    const Calls noObs = callsFor(w, Variant{.observatories = false},
                                 a.seconds, n, n, 1, ledger);

    memnet::prof::reset();
    memnet::prof::setEnabled(true);
    const Calls traced = callsFor(w, Variant{}, 0.0, 1, 1, 1, ledger);
    memnet::prof::setEnabled(false);
    const memnet::prof::PhaseTree tree = memnet::prof::snapshot();
    if (!a.traceOut.empty()) {
        std::ofstream os(a.traceOut);
        memnet::prof::writeJson(os, tree);
        if (!os)
            throw std::runtime_error("cannot write " + a.traceOut);
    }

    const std::string ref = referenceDigest(w, a.expect, ledger);
    checkAgainst(w, plain, ref, ledger);
    checkAgainst(w, traced, ref, ledger);
    for (const CallSummary &c : noObs.done) {
        if (c.digestNoObs != plain.done.front().digestNoObs)
            ledger.fail(runsPerCall(w), "observatories off changed the "
                                        "physics");
    }

    const CallResult &c = plain.first;
    const std::map<std::string, SpanTotal> spans = spanTotals(tree);
    const auto span = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? SpanTotal{} : it->second;
    };
    const auto perCall = [&](const char *name, double scale) {
        const SpanTotal t = span(name);
        return ratio(static_cast<double>(t.ns) * scale,
                     static_cast<double>(t.count));
    };

    // Counts summed over the call's runs (a sweep has 168).
    double events = 0, scheduled = 0, descheduled = 0, peakDepth = 0;
    double poolHigh = 0, flits = 0, dram = 0, modulesHops = 0;
    double violations = 0, reads = 0, powerW = 0, idleFrac = 0;
    double accesses = 0, wakePs = 0, dramPs = 0, endPs = 0;
    for (const memnet::RunResult &r : c.runs) {
        events += static_cast<double>(r.profile.eventsFired);
        scheduled += static_cast<double>(r.profile.eventsScheduled);
        descheduled += static_cast<double>(r.profile.eventsDescheduled);
        peakDepth = std::max(peakDepth,
                             static_cast<double>(r.profile.peakQueueDepth));
        poolHigh = std::max(
            poolHigh, static_cast<double>(r.profile.packetHeapAllocs));
        accesses += static_cast<double>(r.profile.packetsIssued);
        for (const memnet::ModuleDetail &md : r.modules) {
            flits += static_cast<double>(md.flitsRouted);
            dram += static_cast<double>(md.dramAccesses);
        }
        modulesHops += r.avgModulesTraversed;
        violations += static_cast<double>(r.violations);
        reads += static_cast<double>(r.completedReads);
        powerW += r.totalNetworkPowerW;
        idleFrac += r.idleIoFrac;
        wakePs += static_cast<double>(r.latency.wakeStall.sumPs);
        dramPs += static_cast<double>(r.latency.dram.sumPs);
        endPs += static_cast<double>(r.latency.endToEnd.sumPs);
    }
    if (w.kind == Workload::Kind::Multi) {
        // runMultiChannel returns no RunProfile: accesses are the packet
        // pool's acquires, reads the merged latency sketch's samples.
        const memnet::LatencyBreakdown &lat = c.multi.latency;
        accesses = static_cast<double>(span("net/pkt_alloc").count);
        reads = static_cast<double>(lat.endToEnd.samples);
        wakePs = static_cast<double>(lat.wakeStall.sumPs);
        dramPs = static_cast<double>(lat.dram.sumPs);
        endPs = static_cast<double>(lat.endToEnd.sumPs);
        powerW = c.multi.totalPowerW;
        idleFrac = c.multi.idleIoFrac;
    } else {
        const double nRuns = static_cast<double>(c.runs.size());
        powerW /= nRuns;
        idleFrac /= nRuns;
        modulesHops /= nRuns;
    }

    double simWallMs = 0.0;
    for (const CallSummary &p : plain.done)
        for (double ms : p.runWallsMs)
            simWallMs += ms;

    std::map<std::string, double> layerSelf;
    double selfTotal = 0.0;
    for (const auto &[name, t] : spans) {
        const std::string layer = layerOf(name);
        if (layer.empty())
            continue;
        layerSelf[layer] += static_cast<double>(t.selfNs);
        selfTotal += static_cast<double>(t.selfNs);
    }

    const double plainWall = median(callWalls(plain));
    const double busyNs = static_cast<double>(span("parallel/job").ns);
    const double poolNs =
        static_cast<double>(span("bench/parallel_run").ns) * w.jobs;

    Metrics m;
    m.add("sim.events_per_access", "ratio", ratio(events, accesses));
    m.add("sim.scheduled_per_access", "ratio", ratio(scheduled, accesses));
    m.add("sim.descheduled_per_access", "ratio",
          ratio(descheduled, accesses));
    m.add("sim.peak_queue_depth", "count", peakDepth);
    m.add("sim.dispatch_self_ns_per_event", "ns",
          ratio(static_cast<double>(span("eq/dispatch").selfNs), events));
    if (c.runs.empty())
        m.add("sim.events_per_s", "1/s", 0.0);
    else
        m.rate("sim.events_per_s", "1/s", events * n, simWallMs * 1e-3);
    m.add("sim.self_share", "ratio", ratio(layerSelf["sim"], selfTotal));

    m.add("net.route_calls_per_access", "ratio",
          ratio(static_cast<double>(span("net/route").count), accesses));
    m.add("net.route_ns_per_call", "ns", perCall("net/route", 1.0));
    m.add("net.inject_ns_per_call", "ns", perCall("net/inject", 1.0));
    m.add("net.modules_per_access", "ratio", modulesHops);
    m.add("net.flits_per_access", "ratio", ratio(flits, accesses));
    m.add("net.pool_high_water", "count", poolHigh);
    m.add("net.self_share", "ratio", ratio(layerSelf["net"], selfTotal));

    m.add("dram.accesses_per_access", "ratio", ratio(dram, accesses));
    m.add("dram.latency_share", "ratio", ratio(dramPs, endPs));
    m.add("linkpm.wake_stall_share", "ratio", ratio(wakePs, endPs));

    m.add("mgmt.epochs", "count",
          static_cast<double>(span("mgmt/epoch").count));
    m.add("mgmt.isp_rounds", "count",
          static_cast<double>(span("mgmt/isp_round").count));
    m.add("mgmt.epoch_us_per_call", "us", perCall("mgmt/epoch", 1e-3));
    m.add("mgmt.violations", "count", violations);
    m.add("mgmt.self_share", "ratio", ratio(layerSelf["mgmt"], selfTotal));

    m.add("power.idle_io_frac", "ratio", idleFrac);
    m.add("power.network_w", "W", powerW);

    m.add("workload.accesses", "count", accesses);
    m.add("workload.reads", "count", reads);

    m.add("memnet.build_ms_per_run", "ms", perCall("sim/build", 1e-6));
    m.add("memnet.collect_ms_per_run", "ms", perCall("sim/collect", 1e-6));
    m.add("memnet.key_us_per_call", "us", perCall("bench/runner_key", 1e-3));
    m.add("memnet.memo_hit_frac", "ratio",
          ratio(static_cast<double>(c.requests - c.executed),
                static_cast<double>(c.requests)));
    m.add("memnet.pool_busy_frac", "ratio", ratio(busyNs, poolNs));
    m.add("memnet.mc_fanout_ms", "ms",
          static_cast<double>(span("mc/fanout").ns) * 1e-6);
    m.add("memnet.self_share", "ratio",
          ratio(layerSelf["memnet"], selfTotal));

    m.add("obs.trace_overhead_frac", "ratio",
          traced.done.front().wallSeconds / plainWall - 1.0);
    m.add("obs.observatory_overhead_frac", "ratio",
          plainWall / median(callWalls(noObs)) - 1.0);

    std::printf("info %d untraced and %zu observatory-off calls, 1 traced "
                "call; counts are from one untraced call\n",
                n, noObs.done.size());
    printPaperReference(w, c);
    emit(m, ledger);
    return 0;
}

/** --record: the digest of one audited call, checked against a plain one. */
int
recordMode(const Workload &w)
{
    const std::string audited =
        digestOf(runCall(w, Variant{.audit = true}).physics);
    const std::string plain = digestOf(runCall(w).physics);
    if (audited != plain) {
        std::fprintf(stderr, "memnet_perfbench: audited %s != plain %s\n",
                     audited.c_str(), plain.c_str());
        return 1;
    }
    std::printf("digest %s\n", plain.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    // Auditor and simulator failures become exceptions, which the
    // benchmark counts as failed runs instead of exiting.
    memnet::detail::setThrowOnError(true);
    try {
        const Workload w = makeWorkload(a.workload, a.seed);
        if (a.record)
            return recordMode(w);
        return a.trace ? tracedMode(w, a) : timedMode(w, a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memnet_perfbench: %s\n", e.what());
        return 1;
    }
}
