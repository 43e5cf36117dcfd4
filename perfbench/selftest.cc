/**
 * @file
 * Self-test of the benchmark's own checks: a perturbed physics field
 * fails the run, kernel bookkeeping does not, the seed reaches the
 * generated inputs, and impossible numbers are refused. Exits non-zero
 * on the first failed expectation. Run through perfbench/test_run.py.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "memnet/simulator.hh"
#include "metrics.hh"
#include "physics.hh"
#include "workloads.hh"

using namespace memnet;
using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

/** A short aware run: every observatory and ledger field is populated. */
RunResult
shortRun(std::uint64_t seed)
{
    SystemConfig cfg = makeWorkload("aware_big", seed).single;
    cfg.warmup = us(100);
    cfg.measure = us(30);
    return runSimulation(cfg);
}

void
testPerturbedPhysicsFails(const RunResult &r)
{
    const std::string base = physicsText(r);
    const std::vector<std::pair<const char *,
                                std::function<void(RunResult &)>>>
        physics = {
            {"idleIoFrac", [](RunResult &x) {
                 x.idleIoFrac = std::nextafter(x.idleIoFrac, 1.0);
             }},
            {"completedReads", [](RunResult &x) { ++x.completedReads; }},
            {"perHmc.dramDynW", [](RunResult &x) {
                 x.perHmc.dramDynW *= 1.0 + 1e-15;
             }},
            {"reliability.retries",
             [](RunResult &x) { ++x.reliability.retries; }},
            {"latency.endToEnd.p99Ps",
             [](RunResult &x) { ++x.latency.endToEnd.p99Ps; }},
            {"energy.attribution.wakeJ",
             [](RunResult &x) { x.energy.attribution.wakeJ += 1e-18; }},
            {"linkHours[4][3]",
             [](RunResult &x) { x.linkHours[4][3] += 1e-12; }},
            {"modules.back().flitsRouted",
             [](RunResult &x) { ++x.modules.back().flitsRouted; }},
        };
    for (const auto &[name, perturb] : physics) {
        RunResult x = r;
        perturb(x);
        expect(digestOf({physicsText(x)}) != digestOf({base}),
               std::string("perturbing ") + name + " fails the run");
    }

    RunResult k = r;
    ++k.eventsFired;
    ++k.profile.eventsFired;
    ++k.profile.eventsScheduled;
    ++k.profile.eventsDescheduled;
    ++k.profile.peakQueueDepth;
    k.profile.wallSeconds *= 2.0;
    expect(physicsText(k) == base,
           "kernel bookkeeping and wall time are outside the check");

    RunResult noObs = r;
    noObs.latency = {};
    noObs.energy = {};
    expect(physicsText(noObs, false) == physicsText(r, false) &&
               physicsText(noObs) != base,
           "observatory summaries are left out only on request");

    MultiChannelResult mc;
    mc.channelUtil = {0.25, 0.5};
    const std::string mcBase = physicsText(mc);
    mc.channelUtil[1] = std::nextafter(0.5, 1.0);
    expect(physicsText(mc) != mcBase,
           "perturbing a multi-channel ledger fails the run");
}

void
testSeedChangesInputs(const RunResult &seed1)
{
    for (const std::string &name : workloadNames()) {
        const Workload a = makeWorkload(name, 1);
        const Workload b = makeWorkload(name, 2);
        const SystemConfig &ca =
            a.kind == Workload::Kind::Sweep ? a.cells.front().aware
            : a.kind == Workload::Kind::Multi ? a.multi.base
                                              : a.single;
        const SystemConfig &cb =
            b.kind == Workload::Kind::Sweep ? b.cells.front().aware
            : b.kind == Workload::Kind::Multi ? b.multi.base
                                              : b.single;
        expect(ca.seed == 1 && cb.seed == 2,
               name + " passes the seed argument as SystemConfig::seed");
    }
    const RunResult seed2 = shortRun(2);
    expect(physicsText(seed2) != physicsText(seed1),
           "another seed generates another access stream");
    expect(physicsText(shortRun(1)) == physicsText(seed1),
           "the same seed generates the same access stream");
}

void
testImpossibleNumbersRefused()
{
    Metrics m;
    const auto refused = [&](const std::function<void()> &f) {
        try {
            f();
        } catch (const ImpossibleNumber &) {
            return true;
        }
        return false;
    };
    expect(refused([&] { m.rate("r", "1/s", 1.0, 0.0); }),
           "a rate over a zero duration is refused");
    expect(refused([&] { m.rate("r", "1/s", 4.3e6, 1e-9); }),
           "a rate over a sub-resolution duration is refused");
    expect(refused([&] {
               m.add("x", "s", std::numeric_limits<double>::infinity());
           }),
           "an infinite value is refused");
    expect(refused([&] { m.add("x", "s", std::nan("")); }),
           "a NaN value is refused");
    expect(m.entries().empty(), "refused values are not recorded");
    m.rate("r", "1/s", 3.0, 1.5);
    expect(m.entries().size() == 1 && m.entries()[0].value == 2.0,
           "a rate over a measurable duration is recorded");
}

} // namespace

int
main()
{
    const RunResult r = shortRun(1);
    testPerturbedPhysicsFails(r);
    testSeedChangesInputs(r);
    testImpossibleNumbersRefused();
    std::printf("%s: %d failed\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
