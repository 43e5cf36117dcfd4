#include "workloads.hh"

#include <chrono>
#include <stdexcept>

#include "memnet/experiment.hh"
#include "memnet/parallel.hh"
#include "memnet/simulator.hh"
#include "obs/prof.hh"
#include "physics.hh"

namespace perfbench
{

using namespace memnet;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

SystemConfig
applied(SystemConfig cfg, const Variant &v)
{
    cfg.latencyObs = v.observatories;
    cfg.energyObs = v.observatories;
    cfg.audit = v.audit;
    return cfg;
}

double
simMicros(const SystemConfig &cfg)
{
    return toSeconds(cfg.warmup + effectiveMeasure(cfg)) * 1e6;
}

void
addPhysics(CallResult &out, const RunResult &r)
{
    out.physics.push_back(physicsText(r, true));
    out.physicsNoObs.push_back(physicsText(r, false));
    out.simMicros += r.profile.simSeconds * 1e6;
    out.runs.push_back(r);
}

CallResult
runSingle(const Workload &w, const Variant &v)
{
    const SystemConfig cfg = applied(w.single, v);
    CallResult out;
    const auto t0 = Clock::now();
    RunResult r;
    {
        prof::Scope span("bench/sim_run");
        r = Simulator(cfg).run();
    }
    out.wallSeconds = secondsSince(t0);
    addPhysics(out, r);
    return out;
}

CallResult
runMulti(const Workload &w, const Variant &v)
{
    MultiChannelConfig mc = w.multi;
    mc.base = applied(mc.base, v);
    CallResult out;
    const auto t0 = Clock::now();
    {
        prof::Scope span("bench/mc_run");
        out.multi = runMultiChannel(mc);
    }
    out.wallSeconds = secondsSince(t0);
    out.simMicros = simMicros(mc.base);
    out.physics.push_back(physicsText(out.multi, true));
    out.physicsNoObs.push_back(physicsText(out.multi, false));
    return out;
}

/**
 * The figure-bench workflow (bench/bench_common.hh BenchIo::run): a
 * collect pass records the distinct configs the body requests, a
 * ParallelRunner simulates them, and the body replays against the warm
 * Runner cache.
 */
CallResult
runSweep(const Workload &w, const Variant &v)
{
    std::vector<Cell> cells = w.cells;
    for (Cell &c : cells) {
        c.unaware = applied(c.unaware, v);
        c.aware = applied(c.aware, v);
    }

    CallResult out;
    std::uint64_t requests = 0;
    const auto t0 = Clock::now();
    Runner runner;
    const auto body = [&] {
        double sum = 0.0;
        for (const Cell &c : cells) {
            prof::Scope span("bench/runner_request");
            // Each ratio requests the run and its full-power baseline.
            const double rU = runner.powerReduction(c.unaware);
            const double rA = runner.powerReduction(c.aware);
            runner.degradation(c.unaware);
            runner.degradation(c.aware);
            requests += 8;
            // 1 - P_aware / P_unaware, from the two baseline ratios.
            sum += rU < 1.0 ? 1.0 - (1.0 - rA) / (1.0 - rU) : 0.0;
        }
        return sum / static_cast<double>(cells.size());
    };
    runner.beginCollect();
    body();
    const std::vector<SystemConfig> configs = runner.endCollect();
    requests = 0;
    {
        prof::Scope span("bench/parallel_run");
        ParallelRunner pool(runner, w.jobs);
        pool.run(configs);
    }
    out.awareVsUnaware = body();
    out.wallSeconds = secondsSince(t0);

    out.requests = configs.size() + requests;
    out.executed = static_cast<std::uint64_t>(runner.runsExecuted());
    for (const SystemConfig &cfg : configs) {
        std::string key;
        {
            prof::Scope span("bench/runner_key");
            key = Runner::key(cfg);
        }
        addPhysics(out, runner.results().at(key));
    }
    return out;
}

SystemConfig
probeConfig(SystemConfig cfg)
{
    cfg.warmup = 0;
    cfg.measure = ns(1);
    return cfg;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "aware_big", "fullpower_daisy_writes", "fig15_sweep", "mc4_aware"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    SystemConfig cfg;
    cfg.seed = seed;
    if (name == "aware_big") {
        // The paper's headline configuration and the serial hot path.
        cfg.workload = "mixB";
        cfg.topology = TopologyKind::Star;
        cfg.sizeClass = SizeClass::Big;
        cfg.mechanism = BwMechanism::Vwl;
        cfg.roo = true;
        cfg.policy = Policy::Aware;
        w.single = cfg;
        w.clients = 2;
    } else if (name == "fullpower_daisy_writes") {
        // 45% writes over a 17-module chain with no management: routing
        // and link transmission dominate, mgmt and linkpm are bypassed.
        cfg.workload = "is.D";
        cfg.topology = TopologyKind::DaisyChain;
        cfg.sizeClass = SizeClass::Big;
        w.single = cfg;
        w.clients = 2;
    } else if (name == "fig15_sweep") {
        // Figure 15's small study at one scheme: VWL+ROO, alpha 5%.
        // Two epochs per run keep 168 runs inside one timed call.
        w.kind = Workload::Kind::Sweep;
        w.jobs = 2;
        cfg.sizeClass = SizeClass::Small;
        cfg.mechanism = BwMechanism::Vwl;
        cfg.roo = true;
        cfg.alphaPct = 5.0;
        cfg.warmup = us(100);
        cfg.measure = us(100);
        for (const std::string &wl : memnet::workloadNames()) {
            for (TopologyKind topo : allTopologies()) {
                Cell c;
                c.unaware = cfg;
                c.unaware.workload = wl;
                c.unaware.topology = topo;
                c.unaware.policy = Policy::Unaware;
                c.aware = c.unaware;
                c.aware.policy = Policy::Aware;
                w.cells.push_back(c);
            }
        }
    } else if (name == "mc4_aware") {
        // BM_PartitionedMultiChannel's configuration on the default
        // (serial) kernel.
        w.kind = Workload::Kind::Multi;
        w.clients = 2;
        cfg.workload = "mixA";
        cfg.topology = TopologyKind::Star;
        cfg.sizeClass = SizeClass::Big;
        cfg.mechanism = BwMechanism::Vwl;
        cfg.roo = true;
        cfg.policy = Policy::Aware;
        cfg.warmup = us(10);
        cfg.measure = us(50);
        w.multi.base = cfg;
        w.multi.channels = 4;
        w.multi.spread = ChannelSpread::InterleaveLines;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

CallResult
runCall(const Workload &w, const Variant &v)
{
    switch (w.kind) {
      case Workload::Kind::Single:
        return runSingle(w, v);
      case Workload::Kind::Sweep:
        return runSweep(w, v);
      case Workload::Kind::Multi:
        return runMulti(w, v);
    }
    throw std::logic_error("unhandled workload kind");
}

std::vector<double>
setupProbes(const Workload &w, int probes)
{
    std::vector<SystemConfig> cfgs;
    switch (w.kind) {
      case Workload::Kind::Single:
        cfgs.push_back(w.single);
        break;
      case Workload::Kind::Sweep:
        for (const Cell &c : w.cells) {
            cfgs.push_back(Runner::fullPowerBaseline(c.unaware));
            cfgs.push_back(c.unaware);
            cfgs.push_back(c.aware);
        }
        break;
      case Workload::Kind::Multi:
        break;
    }
    std::vector<double> out;
    for (int i = 0; i < probes; ++i) {
        const auto t0 = Clock::now();
        if (w.kind == Workload::Kind::Multi) {
            MultiChannelConfig mc = w.multi;
            mc.base = probeConfig(mc.base);
            runMultiChannel(mc);
        } else {
            runSimulation(probeConfig(cfgs[i % cfgs.size()]));
        }
        out.push_back(secondsSince(t0));
    }
    return out;
}

} // namespace perfbench
