#include "obs/obs.hh"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace memnet
{
namespace obs
{

ObsHub::ObsHub(const ObsOptions &opts, Network &net, PowerManager *mgr,
               std::vector<EventQueue *> queues)
    : opts(opts), net(net), mgr(mgr), eqs(std::move(queues))
{
    if (eqs.empty())
        eqs.push_back(&net.eventQueue());
    if (!opts.chromeTracePath.empty()) {
        trace = std::make_unique<ChromeTraceWriter>();
        net.setTraceSink(trace.get());
    }
    if (!opts.epochJsonlPath.empty()) {
        if (!mgr) {
            memnet_warn("epoch recording requested but the ",
                        "policy has no epoch machinery; no records "
                        "will be produced");
        } else {
            epochFile.open(opts.epochJsonlPath);
            if (!epochFile) {
                memnet_warn("cannot open epoch JSONL path: ",
                            opts.epochJsonlPath);
            } else {
                rec = std::make_unique<EpochRecorder>(epochFile, net);
            }
        }
    }
    if (mgr && (rec || trace))
        mgr->addEpochObserver(this);
    registerStats();
}

ObsHub::~ObsHub()
{
    // The hub is destroyed before the network/manager it observes;
    // detach so no dangling sink survives it.
    if (trace)
        net.setTraceSink(nullptr);
    if (mgr)
        mgr->removeEpochObserver(this);
}

void
ObsHub::onMeasureStart(Tick now)
{
    if (rec)
        rec->onMeasureStart(now);
    // Re-baseline the energy-counter deltas: the network's ledgers
    // were just reset, so the previous attribution no longer applies.
    lastEnergy = EnergyAttribution{};
    lastEnergyTick = now;
}

void
ObsHub::onEpoch(PowerManager &pm, Tick now)
{
    if (rec)
        rec->onEpoch(pm, now);
    if (trace) {
        trace->epochMarker(now, pm.epochs());
        if (net.energyEnabled()) {
            const EnergyAttribution a = net.energyAttribution(now);
            const double secs = toSeconds(now - lastEnergyTick);
            trace->energyCounters(
                now, renderEnergyCounterArgs(a, lastEnergy,
                                             secs > 0.0 ? 1.0 / secs
                                                        : 0.0));
            lastEnergy = a;
            lastEnergyTick = now;
        }
    }
}

void
ObsHub::onViolation(PowerManager &pm, LinkMgmtState &s, Tick now)
{
    if (trace)
        trace->violation(s.link().id(), now);
}

void
ObsHub::registerStats()
{
    // sim.* / sim.eq.* aggregate across every event queue of the run:
    // one queue for the serial kernel, one per partition otherwise
    // (events summed, depths maxed), so dashboards read the same
    // counters whichever kernel produced them.
    const std::vector<EventQueue *> &qs = eqs;
    auto sim = reg.scope("sim.");
    sim.addInt("events_fired", "events executed so far", [&qs] {
        std::uint64_t n = 0;
        for (const EventQueue *q : qs)
            n += q->fired();
        return n;
    });
    sim.addInt("events_scheduled", "schedule() calls so far", [&qs] {
        std::uint64_t n = 0;
        for (const EventQueue *q : qs)
            n += q->scheduledTotal();
        return n;
    });
    sim.addInt("now_ps", "current simulated time (ps)", [&qs] {
        return static_cast<std::uint64_t>(qs.front()->now());
    });

    // Event-queue health: how deep the queue gets and how dispatch load
    // spreads over sim time. All simulation-determined (no wall clock).
    auto eqh = reg.scope("sim.eq.");
    eqh.addInt("events_descheduled", "deschedule() calls so far",
               [&qs] {
                   std::uint64_t n = 0;
                   for (const EventQueue *q : qs)
                       n += q->descheduledTotal();
                   return n;
               });
    eqh.addInt("peak_depth", "pending-event high-water mark (max "
                             "over partitions)",
               [&qs] {
                   std::uint64_t n = 0;
                   for (const EventQueue *q : qs)
                       n = std::max(n, q->peakPending());
                   return n;
               });
    eqh.addInt("pending", "events pending right now", [&qs] {
        std::uint64_t n = 0;
        for (const EventQueue *q : qs)
            n += q->pending();
        return n;
    });
    eqh.addInt("dispatch_window_ps", "dispatch-rate window length (ps)",
               [&qs] {
                   return static_cast<std::uint64_t>(
                       qs.front()->dispatchWindowPs());
               });
    eqh.addInt("dispatch_windows", "closed dispatch-rate windows",
               [&qs] {
                   std::size_t n = 0;
                   for (const EventQueue *q : qs)
                       n = std::max(n, q->dispatchWindows().size());
                   return n;
               });
    eqh.addInt("dispatch_window_max", "busiest window's event count "
                                      "(partitions summed per window)",
               [&qs] {
                   std::vector<std::uint64_t> sum;
                   for (const EventQueue *q : qs) {
                       const auto &w = q->dispatchWindows();
                       if (w.size() > sum.size())
                           sum.resize(w.size(), 0);
                       for (std::size_t i = 0; i < w.size(); ++i)
                           sum[i] += w[i];
                   }
                   return sum.empty()
                              ? std::uint64_t{0}
                              : *std::max_element(sum.begin(),
                                                  sum.end());
               });
    // Depth histogram, one stat per occupied power-of-two bucket.
    for (std::size_t b = 0; b < EventQueue::kDepthBuckets; ++b) {
        std::ostringstream nm;
        nm << "depth_hist_p2_" << b;
        eqh.addInt(nm.str(),
                   "dispatches with bit_width(pending) == " +
                       std::to_string(b),
                   [&qs, b] {
                       std::uint64_t n = 0;
                       for (const EventQueue *q : qs)
                           n += q->depthHistogram()[b];
                       return n;
                   });
    }
    // Per-partition lanes, only when there is more than one queue.
    if (qs.size() > 1) {
        for (std::size_t i = 0; i < qs.size(); ++i) {
            std::ostringstream sc;
            sc << "sim.eq.p" << i << ".";
            auto lane = reg.scope(sc.str());
            EventQueue *q = qs[i];
            lane.addInt("events_fired", "events this partition fired",
                        [q] { return q->fired(); });
            lane.addInt("peak_depth",
                        "this partition's pending high-water mark",
                        [q] { return q->peakPending(); });
        }
    }

    auto n = reg.scope("net.");
    n.addInt("injected_packets", "request packets injected",
             [this] { return net.injectedPackets(); });
    n.add("avg_modules_traversed", "mean modules per access",
          [this] { return net.avgModulesTraversed(); });

    // Latency observatory: per-component percentile stats over the
    // completed reads since reset. Integer picoseconds, deterministic;
    // empty sketches answer 0 with samples == 0.
    if (net.latencyEnabled()) {
        struct LatComponent
        {
            const char *name;
            const QuantileSketch *sketch;
        };
        const LatComponent comps[] = {
            {"end_to_end", &net.latencySketches().endToEnd},
            {"queue", &net.latencySketches().queue},
            {"wake_stall", &net.latencySketches().wakeStall},
            {"retrain_stall", &net.latencySketches().retrainStall},
            {"serialization", &net.latencySketches().ser},
            {"dram", &net.latencySketches().dram},
        };
        const std::pair<const char *, double> quantiles[] = {
            {"p50_ps", 0.50},
            {"p90_ps", 0.90},
            {"p99_ps", 0.99},
            {"p999_ps", 0.999},
        };
        for (const LatComponent &c : comps) {
            auto s = reg.scope(std::string("net.lat.") + c.name + '.');
            const QuantileSketch *sk = c.sketch;
            s.addInt("samples", "completed reads recorded",
                     [sk] { return sk->samples(); });
            s.addInt("sum_ps", "summed component latency (ps)",
                     [sk] { return sk->sum(); });
            s.addInt("max_ps", "maximum component latency (ps)",
                     [sk] { return sk->maxValue(); });
            for (const auto &q : quantiles) {
                s.addInt(q.first,
                         std::string("latency quantile ") + q.first,
                         [sk, qv = q.second] {
                             return sk->quantile(qv);
                         });
            }
        }
    }

    // Energy observatory: system-level cause rollups plus the
    // congestion-sketch percentiles (net.energy.*).
    if (net.energyEnabled())
        registerEnergyStats(reg, net);

    for (Link *l : net.allLinks()) {
        std::ostringstream pre;
        pre << "link" << l->id() << '.';
        auto s = reg.scope(pre.str());
        s.add("idle_energy_j", "idle I/O energy since reset (J)",
              [l] { return l->stats().idleIoJ(); });
        s.add("active_energy_j", "active I/O energy since reset (J)",
              [l] { return l->stats().activeIoJ(); });
        // Energy observatory: the fine cause buckets behind the two
        // coarse ledgers above (idle floor is their difference from
        // sleep + wake; see net/link.hh).
        if (net.energyEnabled()) {
            s.add("tx_energy_j", "serialization energy (J)",
                  [l] { return l->stats().txJ; });
            s.add("retrain_energy_j", "retrain-window energy (J)",
                  [l] { return l->stats().retrainJ; });
            s.add("sleep_energy_j", "ROO off-state energy (J)",
                  [l] { return l->stats().sleepJ; });
            s.add("wake_energy_j", "wake-transition energy (J)",
                  [l] { return l->stats().wakeJ; });
        }
        s.addInt("flits", "flits serialized",
                 [l] { return l->stats().flits; });
        s.addInt("packets", "packets delivered",
                 [l] { return l->stats().packets; });
        s.addInt("read_packets", "read packets delivered",
                 [l] { return l->stats().readPackets; });
        s.addInt("retries", "CRC retransmissions",
                 [l] { return l->stats().retries; });
        s.addInt("replays", "serializations aborted by retrains",
                 [l] { return l->stats().replays; });
        s.addInt("retrains", "retrain windows entered",
                 [l] { return l->stats().retrains; });
        s.add("retrain_s", "seconds spent retraining",
              [l] { return l->stats().retrainSeconds; });
        s.add("degraded_s", "seconds at reduced width",
              [l] { return l->stats().degradedSeconds; });
        s.add("off_s", "seconds powered off",
              [l] { return l->stats().offSeconds; });
        // Stall attribution (latency observatory): packet-seconds
        // blocked at this link per cause, and the queue high-water.
        s.add("wake_stall_s", "packet-seconds blocked behind wakes",
              [l] { return l->stats().wakeStallSeconds; });
        s.add("retrain_stall_s",
              "packet-seconds blocked behind retrains",
              [l] { return l->stats().retrainStallSeconds; });
        s.addInt("queue_peak", "waiting-queue high-water mark",
                 [l] { return l->stats().queuePeak; });
    }

    for (int m = 0; m < net.numModules(); ++m) {
        std::ostringstream pre;
        pre << "module" << m << '.';
        auto s = reg.scope(pre.str());
        Module *mod = &net.module(m);
        s.addInt("dram_accesses", "DRAM accesses serviced",
                 [mod] { return mod->dramAccesses(); });
        s.addInt("flits_routed", "flits routed through the module",
                 [mod] { return mod->flitsRouted(); });
        // Energy observatory: the module's cause terms at dump time.
        if (net.energyEnabled()) {
            Network *np = &net;
            auto term =
                [np, m](double ModuleEnergyTerms::*f) {
                    return np->moduleEnergy(m, np->eventQueue().now())
                        .*f;
                };
            s.add("serdes_leak_j", "SerDes+logic leakage (J)", [term] {
                return term(&ModuleEnergyTerms::logicLeakJ);
            });
            s.add("router_j", "router dynamic energy (J)", [term] {
                return term(&ModuleEnergyTerms::logicDynJ);
            });
            s.add("dram_leak_j", "DRAM leakage (J)", [term] {
                return term(&ModuleEnergyTerms::dramLeakJ);
            });
            s.add("dram_dyn_j", "DRAM dynamic energy (J)", [term] {
                return term(&ModuleEnergyTerms::dramDynJ);
            });
        }
    }

    if (mgr) {
        auto s = reg.scope("mgmt.");
        PowerManager *pm = mgr;
        s.addInt("epochs", "management epochs processed",
                 [pm] { return pm->epochs(); });
        s.addInt("violations", "AMS violations",
                 [pm] { return pm->violations(); });
        s.addInt("isp.rounds_total", "ISP iterations executed",
                 [pm] { return pm->ispRoundsTotal(); });
        s.add("isp.last_rounds", "ISP iterations at the last epoch",
              [pm] { return static_cast<double>(pm->lastIspRounds()); });
        s.add("grant_pool_ps", "AMS left in the grant pool (ps)",
              [pm] { return pm->grantPoolRemaining(); });
    }
}

void
ObsHub::finish(Tick now)
{
    net.collectEnergy(now); // flush energy integration for the dumps

    if (!opts.statsJsonPath.empty()) {
        std::ofstream f(opts.statsJsonPath);
        if (!f)
            memnet_warn("cannot open stats JSON path: ",
                        opts.statsJsonPath);
        else
            reg.dumpJson(f);
    }
    if (!opts.statsCsvPath.empty()) {
        std::ofstream f(opts.statsCsvPath);
        if (!f)
            memnet_warn("cannot open stats CSV path: ",
                        opts.statsCsvPath);
        else
            reg.dumpCsv(f);
    }
    if (epochFile.is_open())
        epochFile.close();
    if (trace) {
        std::ofstream f(opts.chromeTracePath);
        if (!f)
            memnet_warn("cannot open chrome trace path: ",
                        opts.chromeTracePath);
        else
            trace->writeTo(f);
    }
}

} // namespace obs
} // namespace memnet
