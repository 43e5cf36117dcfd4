#include "physics.hh"

#include <cstdio>

namespace perfbench
{

using namespace memnet;

namespace
{

/** Appends "name=value;" items; doubles bit-exact as hex floats. */
class Text
{
  public:
    void
    f(const char *name, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a", v);
        put(name, buf);
    }

    void
    u(const char *name, std::uint64_t v)
    {
        put(name, std::to_string(v));
    }

    void
    power(const char *name, const PowerBreakdown &p)
    {
        scope(name);
        f("idleIoW", p.idleIoW);
        f("activeIoW", p.activeIoW);
        f("logicLeakW", p.logicLeakW);
        f("logicDynW", p.logicDynW);
        f("dramLeakW", p.dramLeakW);
        f("dramDynW", p.dramDynW);
    }

    void
    percentiles(const char *name, const LatencyPercentiles &p)
    {
        scope(name);
        u("samples", p.samples);
        u("sumPs", p.sumPs);
        u("p50Ps", p.p50Ps);
        u("p90Ps", p.p90Ps);
        u("p99Ps", p.p99Ps);
        u("p999Ps", p.p999Ps);
        u("maxPs", p.maxPs);
    }

    void
    latency(const LatencyBreakdown &l)
    {
        u("latency.enabled", l.enabled);
        percentiles("latency.endToEnd", l.endToEnd);
        percentiles("latency.queue", l.queue);
        percentiles("latency.wakeStall", l.wakeStall);
        percentiles("latency.retrainStall", l.retrainStall);
        percentiles("latency.serialization", l.serialization);
        percentiles("latency.dram", l.dram);
        f("latency.wakeStallSeconds", l.wakeStallSeconds);
        f("latency.retrainStallSeconds", l.retrainStallSeconds);
        u("latency.queuePeak", l.queuePeak);
    }

    void
    energy(const EnergySummary &e)
    {
        const EnergyAttribution &a = e.attribution;
        u("energy.enabled", e.enabled);
        f("energy.txJ", a.txJ);
        f("energy.retrainJ", a.retrainJ);
        for (double j : a.idleModeJ)
            f("energy.idleModeJ", j);
        f("energy.sleepJ", a.sleepJ);
        f("energy.wakeJ", a.wakeJ);
        f("energy.serdesLeakJ", a.serdesLeakJ);
        f("energy.routerJ", a.routerJ);
        f("energy.dramLeakJ", a.dramLeakJ);
        f("energy.dramDynJ", a.dramDynJ);
        f("energy.idleIoJ", a.idleIoJ);
        f("energy.activeIoJ", a.activeIoJ);
        percentiles("energy.utilization", e.utilization);
        percentiles("energy.occupancy", e.occupancy);
    }

    /** Prefix for the next fields (cleared by the next scope()). */
    void scope(const char *name) { prefix = name; }

    std::string take() { return std::move(out); }

  private:
    void
    put(const char *name, const std::string &value)
    {
        if (!prefix.empty()) {
            out += prefix;
            out += '.';
        }
        out += name;
        out += '=';
        out += value;
        out += ';';
    }

    std::string prefix;
    std::string out;
};

} // namespace

std::string
physicsText(const RunResult &r, bool observatories)
{
    Text t;
    t.u("numModules", static_cast<std::uint64_t>(r.numModules));
    t.power("perHmc", r.perHmc);
    t.scope("");
    t.f("totalNetworkPowerW", r.totalNetworkPowerW);
    t.f("idleIoFrac", r.idleIoFrac);
    t.f("readsPerSec", r.readsPerSec);
    t.f("avgReadLatencyNs", r.avgReadLatencyNs);
    t.f("channelUtil", r.channelUtil);
    t.f("avgLinkUtil", r.avgLinkUtil);
    t.f("avgModulesTraversed", r.avgModulesTraversed);
    t.u("completedReads", r.completedReads);
    t.u("violations", r.violations);

    const ReliabilityStats &rel = r.reliability;
    t.u("reliability.retries", rel.retries);
    t.u("reliability.replays", rel.replays);
    t.u("reliability.retrains", rel.retrains);
    t.f("reliability.retrainSeconds", rel.retrainSeconds);
    t.f("reliability.degradedSeconds", rel.degradedSeconds);
    t.u("reliability.faultEvents", rel.faultEvents);

    if (observatories) {
        t.latency(r.latency);
        t.energy(r.energy);
        t.scope("");
    }

    for (const auto &bucket : r.linkHours)
        for (double s : bucket)
            t.f("linkHours", s);

    t.u("modules.size", r.modules.size());
    for (const ModuleDetail &m : r.modules) {
        t.scope("module");
        t.u("id", static_cast<std::uint64_t>(m.id));
        t.u("highRadix", m.highRadix);
        t.u("hopDistance", static_cast<std::uint64_t>(m.hopDistance));
        t.u("dramAccesses", m.dramAccesses);
        t.u("flitsRouted", m.flitsRouted);
        t.f("requestLinkUtil", m.requestLinkUtil);
        t.f("responseLinkUtil", m.responseLinkUtil);
        t.f("requestLinkPowerFrac", m.requestLinkPowerFrac);
        t.f("responseLinkPowerFrac", m.responseLinkPowerFrac);
    }
    return t.take();
}

std::string
physicsText(const MultiChannelResult &r, bool observatories)
{
    Text t;
    t.f("totalPowerW", r.totalPowerW);
    t.f("readsPerSec", r.readsPerSec);
    t.f("idleIoFrac", r.idleIoFrac);
    t.u("totalModules", static_cast<std::uint64_t>(r.totalModules));
    t.u("channels", r.channelPower.size());
    for (const PowerBreakdown &p : r.channelPower)
        t.power("channelPower", p);
    t.scope("");
    for (double u : r.channelUtil)
        t.f("channelUtil", u);
    for (int m : r.channelModules)
        t.u("channelModules", static_cast<std::uint64_t>(m));
    if (observatories) {
        t.latency(r.latency);
        t.energy(r.energy);
    }
    return t.take();
}

std::string
digest(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
digestOf(const std::vector<std::string> &texts)
{
    std::string all;
    for (const std::string &s : texts) {
        all += s;
        all += '\n';
    }
    return digest(all);
}

} // namespace perfbench
