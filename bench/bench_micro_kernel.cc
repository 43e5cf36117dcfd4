/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrate: event
 * kernel throughput (schedule/fire and reschedule-heavy), packet pool
 * versus heap churn, link serialization, vault service, delay-monitor,
 * end-to-end simulation cost, and the parallel sweep engine.
 *
 * BM_EndToEndSimulation reports the headline counters used by the CI
 * perf-smoke job: events_per_s, packets_per_s, and the per-run heap
 * allocations the packet pool avoided.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "dram/vault.hh"
#include "memnet/experiment.hh"
#include "memnet/multichannel.hh"
#include "memnet/parallel.hh"
#include "memnet/simulator.hh"
#include "mgmt/delay_monitor.hh"
#include "net/link.hh"
#include "net/packet_pool.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace memnet;

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(ns(i), [] {});
        benchmark::DoNotOptimize(eq.run());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

struct NopEvent : public Event
{
    void fire() override {}
};

/**
 * The pattern the lazy-deletion queue handled worst: a working set of
 * re-armable timers (link sleep timers, core issue events) that get
 * rekeyed over and over without ever firing. The intrusive heap rekeys
 * in place; the old queue accumulated a stale entry per move.
 */
void
BM_EventQueueRescheduleHeavy(benchmark::State &state)
{
    constexpr int kTimers = 256;
    constexpr int kMoves = 4000;
    for (auto _ : state) {
        EventQueue eq;
        std::vector<NopEvent> timers(kTimers);
        for (int i = 0; i < kTimers; ++i)
            eq.schedule(&timers[i], ns(1000 + i));
        std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
        for (int i = 0; i < kMoves; ++i) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            NopEvent &ev = timers[(lcg >> 33) % kTimers];
            eq.reschedule(&ev, ns(1000 + (lcg >> 40) % 5000));
        }
        for (NopEvent &ev : timers)
            eq.deschedule(&ev);
        benchmark::DoNotOptimize(eq.pending());
    }
    state.SetItemsProcessed(state.iterations() * kMoves);
}
BENCHMARK(BM_EventQueueRescheduleHeavy);

void
BM_PacketPoolChurn(benchmark::State &state)
{
    constexpr int kBurst = 64;
    PacketPool pool;
    std::vector<Packet *> live;
    live.reserve(kBurst);
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i)
            live.push_back(pool.acquire());
        for (Packet *p : live)
            pool.release(p);
        live.clear();
    }
    state.SetItemsProcessed(state.iterations() * kBurst);
    state.counters["allocs_avoided"] = benchmark::Counter(
        static_cast<double>(pool.allocationsAvoided()));
}
BENCHMARK(BM_PacketPoolChurn);

/** The new/delete baseline BM_PacketPoolChurn replaces. */
void
BM_PacketHeapChurn(benchmark::State &state)
{
    constexpr int kBurst = 64;
    std::vector<Packet *> live;
    live.reserve(kBurst);
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i)
            live.push_back(new Packet);
        for (Packet *p : live)
            delete p;
        live.clear();
    }
    state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_PacketHeapChurn);

struct SwallowSink : public PacketSink
{
    void accept(Packet *pkt, Tick) override { disposePacket(pkt); }
};

void
BM_LinkPacketTransfer(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        RooConfig roo;
        SwallowSink sink;
        Link link(eq, 0, LinkType::Request, 0,
                  &ModeTable::forMechanism(BwMechanism::None), &roo,
                  1.17, &sink);
        for (int i = 0; i < 500; ++i) {
            Packet *p = new Packet;
            p->type = PacketType::ReadResp;
            p->flits = 5;
            link.enqueue(p);
        }
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_LinkPacketTransfer);

void
BM_VaultReads(benchmark::State &state)
{
    DramParams params;
    for (auto _ : state) {
        EventQueue eq;
        Vault vault(eq, params, [](std::uint64_t, bool, Tick) {});
        for (int i = 0; i < 200; ++i)
            vault.push({static_cast<std::uint64_t>(i) * 64 * 32, true,
                        static_cast<std::uint64_t>(i)});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_VaultReads);

void
BM_DelayMonitorArrival(benchmark::State &state)
{
    DelayMonitor m;
    Tick t = 0;
    for (auto _ : state) {
        m.arrival(t, 5);
        // The monitor's state is otherwise never read, so the whole
        // loop would fold away and report an impossible rate.
        benchmark::DoNotOptimize(m);
        t += ns(10);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DelayMonitorArrival);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.workload = "mixE";
    cfg.topology = TopologyKind::Star;
    cfg.sizeClass = SizeClass::Small;
    cfg.warmup = us(20);
    cfg.measure = us(100);
    cfg.policy = Policy::Unaware;
    cfg.mechanism = BwMechanism::Vwl;
    cfg.roo = true;
    double events = 0.0, packets = 0.0, avoided = 0.0;
    for (auto _ : state) {
        const RunResult r = runSimulation(cfg);
        benchmark::DoNotOptimize(r.totalNetworkPowerW);
        events += static_cast<double>(r.eventsFired);
        packets += static_cast<double>(r.profile.packetsIssued);
        avoided += static_cast<double>(r.profile.packetAllocsAvoided());
    }
    state.counters["events_per_s"] =
        benchmark::Counter(events, benchmark::Counter::kIsRate);
    state.counters["packets_per_s"] =
        benchmark::Counter(packets, benchmark::Counter::kIsRate);
    state.counters["pool_allocs_avoided"] = benchmark::Counter(
        avoided / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

/**
 * The sweep engine on a small four-workload batch. Arg = worker
 * threads; on a single hardware thread the interesting property is that
 * jobs > 1 costs no correctness and little overhead, not speedup.
 */
void
BM_ParallelSweep(benchmark::State &state)
{
    const int jobs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Runner runner;
        std::vector<SystemConfig> cfgs;
        for (const char *wl : {"mixA", "mixB", "mixC", "mixD"}) {
            SystemConfig cfg;
            cfg.workload = wl;
            cfg.topology = TopologyKind::Star;
            cfg.warmup = us(10);
            cfg.measure = us(50);
            cfgs.push_back(cfg);
        }
        ParallelRunner(runner, jobs).run(cfgs);
        benchmark::DoNotOptimize(runner.runsExecuted());
    }
    state.SetItemsProcessed(state.iterations() * 4);
}
// Real time: the workers do the simulating, so the main thread's CPU
// time (the default rate base) would measure only its waiting.
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

/** The 16-module four-channel system the partitioned-kernel speedup
 *  is quoted on: mixA's big-study footprint (14 chunks) spread over 4
 *  channels = 4 modules per channel. */
MultiChannelConfig
partitionBenchConfig(int partitions)
{
    MultiChannelConfig mc;
    mc.base.workload = "mixA";
    mc.base.topology = TopologyKind::Star;
    mc.base.sizeClass = SizeClass::Big;
    mc.base.policy = Policy::Aware;
    mc.base.mechanism = BwMechanism::Vwl;
    mc.base.roo = true;
    mc.base.warmup = us(10);
    mc.base.measure = us(50);
    mc.base.partitions = partitions;
    mc.channels = 4;
    return mc;
}

/**
 * Intra-run parallelism (sim/partition.hh): one large multi-channel
 * simulation sharded by channel. Arg = partitions; Arg 1 is the serial
 * kernel the speedup is measured against. The wall-clock ratio between
 * the two entries is the partitioned kernel's speedup — it scales
 * with available hardware threads, so the CI baseline tracks it with
 * the loose wall-clock tolerance class rather than an exact bound.
 */
void
BM_PartitionedMultiChannel(benchmark::State &state)
{
    const MultiChannelConfig mc =
        partitionBenchConfig(static_cast<int>(state.range(0)));
    std::uint64_t reads = 0;
    for (auto _ : state) {
        const MultiChannelResult r = runMultiChannel(mc);
        benchmark::DoNotOptimize(r.totalPowerW);
        reads += static_cast<std::uint64_t>(r.readsPerSec * 1e-6);
    }
    state.counters["sim_mreads_per_s"] = benchmark::Counter(
        static_cast<double>(reads) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PartitionedMultiChannel)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/**
 * The headline number: serial and partitioned runs of the same config
 * timed back to back, reported as a speedup counter so the CI baseline
 * records it directly. Wall-clock by nature (and below 1.0 on a
 * single-core host, where the barriers only add scheduling overhead),
 * so the baseline gives it a tolerance of 1.0.
 */
void
BM_PartitionedSpeedup(benchmark::State &state)
{
    using clock = std::chrono::steady_clock;
    double serialS = 0.0, partS = 0.0;
    for (auto _ : state) {
        const auto t0 = clock::now();
        const MultiChannelResult a =
            runMultiChannel(partitionBenchConfig(1));
        const auto t1 = clock::now();
        const MultiChannelResult b =
            runMultiChannel(partitionBenchConfig(4));
        const auto t2 = clock::now();
        benchmark::DoNotOptimize(a.totalPowerW + b.totalPowerW);
        serialS += std::chrono::duration<double>(t1 - t0).count();
        partS += std::chrono::duration<double>(t2 - t1).count();
    }
    state.counters["speedup"] =
        benchmark::Counter(partS > 0.0 ? serialS / partS : 0.0);
}
BENCHMARK(BM_PartitionedSpeedup)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
