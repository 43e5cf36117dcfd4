/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "sim/event_queue.hh"

namespace memnet
{
namespace
{

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.fired(), 0u);
}

TEST(EventQueue, OneShotLambdaFiresAtScheduledTick)
{
    EventQueue eq;
    Tick seen = kTickInvalid;
    eq.schedule(ns(5), [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, ns(5));
    EXPECT_EQ(eq.now(), ns(5));
}

TEST(EventQueue, EventsFireInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(ns(30), [&] { order.push_back(3); });
    eq.schedule(ns(10), [&] { order.push_back(1); });
    eq.schedule(ns(20), [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(ns(7), [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(ns(10), [&] { ++fired; });
    eq.schedule(ns(20), [&] { ++fired; });
    eq.schedule(ns(30), [&] { ++fired; });
    eq.runUntil(ns(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), ns(20));
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(us(3));
    EXPECT_EQ(eq.now(), us(3));
}

struct CountingEvent : public Event
{
    int fired = 0;
    void fire() override { ++fired; }
};

TEST(EventQueue, MemberStyleEventReArmable)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(&ev, ns(1));
    eq.run();
    EXPECT_EQ(ev.fired, 1);
    EXPECT_FALSE(ev.scheduled());
    eq.schedule(&ev, ns(2));
    eq.run();
    EXPECT_EQ(ev.fired, 2);
}

TEST(EventQueue, DescheduleCancelsFiring)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(&ev, ns(5));
    EXPECT_TRUE(ev.scheduled());
    eq.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    eq.run();
    EXPECT_EQ(ev.fired, 0);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RescheduleMovesFiringTime)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(&ev, ns(5));
    eq.reschedule(&ev, ns(9));
    Tick when = kTickInvalid;
    eq.schedule(ns(6), [&] {
        // At ns(6) the event must not have fired yet.
        EXPECT_EQ(ev.fired, 0);
        when = eq.now();
    });
    eq.run();
    EXPECT_EQ(when, ns(6));
    EXPECT_EQ(ev.fired, 1);
    EXPECT_EQ(ev.when(), ns(9));
}

TEST(EventQueue, RescheduleEarlierFiresEarlier)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(&ev, ns(100));
    eq.reschedule(&ev, ns(2));
    eq.runUntil(ns(10));
    EXPECT_EQ(ev.fired, 1);
}

TEST(EventQueue, EventsScheduledDuringFiringRun)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.schedule(eq.now() + ns(1), chain);
    };
    eq.schedule(ns(1), chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), ns(5));
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue eq;
    CountingEvent a, b;
    eq.schedule(&a, ns(1));
    eq.schedule(&b, ns(2));
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.fired(), 1u);
}

// ---------------------------------------------------------------------
// Queue-health counters (peak depth, deschedules, depth histogram,
// dispatch-rate windows) — surfaced through RunProfile and the stats
// registry, so their semantics are pinned down here.
// ---------------------------------------------------------------------

TEST(EventQueueHealth, PeakDepthIsHighWaterNotCurrent)
{
    EventQueue eq;
    CountingEvent a, b, c;
    eq.schedule(&a, ns(1));
    eq.schedule(&b, ns(2));
    eq.schedule(&c, ns(3));
    EXPECT_EQ(eq.peakPending(), 3u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.peakPending(), 3u); // high-water survives the drain
    EXPECT_EQ(eq.scheduledTotal(), 3u);
}

TEST(EventQueueHealth, DescheduledCountsExplicitCancelsOnly)
{
    EventQueue eq;
    CountingEvent a, b;
    eq.schedule(&a, ns(1));
    eq.schedule(&b, ns(2));
    eq.deschedule(&a);
    EXPECT_EQ(eq.descheduledTotal(), 1u);
    // Dispatch pops and reschedules are not deschedules.
    eq.schedule(&a, ns(3));
    eq.reschedule(&a, ns(4));
    eq.run();
    EXPECT_EQ(eq.descheduledTotal(), 1u);
}

TEST(EventQueueHealth, DepthHistogramCountsEveryDispatch)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(ns(i + 1), [] {});
    eq.run();
    std::uint64_t total = 0;
    for (std::uint64_t v : eq.depthHistogram())
        total += v;
    EXPECT_EQ(total, eq.fired());
    // First dispatch saw all 10 pending: bucket bit_width(10) = 4.
    EXPECT_GE(eq.depthHistogram()[4], 1u);
}

TEST(EventQueueHealth, DispatchWindowsCloseOnSimTimeBoundaries)
{
    EventQueue eq;
    eq.setDispatchWindow(ns(100));
    EXPECT_EQ(eq.dispatchWindowPs(), ns(100));
    for (Tick t : {ns(10), ns(50), ns(120), ns(350)})
        eq.schedule(t, [] {});
    eq.run();
    // [0,100): 2 events; [100,200): 1; [200,300): 0. The window holding
    // the final event stays open and is not reported.
    EXPECT_EQ(eq.dispatchWindows(),
              (std::vector<std::uint64_t>{2, 1, 0}));
}

TEST(EventQueueHealth, HugeIdleGapRealignsInsteadOfZeroFilling)
{
    EventQueue eq;
    eq.setDispatchWindow(ns(1));
    eq.schedule(us(100), [] {}); // 1e5 windows ahead: over the cap
    eq.run();
    EXPECT_TRUE(eq.dispatchWindows().empty());
    EXPECT_EQ(eq.fired(), 1u);
}

// ---------------------------------------------------------------------
// Randomized stress test against a reference model
// ---------------------------------------------------------------------

struct RecordingEvent : public Event
{
    std::vector<int> *log = nullptr;
    int id = 0;
    void fire() override { log->push_back(id); }
};

/** One scheduled entry mirrored outside the queue. */
struct RefEntry
{
    EventKey key;
    int id;
};

/** The documented firing order: the compound key, nothing else. */
bool
refBefore(const RefEntry &a, const RefEntry &b)
{
    return a.key < b.key;
}

/** Offsets drawn by checkRandomOps, in ticks from now(). */
using DeltaFn = Tick (*)(std::mt19937 &);

Tick
nearDelta(std::mt19937 &rng)
{
    return ns(std::uniform_int_distribution<int>(0, 400)(rng));
}

/**
 * Near, horizon-straddling and far deltas in equal measure: 0-400 ns,
 * within four buckets of the horizon either side, and up to 60
 * horizons ahead (past the 100 us epoch grid).
 */
Tick
wideDelta(std::mt19937 &rng)
{
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0:
        return nearDelta(rng);
      case 1:
        return EventQueue::kHorizon +
               std::uniform_int_distribution<Tick>(
                   -4 * EventQueue::kBucketWidth,
                   4 * EventQueue::kBucketWidth)(rng);
      default:
        return std::uniform_int_distribution<Tick>(
            0, 60 * EventQueue::kHorizon)(rng);
    }
}

/**
 * Mostly short steps with the odd long idle gap of whole 100 us epochs,
 * each gap many laps of the wheel.
 */
Tick
gappyStep(std::mt19937 &rng)
{
    if (std::uniform_int_distribution<int>(0, 9)(rng) == 0)
        return us(100) * std::uniform_int_distribution<int>(1, 3)(rng);
    return wideDelta(rng);
}

/**
 * Drives the queue through a long random mix of schedule / deschedule /
 * reschedule / runUntil and checks the exact firing order against a
 * brute-force model that replays the documented contract: compound-key
 * order, which on one queue is earlier tick first, FIFO (by consumed
 * sequence number) within a tick. @p delta draws firing offsets and
 * @p step the runUntil limits.
 */
void
checkRandomOps(std::uint32_t seed, DeltaFn delta, DeltaFn step)
{
    constexpr int kEvents = 48;
    constexpr int kOps = 5000;

    EventQueue eq;
    std::vector<int> log;
    std::vector<RecordingEvent> events(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        events[i].log = &log;
        events[i].id = i;
    }

    std::vector<RefEntry> model;
    std::uint64_t seq = 0; // mirrors the queue's sequence counter
    std::vector<int> expected;

    std::mt19937 rng(seed); // fixed: the run must be reproducible
    const auto modelFind = [&model](int id) {
        return std::find_if(model.begin(), model.end(),
                            [id](const RefEntry &e) {
                                return e.id == id;
                            });
    };
    const auto keyAt = [&](Tick when) {
        return EventKey{when, eq.now(), kTickInvalid, seq++};
    };

    for (int op = 0; op < kOps; ++op) {
        RecordingEvent &ev =
            events[std::uniform_int_distribution<int>(
                0, kEvents - 1)(rng)];
        const int action =
            std::uniform_int_distribution<int>(0, 9)(rng);
        if (!ev.scheduled()) {
            const Tick when = eq.now() + delta(rng);
            eq.schedule(&ev, when);
            model.push_back({keyAt(when), ev.id});
        } else if (action < 2) {
            eq.deschedule(&ev);
            model.erase(modelFind(ev.id));
        } else if (action < 8) {
            const Tick when = eq.now() + delta(rng);
            eq.reschedule(&ev, when);
            modelFind(ev.id)->key = keyAt(when);
        }

        if (op % 40 == 39) {
            const Tick limit = eq.now() + step(rng);
            // Everything due by the limit fires in key order.
            std::vector<RefEntry> due;
            for (const RefEntry &e : model) {
                if (e.key.when <= limit)
                    due.push_back(e);
            }
            std::sort(due.begin(), due.end(), refBefore);
            for (const RefEntry &e : due) {
                expected.push_back(e.id);
                model.erase(modelFind(e.id));
            }
            eq.runUntil(limit);
            ASSERT_EQ(log, expected) << "diverged at op " << op;
            ASSERT_EQ(eq.pending(), model.size());
            ASSERT_EQ(eq.now(), limit);
        }
    }

    // Drain: everything left fires in model order.
    std::sort(model.begin(), model.end(), refBefore);
    for (const RefEntry &e : model)
        expected.push_back(e.id);
    eq.run();
    EXPECT_EQ(log, expected);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueStress, RandomOpsMatchReferenceModel)
{
    checkRandomOps(20170205, nearDelta, nearDelta);
}

TEST(EventQueueStress, DeltasPastTheHorizonMatchReferenceModel)
{
    // A third of the events land in the far set, a third straddle the
    // horizon, and reschedules move events between the two containers.
    checkRandomOps(7, wideDelta, nearDelta);
    checkRandomOps(8, wideDelta, wideDelta);
}

TEST(EventQueueStress, IdleGapsThatWrapTheWheelMatchReferenceModel)
{
    // runUntil limits that jump whole 100 us epochs move now() hundreds
    // of wheel laps at once, past far-set and wheel events alike.
    checkRandomOps(100, wideDelta, gappyStep);
    checkRandomOps(101, nearDelta, gappyStep);
}

TEST(EventQueueStress, EpochGridWithNearBurstsFiresInOrder)
{
    // The shape of a managed run: a self-rearming 100 us epoch timer
    // (always in the far set when armed) and near-future bursts, with
    // the queue idle in between. Checked against compound-key order.
    EventQueue eq;
    std::vector<Tick> fired;
    std::function<void()> burst = [&] { fired.push_back(eq.now()); };
    std::function<void()> epoch = [&] {
        fired.push_back(eq.now());
        if (eq.now() < us(1000))
            eq.schedule(eq.now() + us(100), epoch);
        for (Tick d : {Tick{0}, ns(3), ns(3), ns(700),
                       EventQueue::kHorizon - 1, EventQueue::kHorizon})
            eq.schedule(eq.now() + d, burst);
    };
    eq.schedule(us(100), epoch);
    eq.run();
    ASSERT_EQ(fired.size(), 10u * 7u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(eq.fired(), 70u);
    EXPECT_EQ(eq.now(), us(1000) + EventQueue::kHorizon);
}

TEST(EventQueueStress, RescheduleMovesEventsBetweenWheelAndFarSet)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<RecordingEvent> ev(4);
    for (int i = 0; i < 4; ++i) {
        ev[i].log = &log;
        ev[i].id = i;
    }
    eq.schedule(&ev[0], ns(5));                       // wheel
    eq.schedule(&ev[1], us(50));                      // far
    eq.schedule(&ev[2], ns(6));                       // wheel
    eq.schedule(&ev[3], us(60));                      // far
    eq.reschedule(&ev[0], us(55));                    // wheel -> far
    eq.reschedule(&ev[1], ns(4));                     // far -> wheel
    EXPECT_EQ(eq.nextTick(), ns(4));
    eq.reschedule(&ev[3], us(55));                    // far -> far, tie
    eq.deschedule(&ev[2]);                            // out of the wheel
    EXPECT_EQ(eq.pending(), 3u);
    eq.runUntil(ns(10));
    EXPECT_EQ(log, (std::vector<int>{1}));
    eq.reschedule(&ev[0], ns(12));                    // far -> wheel
    eq.schedule(&ev[2], us(55));                      // far, after 3
    eq.deschedule(&ev[3]);                            // out of far set
    eq.schedule(&ev[3], us(55));                      // far, after 2
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 0, 2, 3}));
    EXPECT_EQ(eq.descheduledTotal(), 2u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueStress, EventsAtTheHorizonBoundaryFireInKeyOrder)
{
    // now() sits inside bucket 0; kHorizon - 1 is the last tick of the
    // last wheel bucket and kHorizon the first tick of the far set.
    EventQueue eq;
    eq.runUntil(ns(1));
    std::vector<int> log;
    std::vector<RecordingEvent> ev(6);
    for (int i = 0; i < 6; ++i) {
        ev[i].log = &log;
        ev[i].id = i;
    }
    const Tick h = EventQueue::kHorizon;
    eq.schedule(&ev[0], h);          // far: first far bucket
    eq.schedule(&ev[1], h - 1);      // wheel: last bucket
    eq.schedule(&ev[2], h + ns(1));  // far
    eq.schedule(&ev[3], h - 1);      // wheel, same tick as 1
    EXPECT_EQ(eq.nextTick(), h - 1);
    // Half a horizon later the far tick h would land in the wheel; a new
    // event there must still fire after the far-set event 0 at h.
    eq.runUntil(h / 2);
    eq.schedule(&ev[4], h);
    // And one horizon after now(), past the far event 2's tick.
    eq.schedule(&ev[5], eq.now() + h);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 3, 0, 4, 2, 5}));
}

TEST(EventQueueStress, FarSetHeadLosesToEarlierWheelKeyAtTheSameTick)
{
    // The front compares full keys across the two containers, not just
    // ticks: a wheel event with a smaller (sched, parent, ctr) fires
    // before a far-set event due at the same tick.
    EventQueue eq;
    std::vector<int> log;
    std::vector<RecordingEvent> ev(3);
    for (int i = 0; i < 3; ++i) {
        ev[i].log = &log;
        ev[i].id = i;
    }
    const Tick t = 3 * EventQueue::kHorizon;
    eq.scheduleWithKey(&ev[0], EventKey{t, 0, kTickInvalid, 9});  // far
    eq.runUntil(t - ns(10));
    eq.scheduleWithKey(&ev[1], EventKey{t, 0, kTickInvalid, 4});  // wheel
    eq.scheduleWithKey(&ev[2], EventKey{t, 0, kTickInvalid, 12}); // wheel
    const EventKey front = eq.frontKey();
    EXPECT_EQ(front.when, t);
    EXPECT_EQ(front.ctr, 4u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueueStress, RemoteKeyTiesFollowCompoundKeyOrder)
{
    // Partition-style traffic: local schedules interleaved with
    // scheduleWithKey messages whose (when, sched, parent) collide with
    // each other and with local events, their ctrs tagged remote. The
    // firing order must be exactly EventKey order across both
    // containers.
    constexpr int kEvents = 64;
    EventQueue eq;
    std::vector<int> log;
    std::vector<RecordingEvent> events(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        events[i].log = &log;
        events[i].id = i;
    }
    std::vector<RefEntry> model;
    std::vector<int> expected;
    std::uint64_t seq = 0;
    std::uint64_t remote = 0;
    std::mt19937 rng(2017);
    const auto pick = [&rng](int n) {
        return std::uniform_int_distribution<int>(0, n - 1)(rng);
    };

    for (int round = 0; round < 400; ++round) {
        for (RecordingEvent &ev : events) {
            if (ev.scheduled() || pick(2) == 0)
                continue;
            // Few distinct ticks, scheds and parents: many exact ties.
            const Tick base = eq.now() + (pick(4) == 0
                                              ? 2 * EventQueue::kHorizon
                                              : Tick{0});
            const Tick when = base + ns(pick(3));
            if (pick(2) == 0) {
                eq.schedule(&ev, when);
                model.push_back(
                    {EventKey{when, eq.now(), kTickInvalid, seq++}, ev.id});
            } else {
                const EventKey key{
                    when, eq.now() - ns(pick(2)),
                    pick(2) == 0 ? kTickInvalid : eq.now() - ns(pick(3)),
                    pick(3) == 0 ? (std::uint64_t{1} << 40) + remote++
                                 : (EventKey::kRemoteCtrBit | remote++)};
                eq.scheduleWithKey(&ev, key);
                model.push_back({key, ev.id});
            }
        }
        const Tick limit = eq.now() + ns(pick(4));
        std::sort(model.begin(), model.end(), refBefore);
        auto cut = std::find_if(model.begin(), model.end(),
                                [limit](const RefEntry &e) {
                                    return e.key.when > limit;
                                });
        for (auto it = model.begin(); it != cut; ++it)
            expected.push_back(it->id);
        model.erase(model.begin(), cut);
        eq.runUntil(limit);
        ASSERT_EQ(log, expected) << "diverged in round " << round;
        if (!model.empty()) {
            const EventKey fk = eq.frontKey();
            ASSERT_FALSE(fk < model.front().key || model.front().key < fk);
        }
    }
    std::sort(model.begin(), model.end(), refBefore);
    for (const RefEntry &e : model)
        expected.push_back(e.id);
    eq.run();
    EXPECT_EQ(log, expected);
}

TEST(EventQueueStress, AdvanceToAndRunUntilBeforeKeepTheWheelExact)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<RecordingEvent> ev(5);
    for (int i = 0; i < 5; ++i) {
        ev[i].log = &log;
        ev[i].id = i;
    }
    const Tick h = EventQueue::kHorizon;
    eq.schedule(&ev[0], ns(8));
    eq.schedule(&ev[1], ns(16));
    eq.schedule(&ev[2], 5 * h); // far
    // Strictly before the limit; now() stays at the last fired event.
    EXPECT_EQ(eq.runUntilBefore(ns(16)), 1u);
    EXPECT_EQ(eq.now(), ns(8));
    EXPECT_EQ(eq.nextTick(), ns(16));
    EXPECT_EQ(eq.runUntilBefore(ns(17)), 1u);
    EXPECT_EQ(eq.now(), ns(16));
    // Nothing before the far event: runUntilBefore fires nothing and
    // leaves now() alone; advanceTo then jumps several wheel laps.
    EXPECT_EQ(eq.runUntilBefore(5 * h), 0u);
    EXPECT_EQ(eq.now(), ns(16));
    eq.advanceTo(5 * h - ns(4));
    EXPECT_EQ(eq.now(), 5 * h - ns(4));
    EXPECT_EQ(eq.nextTick(), 5 * h);
    // Wheel events around the far event's tick, scheduled after the
    // jump, interleave with it by key.
    eq.schedule(&ev[3], 5 * h - ns(1));
    eq.schedule(&ev[4], 5 * h);
    EXPECT_EQ(eq.nextTick(), 5 * h - ns(1));
    eq.advanceTo(5 * h - ns(1));
    EXPECT_EQ(eq.runUntilBefore(5 * h + 1), 3u);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 3, 2, 4}));
    EXPECT_EQ(eq.now(), 5 * h);
    // An empty queue advances any distance; the wheel is still usable.
    eq.advanceTo(1000 * h + 7);
    eq.schedule(&ev[0], eq.now());
    eq.fireFront();
    EXPECT_EQ(log.back(), 0);
    EXPECT_EQ(eq.nextTick(), kTickMax);
}

TEST(EventQueueStress, DestructorReclaimsOneShotsFromBothContainers)
{
    // Every pending lambda owns a copy of the token; the queue must free
    // each one, from the wheel and the far set alike (ASan also flags a
    // leak or double free). Component-owned events are only unhooked.
    auto token = std::make_shared<int>(0);
    CountingEvent nearOwned, farOwned;
    {
        EventQueue eq;
        eq.schedule(&nearOwned, ns(3));
        eq.schedule(&farOwned, 10 * EventQueue::kHorizon);
        for (int i = 0; i < 50; ++i) {
            eq.schedule(ns(i), [token] {});                      // wheel
            eq.schedule(EventQueue::kHorizon * (i + 1), [token] {}); // far
            eq.schedule(ns(i), [token] {});                      // same bucket
        }
        EXPECT_EQ(token.use_count(), 151);
        EXPECT_EQ(eq.pending(), 152u);
    }
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(nearOwned.scheduled());
    EXPECT_FALSE(farOwned.scheduled());
    EXPECT_EQ(nearOwned.fired + farOwned.fired, 0);
}

TEST(EventQueueStress, DestructorReleasesPendingOneShots)
{
    // Pending component-owned events are unhooked but left alive at
    // teardown; pending lambda one-shots are owned by the queue and
    // freed (ASan would flag a leak or double-free here). An unhooked
    // survivor must be safely destructible after its queue is gone.
    CountingEvent survivor;
    {
        EventQueue eq;
        eq.schedule(&survivor, ns(10));
        for (int i = 0; i < 100; ++i)
            eq.schedule(ns(i), [] {});
    }
    EXPECT_EQ(survivor.fired, 0);
}

TEST(EventQueueStress, DestructorToleratesOwnerDyingFirst)
{
    // Components and the queue have independent lifetimes: a Network and
    // its Links can be destroyed while their events still sit in the
    // queue. Under ASan/TSan this test catches any use-after-free.
    auto *orphan = new CountingEvent;
    EventQueue eq;
    eq.schedule(orphan, ns(10));
    eq.schedule(ns(5), [] {});
    delete orphan;
}

TEST(EventQueueStress, DyingOwnerRemovesItsPendingEvents)
{
    // Regression: a component destroyed while its events were still
    // scheduled used to leave dangling heap entries, and the next
    // schedule() dereferenced them while sifting (segfaulted when a
    // test fixture rebuilt a Network on a live queue). A scheduled
    // event now removes itself on destruction.
    EventQueue eq;
    auto *doomed = new CountingEvent;
    eq.schedule(doomed, ns(10));
    EXPECT_EQ(eq.pending(), 1u);
    delete doomed;
    EXPECT_EQ(eq.pending(), 0u);

    CountingEvent later;
    eq.schedule(&later, ns(20));
    eq.run();
    EXPECT_EQ(later.fired, 1);
    EXPECT_EQ(eq.fired(), 1u);
}

} // namespace
} // namespace memnet
