/**
 * @file
 * The benchmark's correctness check: a canonical text of a run's
 * simulated physics and a digest of it.
 *
 * "Physics" is every RunResult field except the config echo (the input
 * the benchmark itself chose), RunResult::eventsFired and the whole
 * RunProfile: event, schedule and deschedule counts, queue depth and
 * wall time are kernel bookkeeping that a perf change may legitimately
 * move, so they are reported as layer metrics instead of checked. For
 * a multi-channel run it is every MultiChannelResult total and ledger.
 *
 * Doubles are written as C99 hex floats, so two texts are equal exactly
 * when every field is bit-identical.
 */

#ifndef PERFBENCH_PHYSICS_HH
#define PERFBENCH_PHYSICS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "memnet/config.hh"
#include "memnet/multichannel.hh"

namespace perfbench
{

/**
 * Canonical physics text of one run. With @p observatories false the
 * latency and energy observatory summaries are left out, which is the
 * form to compare a run with the observatories switched off against.
 */
std::string physicsText(const memnet::RunResult &r,
                        bool observatories = true);

/** Same for a multi-channel run. */
std::string physicsText(const memnet::MultiChannelResult &r,
                        bool observatories = true);

/** 64-bit FNV-1a digest of @p text, as 16 lower-case hex digits. */
std::string digest(std::string_view text);

/** Digest of a list of runs, in list order. */
std::string digestOf(const std::vector<std::string> &texts);

} // namespace perfbench

#endif // PERFBENCH_PHYSICS_HH
