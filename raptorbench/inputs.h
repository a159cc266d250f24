// Seeded input generator. The workload seed perturbs only the benign
// background (profile seeds); the 18 attack scripts and their CTI reports
// are fixed, so every seed plants the same attacks into different noise.
#pragma once

#include <cstdint>
#include <vector>

#include "audit/syscall.h"
#include "cases/cases.h"
#include "stream/event_stream.h"

namespace raptorbench {

/// Deterministic 64-bit mix of a base seed with the workload seed.
uint64_t MixSeed(uint64_t base, uint64_t seed);

/// Every case's log (benign noise scaled by `noise_scale`, re-seeded from
/// `seed`, plus the fixed attack script), merged into one time-sorted
/// stream, as a central collector would store them.
std::vector<raptor::audit::SyscallRecord> MergedCaseLogs(uint64_t seed,
                                                         int noise_scale);

/// A fresh benign batch for round `round`: `processes` short-lived
/// processes in a one-minute window after the case logs end.
std::vector<raptor::audit::SyscallRecord> FreshBenignBatch(uint64_t seed,
                                                           int round,
                                                           int processes);

/// The live feed of the standing workload: one simulated hour of benign
/// activity (15 users, `processes` processes) with all 18 attack scripts
/// planted three minutes apart, replayed in one-minute windows.
raptor::stream::SimulatorSourceOptions StandingFeed(uint64_t seed,
                                                    int processes);

}  // namespace raptorbench
