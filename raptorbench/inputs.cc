#include "inputs.h"

#include <utility>

#include "audit/simulator.h"

namespace raptorbench {

using raptor::audit::BenignProfile;
using raptor::audit::SyscallRecord;
using raptor::audit::Timestamp;

namespace {

constexpr Timestamp kMinute = 60LL * 1000 * 1000;
constexpr Timestamp kHour = 60 * kMinute;

}  // namespace

uint64_t MixSeed(uint64_t base, uint64_t seed) {
  // splitmix64 finalizer over the pair.
  uint64_t z = base * 0x9E3779B97F4A7C15ULL + seed + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<SyscallRecord> MergedCaseLogs(uint64_t seed, int noise_scale) {
  std::vector<std::vector<SyscallRecord>> streams;
  for (const raptor::cases::AttackCase& c : raptor::cases::AllCases()) {
    raptor::cases::AttackCase seeded = c;
    seeded.benign.num_processes *= noise_scale;
    seeded.benign.seed = MixSeed(c.benign.seed, seed);
    streams.push_back(raptor::cases::BuildCaseLog(seeded));
  }
  return raptor::audit::MergeStreams(std::move(streams));
}

std::vector<SyscallRecord> FreshBenignBatch(uint64_t seed, int round,
                                            int processes) {
  BenignProfile profile;
  profile.num_processes = processes;
  profile.start_time = kHour + round * kMinute;
  profile.duration = kMinute;
  profile.seed = MixSeed(1000 + static_cast<uint64_t>(round), seed);
  return raptor::audit::BenignWorkloadSimulator().Generate(profile);
}

raptor::stream::SimulatorSourceOptions StandingFeed(uint64_t seed,
                                                    int processes) {
  raptor::stream::SimulatorSourceOptions feed;
  feed.profile.num_users = 15;
  feed.profile.num_processes = processes;
  feed.profile.duration = kHour;
  feed.profile.seed = MixSeed(42, seed);
  feed.batch_window_us = kMinute;
  Timestamp at = 2 * kMinute;
  for (const raptor::cases::AttackCase& c : raptor::cases::AllCases()) {
    raptor::stream::SimulatorSourceOptions::TimedAttack attack;
    attack.steps = c.attack_steps;
    attack.at = at;
    attack.seed = c.seed;
    feed.attacks.push_back(std::move(attack));
    at += 3 * kMinute;
  }
  return feed;
}

}  // namespace raptorbench
