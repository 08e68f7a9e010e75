// Cross-thread-count contracts of the count engines' intra-run sharding
// (src/core/shard.hpp, batched_engine.hpp, gillespie_engine.hpp):
//
//  * shard_range really partitions [0, count) into balanced contiguous
//    ranges — the partition is part of the replay contract;
//  * a profile too narrow to ever cross the sharding thresholds is
//    bit-identical at any thread count (begin_round consumes no draws from
//    the engine's main stream);
//  * seeded replay at a fixed thread count is bit-identical run-to-run, and
//    golden pins at threads = 4 make an accidental change to the sharded
//    draw order loud (same contract as tests/test_golden_seeds.cpp pins for
//    the sequential streams);
//  * sharded rounds conserve the population and keep the engine's leader
//    count consistent with a fresh census.
//
// Distributional equivalence across thread counts (threads = 1 vs 8) is
// owned by the KS harness in test_statistical.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_pairing.hpp"
#include "core/engine.hpp"
#include "core/shard.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

TEST(ShardRangeTest, PartitionsEveryCountContiguouslyAndBalanced) {
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
          std::size_t{257}, std::size_t{8192}}) {
        for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                         std::size_t{8}, std::size_t{13}}) {
            std::size_t covered = 0;
            std::size_t expect_first = 0;
            const std::size_t base = count / shards;
            for (std::size_t s = 0; s < shards; ++s) {
                const ShardRange r = shard_range(count, shards, s);
                ASSERT_EQ(r.first, expect_first) << count << "/" << shards << "/" << s;
                ASSERT_LE(r.first, r.last);
                // Balanced: every shard holds ⌊count/shards⌋ or one more.
                ASSERT_GE(r.size(), base);
                ASSERT_LE(r.size(), base + 1);
                covered += r.size();
                expect_first = r.last;
            }
            ASSERT_EQ(covered, count);
            ASSERT_EQ(expect_first, count);
        }
    }
}

// angluin06 at n = 128 interns two to three states — below the sampling
// threshold (threads × 8 live states) — and its batches are short enough
// that the group threshold (threads × 8) stays out of reach too, so no
// round of a threads = 4 run ever shards. Because begin_round consumes no
// draws from the engine's main stream, such a run must be bit-identical to
// the sequential threads = 1 run, not merely distributionally equal.
TEST(ParallelEngines, NarrowProfileIsBitIdenticalAcrossThreadCounts) {
    const std::size_t n = 128;
    const auto budget = static_cast<StepCount>(n) * n * 50;
    for (const EngineKind engine : {EngineKind::batched, EngineKind::gillespie}) {
        const RunResult seq = ProtocolRegistry::instance().run_election(
            "angluin06", n, /*seed=*/2019, budget, engine, BatchMode::automatic,
            /*faults=*/{}, /*threads=*/1);
        const RunResult par = ProtocolRegistry::instance().run_election(
            "angluin06", n, /*seed=*/2019, budget, engine, BatchMode::automatic,
            /*faults=*/{}, /*threads=*/4);
        ASSERT_TRUE(seq.converged);
        ASSERT_TRUE(par.converged) << to_string(engine);
        EXPECT_EQ(seq.steps, par.steps) << to_string(engine);
        ASSERT_TRUE(seq.stabilization_step.has_value());
        ASSERT_TRUE(par.stabilization_step.has_value());
        EXPECT_EQ(*seq.stabilization_step, *par.stabilization_step)
            << "a never-sharding profile drifted across thread counts on "
            << to_string(engine);
    }
}

struct ShardedGoldenRun {
    const char* protocol;
    EngineKind engine;
    BatchMode batch_mode;
    std::uint64_t stabilization_step;
};

// All cells: n = 8192, seed = 2019, threads = 4. n is large enough that the
// sharded paths genuinely engage — pll's live profile (~40–60 states)
// crosses the sampling threshold (threads × 8 live states), and under
// pairwise pairing the group count equals the round's bulk pair count
// (hundreds here), crossing the cell threshold (threads × 8 groups) — so these pin
// the *sharded* draw order: stream derivation per (seed, round, shard),
// slice subtotal chains, rated thinning on the shard streams, and the
// shard-order delta merge. Every pinned value differs from its threads = 1
// counterpart, which is how we know the cell pins a sharded code path and
// not the sequential fallback. Platform assumption (glibc libm) as in
// test_golden_seeds.cpp.
constexpr ShardedGoldenRun sharded_golden_runs[] = {
    {"pll", EngineKind::batched, BatchMode::automatic, 1989316ULL},
    {"pll", EngineKind::batched, BatchMode::pairwise, 108920ULL},
    {"pll", EngineKind::gillespie, BatchMode::automatic, 164045ULL},
    {"rated_epidemic", EngineKind::batched, BatchMode::pairwise, 150402124ULL},
    {"rated_election", EngineKind::batched, BatchMode::pairwise, 297771ULL},
    {"rated_election", EngineKind::gillespie, BatchMode::automatic, 17579183ULL},
};

class ShardedGoldenReplay : public ::testing::TestWithParam<ShardedGoldenRun> {};

TEST_P(ShardedGoldenReplay, StabilizationStepIsPinnedAtFourThreads) {
    const ShardedGoldenRun& run = GetParam();
    const std::size_t n = 8192;
    // Budgets are wide enough for every pinned run to converge. pll's
    // parallel time is heavy-tailed (about a quarter of its elections at
    // this n take its slow path past 64 parallel time; the batched/auto
    // cell is one of them, at ~243). The rated protocols need far wider
    // budgets: rated_epidemic's thinning dilates steps by ~max_rate (Θ(n²)
    // interactions in the slow two-candidate endgame; its median here is
    // ~n² steps and its pinned run takes ~2.2n²), and rated_election
    // inherits the lottery's heavy-tailed tie resolution.
    const StepCount budget = std::string(run.protocol) == "pll"
                                 ? static_cast<StepCount>(n) * 512
                                 : static_cast<StepCount>(n) * n * 4;
    const RunResult result = ProtocolRegistry::instance().run_election(
        run.protocol, n, /*seed=*/2019, budget, run.engine, run.batch_mode,
        /*faults=*/{}, /*threads=*/4);
    ASSERT_TRUE(result.converged) << "sharded golden run no longer converges";
    ASSERT_TRUE(result.stabilization_step.has_value());
    EXPECT_EQ(*result.stabilization_step, run.stabilization_step)
        << "sharded replay semantics changed for " << run.protocol << " on "
        << to_string(run.engine) << "/" << to_string(run.batch_mode)
        << " — if the change is intentional, update this table in the same commit";
}

std::string sharded_golden_name(const ::testing::TestParamInfo<ShardedGoldenRun>& info) {
    return std::string(info.param.protocol) + "_" +
           std::string(to_string(info.param.engine)) + "_" +
           std::string(to_string(info.param.batch_mode));
}

INSTANTIATE_TEST_SUITE_P(Cells, ShardedGoldenReplay,
                         ::testing::ValuesIn(sharded_golden_runs), sharded_golden_name);

// Replay with the same (seed, threads) must be bit-identical even when the
// pins above don't cover the cell — including a thread count that does not
// divide the live-state count evenly.
TEST(ParallelEngines, ReplayIsBitIdenticalPerThreadCount) {
    const std::size_t n = 8192;
    const auto budget = static_cast<StepCount>(n) * 256;
    for (const EngineKind engine : {EngineKind::batched, EngineKind::gillespie}) {
        for (const std::size_t threads : {std::size_t{3}, std::size_t{4}}) {
            const RunResult a = ProtocolRegistry::instance().run_election(
                "pll", n, /*seed=*/77, budget, engine, BatchMode::automatic,
                /*faults=*/{}, threads);
            const RunResult b = ProtocolRegistry::instance().run_election(
                "pll", n, /*seed=*/77, budget, engine, BatchMode::automatic,
                /*faults=*/{}, threads);
            ASSERT_TRUE(a.converged) << to_string(engine) << " threads=" << threads;
            EXPECT_EQ(a.steps, b.steps);
            ASSERT_EQ(a.stabilization_step.has_value(), b.stabilization_step.has_value());
            if (a.stabilization_step) {
                EXPECT_EQ(*a.stabilization_step, *b.stabilization_step)
                    << to_string(engine) << " threads=" << threads;
            }
            EXPECT_EQ(a.leader_count, b.leader_count);
        }
    }
}

// Sharded rounds move counts through per-shard delta buffers; any lost or
// double-merged delta breaks conservation. Run fixed work through both
// engines (pll exercises the unrated sharded sampling, rated_epidemic and
// rated_election the rated thinning / pre-thinning cell paths) and
// census-check the result.
TEST(ParallelEngines, ShardedRoundsConservePopulation) {
    const std::size_t n = 8192;
    const auto steps = static_cast<StepCount>(n) * 16;
    for (const EngineKind engine : {EngineKind::batched, EngineKind::gillespie}) {
        for (const char* protocol : {"pll", "rated_epidemic", "rated_election"}) {
            const auto sim = ProtocolRegistry::instance().make_simulation(
                protocol, n, /*seed=*/11, engine, BatchMode::automatic, /*threads=*/4);
            const RunResult run = sim->run_for(steps);
            EXPECT_GE(run.steps, steps) << protocol << " on " << to_string(engine);
            const ConfigurationSnapshot census = sim->state_counts();
            EXPECT_EQ(census.total(), n)
                << "sharded rounds leaked agents: " << protocol << " on "
                << to_string(engine);
            EXPECT_EQ(census.leaders(), sim->leader_count())
                << "incremental leader count diverged from census: " << protocol
                << " on " << to_string(engine);
        }
    }
}

// threads = 0 means "all hardware threads" everywhere the knob is plumbed;
// the resulting engine must still run (on a 1-CPU host this degenerates to
// the sequential path, which is exactly the point of the fallback).
TEST(ParallelEngines, ThreadsZeroResolvesToHardwareConcurrency) {
    const std::size_t n = 4096;
    const auto sim = ProtocolRegistry::instance().make_simulation(
        "lottery", n, /*seed=*/5, EngineKind::batched, BatchMode::automatic,
        /*threads=*/0);
    const RunResult run = sim->run_for(static_cast<StepCount>(n) * 4);
    EXPECT_GE(run.steps, static_cast<StepCount>(n) * 4);
    EXPECT_EQ(sim->state_counts().total(), n);
}

}  // namespace
}  // namespace ppsim
