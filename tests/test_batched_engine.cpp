// Agreement and invariant tests for the count-based batched engine
// (src/core/batched_engine.hpp) and its samplers (src/core/random.hpp):
//
//  * the hypergeometric sampler matches the exact pmf;
//  * the collision-free run-length sampler matches brute-force simulation,
//    from a fresh round and from rounds that already used some agents;
//  * the count store lists a re-touched id once;
//  * BatchedEngine conserves agent counts, keeps its incremental leader
//    count consistent, runs exact budgets, and is deterministic under a
//    fixed seed;
//  * its census after a fixed number of steps agrees with the agent
//    engine's (chi-square homogeneity);
//  * the distribution of stabilisation times agrees with the agent-based
//    Engine (mean/variance tolerance at small n — the two engines sample
//    the same process through entirely different code paths);
//  * the registry runs elections on either engine by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "core/batch_pairing.hpp"
#include "core/batched_engine.hpp"
#include "core/count_store.hpp"
#include "core/engine.hpp"
#include "core/random.hpp"
#include "core/state_index.hpp"
#include "core/stats.hpp"
#include "protocols/angluin.hpp"
#include "protocols/lottery.hpp"
#include "protocols/pll.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

static_assert(InternableProtocol<Angluin>);
static_assert(InternableProtocol<Lottery>);
static_assert(InternableProtocol<Pll>);

/// Upper tail P(χ²_dof ≥ x): the regularised incomplete gamma Q(dof/2,
/// x/2), by its series below a + 1 and its continued fraction above.
double chi_square_p_value(double x, std::size_t dof) {
    const double a = static_cast<double>(dof) / 2.0;
    const double z = x / 2.0;
    if (z <= 0.0) return 1.0;
    const double log_prefix = a * std::log(z) - z - std::lgamma(a);
    if (z < a + 1.0) {
        double term = 1.0 / a;
        double sum = term;
        for (int i = 1; i < 1000 && term > sum * 1e-15; ++i) {
            term *= z / (a + i);
            sum += term;
        }
        return 1.0 - sum * std::exp(log_prefix);
    }
    const double tiny = 1e-300;
    double b = z + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < 1000; ++i) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < tiny) d = tiny;
        c = b + an / c;
        if (std::abs(c) < tiny) c = tiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < 1e-15) break;
    }
    return std::exp(log_prefix) * h;
}

using Histogram = std::map<std::uint64_t, std::uint64_t>;

/// Chi-square homogeneity p-value of two samples over the same integer
/// bins. Adjacent bins are pooled until every pooled bin expects at least
/// five observations in each sample; a short tail joins the last full bin.
double homogeneity_p_value(const Histogram& x, const Histogram& y) {
    std::uint64_t nx = 0;
    std::uint64_t ny = 0;
    Histogram keys;
    for (const auto& [k, c] : x) {
        nx += c;
        keys[k] = 0;
    }
    for (const auto& [k, c] : y) {
        ny += c;
        keys[k] = 0;
    }
    const double fx = static_cast<double>(nx) / static_cast<double>(nx + ny);
    const double fy = 1.0 - fx;
    std::vector<std::pair<double, double>> bins;
    std::pair<double, double> open{0.0, 0.0};
    for (const auto& entry : keys) {
        const std::uint64_t k = entry.first;
        open.first += static_cast<double>(x.count(k) != 0 ? x.at(k) : 0);
        open.second += static_cast<double>(y.count(k) != 0 ? y.at(k) : 0);
        const double total = open.first + open.second;
        if (total * fx >= 5.0 && total * fy >= 5.0) {
            bins.push_back(open);
            open = {0.0, 0.0};
        }
    }
    if (bins.empty()) return 1.0;
    bins.back().first += open.first;
    bins.back().second += open.second;
    if (bins.size() < 2) return 1.0;
    double chi2 = 0.0;
    for (const auto& [ox, oy] : bins) {
        const double total = ox + oy;
        chi2 += (ox - total * fx) * (ox - total * fx) / (total * fx);
        chi2 += (oy - total * fy) * (oy - total * fy) / (total * fy);
    }
    return chi_square_p_value(chi2, bins.size() - 1);
}

TEST(Samplers, HypergeometricMatchesExactPmf) {
    Rng rng(123);
    const std::uint64_t total = 40;
    const std::uint64_t successes = 15;
    const std::uint64_t draws = 12;
    std::map<std::uint64_t, int> freq;
    const int reps = 400000;
    for (int i = 0; i < reps; ++i) ++freq[hypergeometric(rng, total, successes, draws)];
    for (const auto& [value, count] : freq) {
        const double exact =
            std::exp(detail::log_choose(successes, value) +
                     detail::log_choose(total - successes, draws - value) -
                     detail::log_choose(total, draws));
        const double empirical = static_cast<double>(count) / reps;
        // 5σ binomial tolerance around the exact pmf.
        const double sigma = std::sqrt(exact * (1.0 - exact) / reps);
        EXPECT_NEAR(empirical, exact, 5.0 * sigma + 1e-4) << "x = " << value;
    }
}

TEST(Samplers, HypergeometricRespectsSupport) {
    Rng rng(7);
    // draws + successes > total forces a minimum number of successes.
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t x = hypergeometric(rng, 10, 8, 7);
        EXPECT_GE(x, 5U);  // lo = 7 + 8 − 10
        EXPECT_LE(x, 7U);
    }
    EXPECT_EQ(hypergeometric(rng, 5, 5, 3), 3U);  // all successes
    EXPECT_EQ(hypergeometric(rng, 5, 0, 3), 0U);  // no successes
    EXPECT_EQ(hypergeometric(rng, 5, 3, 0), 0U);  // no draws
}

TEST(Samplers, CollisionRunMatchesBruteForce) {
    const std::size_t n = 10;
    const int reps = 300000;
    Rng rng(99);
    std::map<std::uint64_t, int> sampled;
    for (int i = 0; i < reps; ++i) ++sampled[sample_collision_free_run(rng, n)];

    UniformScheduler scheduler(n, 4242);
    std::map<std::uint64_t, int> brute;
    for (int i = 0; i < reps; ++i) {
        std::vector<bool> touched(n, false);
        std::uint64_t length = 0;
        while (true) {
            const Interaction ia = scheduler.next();
            if (touched[ia.initiator] || touched[ia.responder]) break;
            touched[ia.initiator] = true;
            touched[ia.responder] = true;
            ++length;
        }
        ++brute[length];
    }
    for (std::uint64_t l = 1; l <= n / 2; ++l) {
        const double p_sampled = static_cast<double>(sampled[l]) / reps;
        const double p_brute = static_cast<double>(brute[l]) / reps;
        EXPECT_NEAR(p_sampled, p_brute, 0.01) << "L = " << l;
    }
}

// The offset sampler against brute force: j agents are pre-marked as used
// and the run counts the fresh–fresh interactions of a uniform scheduler
// before the first one that involves a used agent (or re-uses one of its
// own). j = 0 is the fresh round of a batch.
TEST(Samplers, CollisionRunOffsetMatchesBruteForce) {
    const std::uint64_t n = 20;
    const int reps = 200000;
    for (const std::uint64_t used : {0U, 1U, 5U, 12U}) {
        Rng rng(31 + used);
        CollisionRunSampler sampler(n);
        Histogram sampled;
        for (int i = 0; i < reps; ++i) ++sampled[sampler.sample(rng, used, n)];

        UniformScheduler scheduler(n, 4242 + used);
        Histogram brute;
        for (int i = 0; i < reps; ++i) {
            std::vector<bool> busy(n, false);
            for (std::uint64_t a = 0; a < used; ++a) busy[a] = true;
            std::uint64_t length = 0;
            while (true) {
                const Interaction ia = scheduler.next();
                if (busy[ia.initiator] || busy[ia.responder]) break;
                busy[ia.initiator] = true;
                busy[ia.responder] = true;
                ++length;
            }
            ++brute[length];
        }
        EXPECT_GT(homogeneity_p_value(sampled, brute), 1e-3) << "used = " << used;
        if (used == 0) EXPECT_EQ(sampled.count(0), 0U) << "a fresh round always runs";
    }
}

// A cap shorter than the run truncates it: the result is min(L, cap).
TEST(Samplers, CollisionRunOffsetRespectsCap) {
    CollisionRunSampler sampler(1U << 20U);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(sampler.sample(rng, 0, 1), 1U);
        EXPECT_LE(sampler.sample(rng, 100, 3), 3U);
    }
}

// An id emptied by untouch_one and touched again is listed once, so a walk
// of touched_ids() weighs it by its entry exactly once.
TEST(BatchedEngineCountStore, RetouchAfterEmptyingListsTheIdOnce) {
    const Angluin proto;
    InternedCountStore<Angluin> store;
    const StateId leader = store.intern(proto, AngluinState{true});
    const StateId follower = store.intern(proto, AngluinState{false});
    store.touch(leader, 1);
    store.touch(follower, 2);
    store.untouch_one(leader);
    store.touch(leader, 3);
    const std::vector<StateId>& ids = store.touched_ids();
    EXPECT_EQ(std::count(ids.begin(), ids.end(), leader), 1);
    std::uint64_t listed = 0;
    for (const StateId id : ids) listed += store.touched()[id];
    EXPECT_EQ(listed, store.touched_total());
    EXPECT_EQ(store.touched_total(), 5U);

    store.merge_touched();
    EXPECT_TRUE(store.touched_ids().empty());
    EXPECT_EQ(store.counts()[leader], 3U);
    EXPECT_EQ(store.counts()[follower], 2U);
    store.touch(leader, 1);
    EXPECT_EQ(store.touched_ids().size(), 1U);
}

TEST(StateIndex, InternsByCanonicalKey) {
    StateIndex<Lottery> index;
    const Lottery proto(8);
    LotteryState a;  // level 0, not done, leader
    LotteryState b;
    b.level = 3;
    const StateId ia = index.intern(proto, a);
    const StateId ib = index.intern(proto, b);
    EXPECT_NE(ia, ib);
    EXPECT_EQ(index.intern(proto, a), ia);  // idempotent
    EXPECT_EQ(index.size(), 2U);
    EXPECT_EQ(index.role(ia), Role::leader);
    EXPECT_EQ(index.state(ib).level, 3);
}

TEST(BatchedEngine, StartsLikeAgentEngine) {
    BatchedEngine<Angluin> engine(Angluin{}, 10, 1);
    EXPECT_EQ(engine.leader_count(), 10U);
    EXPECT_EQ(engine.steps(), 0U);
    EXPECT_EQ(engine.population_size(), 10U);
    EXPECT_EQ(engine.total_count(), 10U);
    EXPECT_THROW(BatchedEngine<Angluin>(Angluin{}, 1, 1), InvalidArgument);
}

TEST(BatchedEngine, ConservesCountsAndLeaderTally) {
    const std::size_t n = 500;
    BatchedEngine<Lottery> engine(Lottery::for_population(n), n, 42);
    for (int chunk = 0; chunk < 50; ++chunk) {
        (void)engine.run_for(100);
        ASSERT_EQ(engine.total_count(), n) << "count conservation violated";
        const std::size_t incremental = engine.leader_count();
        ASSERT_EQ(engine.recount_leaders(), incremental)
            << "incremental leader tally diverged from recount";
    }
}

TEST(BatchedEngine, SeededRunsAreDeterministic) {
    const std::size_t n = 256;
    BatchedEngine<Pll> a(Pll::for_population(n), n, 77);
    BatchedEngine<Pll> b(Pll::for_population(n), n, 77);
    const RunResult ra = a.run_until_one_leader(1'000'000);
    const RunResult rb = b.run_until_one_leader(1'000'000);
    EXPECT_EQ(ra.converged, rb.converged);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.leader_count, rb.leader_count);
    EXPECT_EQ(ra.stabilization_step, rb.stabilization_step);
    EXPECT_EQ(a.total_count(), b.total_count());
    EXPECT_EQ(a.live_state_count(), b.live_state_count());
}

TEST(BatchedEngine, ElectsExactlyOneLeader) {
    for (const std::size_t n : {4UL, 16UL, 64UL, 256UL}) {
        BatchedEngine<Angluin> engine(Angluin{}, n, n);
        const RunResult r = engine.run_until_one_leader(50'000'000);
        EXPECT_TRUE(r.converged) << "n = " << n;
        EXPECT_EQ(r.leader_count, 1U) << "n = " << n;
        ASSERT_TRUE(r.stabilization_step.has_value());
        EXPECT_LE(*r.stabilization_step, r.steps);
        EXPECT_EQ(engine.count_of(AngluinState{true}), 1U);
        EXPECT_EQ(engine.count_of(AngluinState{false}), n - 1);
    }
}

TEST(BatchedEngine, VerifyOutputsStableAfterConvergence) {
    const std::size_t n = 64;
    BatchedEngine<Angluin> engine(Angluin{}, n, 5);
    const RunResult r = engine.run_until_one_leader(50'000'000);
    ASSERT_TRUE(r.converged);
    // Angluin's single-leader configuration is absorbing: long suffixes
    // must not change any output.
    EXPECT_TRUE(engine.verify_outputs_stable(20'000));
}

TEST(BatchedEngine, VerifyDetectsOngoingChanges) {
    const std::size_t n = 512;
    BatchedEngine<Angluin> engine(Angluin{}, n, 5);
    // From the all-leaders initial configuration the outputs churn heavily.
    EXPECT_FALSE(engine.verify_outputs_stable(5'000));
}

// run_for(k) runs exactly k steps for every k up to 3n: these budgets end
// rounds mid-run and right at a collision alike, and counts are conserved.
TEST(BatchedEngine, RunForRunsExactBudgets) {
    const std::size_t n = 64;
    for (StepCount k = 1; k <= 3 * n; ++k) {
        BatchedEngine<Pll> engine(Pll::for_population(n), n, 500 + k);
        const RunResult r = engine.run_for(k);
        ASSERT_EQ(r.steps, k);
        ASSERT_EQ(engine.total_count(), n) << "k = " << k;
        ASSERT_EQ(engine.recount_leaders(), r.leader_count) << "k = " << k;
    }
}

// The census after a fixed number of steps agrees with the agent engine's:
// chi-square homogeneity of the leader count and of the live-state count
// at n = 64 after 3n steps. Multibatch rounds take many agents out of the
// touched multiset, so a multiset that weighs an id twice shows up here.
TEST(BatchedEngineCensus, FixedStepCensusMatchesAgentEngine) {
    const std::size_t n = 64;
    const StepCount steps = 3 * n;
    const int reps = 80000;
    const Pll proto = Pll::for_population(n);
    Histogram agent_leaders;
    Histogram agent_live;
    Histogram batched_leaders;
    Histogram batched_live;
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < reps; ++i) {
        Engine<Pll> agent(proto, n, derive_seed(3000, static_cast<std::uint64_t>(i)));
        (void)agent.run_for(steps);
        ++agent_leaders[agent.leader_count()];
        keys.clear();
        for (const PllState& s : agent.population().states()) {
            keys.push_back(state_key_of(proto, s));
        }
        std::sort(keys.begin(), keys.end());
        ++agent_live[static_cast<std::uint64_t>(
            std::unique(keys.begin(), keys.end()) - keys.begin())];

        BatchedEngine<Pll> batched(proto, n, derive_seed(4000, static_cast<std::uint64_t>(i)));
        (void)batched.run_for(steps);
        ASSERT_EQ(batched.total_count(), n);
        ++batched_leaders[batched.leader_count()];
        ++batched_live[batched.live_state_count()];
    }
    EXPECT_GT(homogeneity_p_value(agent_leaders, batched_leaders), 1e-3);
    EXPECT_GT(homogeneity_p_value(agent_live, batched_live), 1e-3);
}

// The acceptance test of the batched engine: stabilisation parallel-time
// distribution agrees with the agent-based engine, under each pairing
// strategy. Both means and variances must match within a generous multiple
// of the standard error — the engines share no simulation code beyond the
// protocol itself, so agreement here pins the whole batching pipeline (run
// lengths, hypergeometric chains, pairing, collision handling, crossing
// detection) per BatchMode.
template <typename P>
void expect_distribution_agreement(P proto, std::size_t n, int reps, StepCount budget,
                                   BatchMode batch_mode = BatchMode::automatic) {
    RunningStats agent_stats;
    RunningStats batched_stats;
    for (int i = 0; i < reps; ++i) {
        Engine<P> agent(proto, n, derive_seed(1000, static_cast<std::uint64_t>(i)));
        const RunResult ra = agent.run_until_one_leader(budget);
        ASSERT_TRUE(ra.converged && ra.stabilization_step);
        agent_stats.add(ra.stabilization_parallel_time(n));

        BatchedEngine<P> batched(proto, n,
                                 derive_seed(2000, static_cast<std::uint64_t>(i)),
                                 batch_mode);
        const RunResult rb = batched.run_until_one_leader(budget);
        ASSERT_TRUE(rb.converged && rb.stabilization_step);
        batched_stats.add(rb.stabilization_parallel_time(n));
    }
    const double se = std::sqrt(agent_stats.variance() / reps +
                                batched_stats.variance() / reps);
    EXPECT_NEAR(agent_stats.mean(), batched_stats.mean(), 5.0 * se)
        << "agent mean " << agent_stats.mean() << " vs batched ("
        << to_string(batch_mode) << ") mean " << batched_stats.mean();
    // Variances agree loosely (ratio test; stabilisation times are skewed).
    const double var_ratio = (agent_stats.variance() + 1e-9) /
                             (batched_stats.variance() + 1e-9);
    EXPECT_GT(var_ratio, 0.5) << to_string(batch_mode);
    EXPECT_LT(var_ratio, 2.0) << to_string(batch_mode);
}

TEST(BatchedEngineAgreement, AngluinStabilizationTimes) {
    expect_distribution_agreement(Angluin{}, 64, 400, 10'000'000);
}

TEST(BatchedEngineAgreement, LotteryStabilizationTimes) {
    expect_distribution_agreement(Lottery::for_population(128), 128, 300,
                                  10'000'000);
}

TEST(BatchedEngineAgreement, PllStabilizationTimes) {
    expect_distribution_agreement(Pll::for_population(64), 64, 200, 10'000'000);
}

// Forced pairing strategies agree with the agent engine too — the pairwise
// and bulk samplers draw the same uniform bijection through entirely
// different code paths (Fisher–Yates vs contingency-table chains).
TEST(BatchedEngineAgreement, AngluinForcedModesStabilizationTimes) {
    expect_distribution_agreement(Angluin{}, 64, 300, 10'000'000, BatchMode::pairwise);
    expect_distribution_agreement(Angluin{}, 64, 300, 10'000'000, BatchMode::bulk);
}

TEST(BatchedEngineAgreement, LotteryForcedModesStabilizationTimes) {
    expect_distribution_agreement(Lottery::for_population(128), 128, 250, 10'000'000,
                                  BatchMode::pairwise);
    expect_distribution_agreement(Lottery::for_population(128), 128, 250, 10'000'000,
                                  BatchMode::bulk);
}

TEST(BatchedEngineAgreement, PllForcedModesStabilizationTimes) {
    expect_distribution_agreement(Pll::for_population(64), 64, 150, 10'000'000,
                                  BatchMode::pairwise);
    expect_distribution_agreement(Pll::for_population(64), 64, 150, 10'000'000,
                                  BatchMode::bulk);
}

TEST(BatchedEngineModes, SeededRunsAreDeterministicPerMode) {
    const std::size_t n = 256;
    for (const BatchModeDescriptor& d : batch_mode_table) {
        BatchedEngine<Pll> a(Pll::for_population(n), n, 77, d.mode);
        BatchedEngine<Pll> b(Pll::for_population(n), n, 77, d.mode);
        EXPECT_EQ(a.batch_mode(), d.mode);
        const RunResult ra = a.run_until_one_leader(1'000'000);
        const RunResult rb = b.run_until_one_leader(1'000'000);
        EXPECT_EQ(ra.steps, rb.steps) << d.name;
        EXPECT_EQ(ra.stabilization_step, rb.stabilization_step) << d.name;
        EXPECT_EQ(a.live_state_count(), b.live_state_count()) << d.name;
    }
}

TEST(BatchedEngineModes, BulkPairingConservesCountsAndLeaderTally) {
    // Forced contingency-table pairing on a multi-state protocol: counts
    // and the incremental leader tally must survive heavy batching.
    const std::size_t n = 2048;
    BatchedEngine<Lottery> engine(Lottery::for_population(n), n, 42, BatchMode::bulk);
    for (int chunk = 0; chunk < 40; ++chunk) {
        (void)engine.run_for(500);
        ASSERT_EQ(engine.total_count(), n) << "count conservation violated";
        const std::size_t incremental = engine.leader_count();
        ASSERT_EQ(engine.recount_leaders(), incremental)
            << "incremental leader tally diverged from recount";
    }
}

TEST(BatchedEngineModes, EveryModeElectsOneLeaderForAllRegisteredProtocols) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const std::string& name : registry.names()) {
        for (const BatchModeDescriptor& d : batch_mode_table) {
            const RunResult r = registry.run_election(name, 64, 3, 50'000'000,
                                                      EngineKind::batched, d.mode);
            EXPECT_TRUE(r.converged) << name << "/" << d.name;
            EXPECT_EQ(r.leader_count, 1U) << name << "/" << d.name;
            ASSERT_TRUE(r.stabilization_step.has_value()) << name << "/" << d.name;
            EXPECT_LE(*r.stabilization_step, r.steps) << name << "/" << d.name;
        }
    }
}

TEST(BatchModeParsing, RoundTripsAndRejects) {
    for (const BatchModeDescriptor& d : batch_mode_table) {
        EXPECT_EQ(to_string(d.mode), d.name);
        EXPECT_EQ(parse_batch_mode(d.name), d.mode);
        EXPECT_NE(batch_mode_list().find(d.name), std::string::npos);
        EXPECT_FALSE(d.summary.empty());
    }
    EXPECT_EQ(parse_batch_mode("auto"), BatchMode::automatic);
    EXPECT_EQ(parse_batch_mode("pairwise"), BatchMode::pairwise);
    EXPECT_EQ(parse_batch_mode("bulk"), BatchMode::bulk);
    EXPECT_THROW((void)parse_batch_mode("warp-drive"), InvalidArgument);
}

TEST(BatchPairingStrategies, BothProduceExactBijectionsOfTheMultisets) {
    // Feed both strategies the same multisets: every produced pairing must
    // be a bijection — initiator side visited in multiset order, responder
    // side a permutation of the responder multiset.
    Rng rng(9);
    const StateMultiset initiators = {{0, 5}, {1, 3}, {2, 8}};
    const StateMultiset responders_template = {{0, 10}, {3, 4}, {4, 2}};
    const std::uint64_t fresh = 16;
    for (const BatchMode mode : {BatchMode::pairwise, BatchMode::bulk}) {
        for (int rep = 0; rep < 200; ++rep) {
            StateMultiset responders = responders_template;
            BatchPairs pairs;
            sample_batch_pairing(mode, rng, initiators, responders, fresh, pairs);
            EXPECT_EQ(pairs.pair_total(), fresh) << to_string(mode);
            std::map<StateId, std::uint64_t> a_hist;
            std::map<StateId, std::uint64_t> b_hist;
            pairs.for_each([&](StateId a, StateId b, std::uint64_t mult) {
                a_hist[a] += mult;
                b_hist[b] += mult;
            });
            for (const auto& [state, count] : initiators) {
                EXPECT_EQ(a_hist[state], count) << to_string(mode);
            }
            for (const auto& [state, count] : responders_template) {
                EXPECT_EQ(b_hist[state], count) << to_string(mode);
            }
        }
    }
}

TEST(BatchPairingStrategies, ContingencyCellsMatchShuffleCellsInDistribution) {
    // The two strategies sample the same uniform bijection: the expected
    // count of any (a, b) cell is |a|·|b| / fresh. Check each cell's mean
    // over many repetitions within 5σ for both strategies.
    const StateMultiset initiators = {{0, 6}, {1, 10}};
    const StateMultiset responders_template = {{2, 8}, {3, 8}};
    const std::uint64_t fresh = 16;
    const int reps = 60000;
    for (const BatchMode mode : {BatchMode::pairwise, BatchMode::bulk}) {
        Rng rng(1234);  // same stream for both strategies
        std::map<std::pair<StateId, StateId>, double> sums;
        BatchPairs pairs;
        for (int rep = 0; rep < reps; ++rep) {
            StateMultiset responders = responders_template;
            sample_batch_pairing(mode, rng, initiators, responders, fresh, pairs);
            pairs.for_each([&](StateId a, StateId b, std::uint64_t mult) {
                sums[{a, b}] += static_cast<double>(mult);
            });
        }
        for (const auto& [state_a, count_a] : initiators) {
            for (const auto& [state_b, count_b] : responders_template) {
                const double expected = static_cast<double>(count_a) *
                                        static_cast<double>(count_b) /
                                        static_cast<double>(fresh);
                const double mean = sums[{state_a, state_b}] / reps;
                // Cell counts are hypergeometric-like with sd < sqrt(mean);
                // 5σ of the empirical mean over `reps` repetitions.
                const double tolerance =
                    5.0 * std::sqrt(expected) / std::sqrt(static_cast<double>(reps));
                EXPECT_NEAR(mean, expected, tolerance)
                    << to_string(mode) << " cell (" << state_a << "," << state_b << ")";
            }
        }
    }
}

TEST(BatchedEngineRegistry, RunsElectionsOnEitherEngine) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const std::string& name : registry.names()) {
        const RunResult r =
            registry.run_election(name, 64, 3, 50'000'000, EngineKind::batched);
        EXPECT_TRUE(r.converged) << name;
        EXPECT_EQ(r.leader_count, 1U) << name;
    }
}

TEST(BatchedEngineRegistry, VerifiedBatchedRunsConfirmStability) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const RunResult r = registry.run_election_verified("pll", 128, 9, 50'000'000,
                                                      10'000, EngineKind::batched);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.leader_count, 1U);
}

TEST(BatchedEngineRegistry, RunForExecutesFixedWork) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const RunResult agent = registry.run_for("angluin06", 64, 3, 10'000);
    EXPECT_EQ(agent.steps, 10'000U);
    // The batched engine clamps its final collision-free run to the budget,
    // so the step count is exact there too.
    const RunResult batched =
        registry.run_for("angluin06", 64, 3, 10'000, EngineKind::batched);
    EXPECT_EQ(batched.steps, 10'000U);
}

TEST(EngineKindParsing, RoundTripsAndRejects) {
    EXPECT_EQ(parse_engine_kind("agent"), EngineKind::agent);
    EXPECT_EQ(parse_engine_kind("batched"), EngineKind::batched);
    EXPECT_EQ(to_string(EngineKind::batched), "batched");
    EXPECT_EQ(to_string(EngineKind::agent), "agent");
    EXPECT_THROW((void)parse_engine_kind("warp-drive"), InvalidArgument);
}

}  // namespace
}  // namespace ppsim
