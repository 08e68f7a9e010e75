// Per-layer measurements outside the election loops. Census vectors are
// captured with Simulation::state_counts at fixed model times of one
// election of the workload (its first seed, on its engine) and replayed
// through the public functions of the random, batch-pairing,
// transition-cache and protocol layers; the calibration probe and the
// sharding ratio are timed directly.
#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/batch_pairing.hpp"
#include "core/hybrid_engine.hpp"
#include "core/random.hpp"
#include "core/transition_cache.hpp"
#include "protocols/registry.hpp"

namespace electbench {

using namespace ppsim;

namespace {

/// Model times (parallel time) at which census vectors are captured: points
/// through epoch 1 (QuickElimination's lottery), which every election runs
/// and most never leave.
constexpr double census_times[] = {0.5, 2.0, 8.0, 16.0};

/// Keeps replayed results observable so no timed call is optimised away.
volatile std::uint64_t observed = 0;

/// Minimum timed wall per replayed (layer, census) pair.
constexpr double replay_seconds = 0.02;

/// One census: states by index, with their counts (sum = n).
struct Census {
    std::vector<PllState> states;
    std::vector<std::uint64_t> counts;
};

std::vector<Census> capture_census(const Context& ctx) {
    const std::size_t n = ctx.workload.n;
    const auto sim = ProtocolRegistry::instance().make_simulation(
        "pll", n, derive_seed(ctx.seed, 0), ctx.workload.engine, BatchMode::automatic, 1);
    std::vector<Census> out;
    for (const double t : census_times) {
        const StepCount target = model_time_to_step(t, n);
        (void)sim->run_until_one_leader(target - sim->steps());
        if (sim->steps() != target) break;  // decided before this model time
        const ConfigurationSnapshot snapshot = sim->state_counts();
        const auto typed = typed_counts(*sim);
        Census census;
        std::uint64_t total = 0;
        for (const auto& [state, count] : typed) {
            census.states.push_back(state);
            census.counts.push_back(count);
            total += count;
        }
        require(snapshot.total() == n && total == n &&
                    typed.size() == snapshot.counts.size(),
                "census capture does not conserve the population");
        out.push_back(std::move(census));
    }
    return out;
}

/// Calls `batch()` (which makes `calls` calls of the timed function) until
/// `replay_seconds` have passed; returns ns per call.
double ns_per_call(std::size_t calls, const std::function<void()>& batch,
                   const std::function<void()>& reset = {}) {
    double busy = 0.0;
    std::size_t done = 0;
    while (busy < replay_seconds) {
        if (reset) reset();
        const auto t0 = Clock::now();
        batch();
        busy += seconds_between(t0, Clock::now());
        done += calls;
    }
    return busy * 1e9 / static_cast<double>(done);
}

StateMultiset to_multiset(const std::vector<std::uint64_t>& drawn) {
    StateMultiset out;
    for (std::size_t i = 0; i < drawn.size(); ++i) {
        if (drawn[i] > 0) out.emplace_back(static_cast<StateId>(i), drawn[i]);
    }
    return out;
}

/// Accumulates per-census replay timings into the report (means over census).
struct Replayer {
    const Context& ctx;
    Tracer& tracer;
    Rng rng;
    std::uint64_t sink = 0;
    std::size_t points = 0;
    LayerReport sums;

    void replay(const Census& c) {
        const std::size_t n = ctx.workload.n;
        const std::size_t m = c.counts.size();
        const std::uint64_t leap =
            std::max<std::uint64_t>(1, n / GillespieEngine<Pll>::leap_divisor);
        std::vector<std::uint64_t> out(m);
        const auto timed = [this](const char* layer, std::size_t calls,
                                  const std::function<void()>& batch,
                                  const std::function<void()>& reset = {}) {
            const auto t0 = Clock::now();
            const double ns = ns_per_call(calls, batch, reset);
            tracer.span(layer, t0, Clock::now(), 0);
            return ns;
        };

        // random: the τ-leap multiset chain and its scalar binomial draws.
        sums.multinomial_ns += timed("random.multinomial", 8, [&] {
            for (int i = 0; i < 8; ++i) {
                multinomial(rng, c.counts.data(), m, leap, out.data());
                sink += out[0];
            }
        });
        struct Draw {
            std::uint64_t trials, num, den;
        };
        std::vector<Draw> draws;
        {
            std::uint64_t remaining = leap;
            std::uint64_t pool = n;
            for (std::size_t i = 0; i < m && remaining > 0; ++i) {
                if (c.counts[i] == pool) break;
                draws.push_back({remaining, c.counts[i], pool});
                remaining -= binomial(rng, remaining, c.counts[i], pool);
                pool -= c.counts[i];
            }
        }
        if (!draws.empty()) {
            sums.binomial_ns += timed("random.binomial", draws.size(), [&] {
                for (const Draw& d : draws) sink += binomial(rng, d.trials, d.num, d.den);
            });
        }
        const CollisionRunSampler runs(n);
        sums.collision_run_ns += timed("random.collision_run", 64, [&] {
            for (int i = 0; i < 64; ++i) sink += runs.sample(rng);
        });
        std::uint64_t batch_len = 0;
        for (int i = 0; i < 64; ++i) batch_len += runs.sample(rng);
        batch_len = std::max<std::uint64_t>(1, batch_len / 64);
        sums.mvhg_ns += timed("random.mvhg", 8, [&] {
            for (int i = 0; i < 8; ++i) {
                multivariate_hypergeometric(rng, c.counts.data(), m, batch_len, out.data());
                sink += out[0];
            }
        });

        // batch_pairing: initiator/responder multisets of the workload's
        // round kind — τ-leaps (with replacement) on the gillespie/hybrid
        // workload, collision-free batches (without) elsewhere.
        const bool leaps = ctx.workload.engine == EngineKind::hybrid ||
                           ctx.workload.engine == EngineKind::gillespie;
        const std::uint64_t len = leaps ? leap : batch_len;
        constexpr int samples = 16;
        std::vector<StateMultiset> initiators;
        std::vector<StateMultiset> responders;
        std::size_t bulk = 0;
        for (int s = 0; s < samples; ++s) {
            if (leaps) {
                initiators.push_back(to_multiset(multinomial(rng, c.counts, len)));
                responders.push_back(to_multiset(multinomial(rng, c.counts, len)));
            } else {
                std::vector<std::uint64_t> left = c.counts;
                const auto ini = multivariate_hypergeometric(rng, left, len);
                for (std::size_t i = 0; i < m; ++i) left[i] -= ini[i];
                initiators.push_back(to_multiset(ini));
                responders.push_back(to_multiset(multivariate_hypergeometric(rng, left, len)));
            }
            bulk += use_bulk_pairing(BatchMode::automatic, initiators.back().size(),
                                     responders.back().size(), len)
                        ? 1
                        : 0;
        }
        sums.bulk_share += static_cast<double>(bulk) / samples;
        BatchPairs pairs;
        sums.pairwise_ns += timed("batch_pairing.pairwise", samples, [&] {
            for (int s = 0; s < samples; ++s) {
                (void)sample_batch_pairing(BatchMode::pairwise, rng, initiators[s],
                                           responders[s], len, pairs);
                sink += pairs.group_count();
            }
        });
        std::vector<StateMultiset> scratch;
        sums.bulk_ns += timed(
            "batch_pairing.bulk", samples,
            [&] {
                for (int s = 0; s < samples; ++s) {
                    (void)sample_batch_pairing(BatchMode::bulk, rng, initiators[s],
                                               scratch[s], len, pairs);
                    sink += pairs.group_count();
                }
            },
            [&] { scratch = responders; });

        // The pairs the pairwise strategy produced, as census indices.
        std::vector<StateId> pair_a;
        std::vector<StateId> pair_b;
        for (int s = 0; s < samples; ++s) {
            (void)sample_batch_pairing(BatchMode::pairwise, rng, initiators[s],
                                       responders[s], len, pairs);
            pair_a.insert(pair_a.end(), pairs.flat_a.begin(), pairs.flat_a.end());
            pair_b.insert(pair_b.end(), pairs.flat_b.begin(), pairs.flat_b.end());
        }

        // transition_cache: memoise every replayed pair (outputs interned
        // after the census states), then time lookups.
        const Pll proto = Pll::for_population(n);
        std::vector<PllState> states = c.states;
        std::unordered_map<std::uint64_t, StateId> ids;
        for (std::size_t i = 0; i < states.size(); ++i) {
            ids.emplace(proto.state_key(states[i]), static_cast<StateId>(i));
        }
        const auto intern = [&](const PllState& s) {
            const auto [it, fresh] =
                ids.emplace(proto.state_key(s), static_cast<StateId>(states.size()));
            if (fresh) states.push_back(s);
            return it->second;
        };
        TransitionCache cache;
        for (std::size_t i = 0; i < pair_a.size(); ++i) {
            (void)cache.get(pair_a[i], pair_b[i], [&](StateId a, StateId b) {
                PllState sa = states[a];
                PllState sb = states[b];
                proto.interact(sa, sb);
                CachedTransition tr;
                tr.out_a = intern(sa);
                tr.out_b = intern(sb);
                return tr;
            });
        }
        sums.find_ns += timed("transition_cache.find", pair_a.size(), [&] {
            for (std::size_t i = 0; i < pair_a.size(); ++i) {
                if (const CachedTransition* tr = cache.find(pair_a[i], pair_b[i])) {
                    sink += tr->out_a;
                }
            }
        });

        // pll: the same pairs through the protocol's transition function.
        std::vector<PllState> as(pair_a.size());
        std::vector<PllState> bs(pair_b.size());
        sums.interact_ns += timed(
            "pll.interact", pair_a.size(),
            [&] {
                for (std::size_t i = 0; i < as.size(); ++i) proto.interact(as[i], bs[i]);
                sink += as.back().count + bs.back().count;
            },
            [&] {
                for (std::size_t i = 0; i < pair_a.size(); ++i) {
                    as[i] = c.states[pair_a[i]];
                    bs[i] = c.states[pair_b[i]];
                }
            });

        sums.live_states_mean += static_cast<double>(m);
        ++points;
    }
};

/// Median of `reps` wall-clock timings of `fn`.
double median_seconds(int reps, const std::function<void()>& fn) {
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        times.push_back(seconds_between(t0, Clock::now()));
    }
    return quantile(times, 0.5);
}

}  // namespace

LayerReport measure_layers(const Context& ctx, Tracer& tracer) {
    const std::size_t n = ctx.workload.n;
    Replayer replayer{ctx, tracer, Rng(derive_seed(ctx.seed, 0x6c617972ULL)), 0, 0, {}};
    for (const Census& census : capture_census(ctx)) replayer.replay(census);
    LayerReport report = replayer.sums;
    const auto points = static_cast<double>(std::max<std::size_t>(1, replayer.points));
    for (double* v : {&report.multinomial_ns, &report.binomial_ns, &report.mvhg_ns,
                      &report.collision_run_ns, &report.pairwise_ns, &report.bulk_ns,
                      &report.bulk_share, &report.find_ns, &report.interact_ns,
                      &report.live_states_mean}) {
        *v /= points;
    }
    report.census_points = replayer.points;

    // calibration: the cold probe the hybrid engine pays at this n.
    const Pll proto = Pll::for_population(n);
    report.probe_s = median_seconds(3, [&] {
        const CalibrationTable table = probe_calibration(proto, n, 1);
        replayer.sink += table.probe_population;
    });

    // shard: fixed-work gillespie throughput at threads = min(4, nproc)
    // over threads = 1.
    const std::size_t shard_n = ctx.shard_n;
    const std::size_t threads =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    const StepCount work = 16 * static_cast<StepCount>(shard_n);
    const auto run_at = [&](std::size_t t) {
        return median_seconds(3, [&] {
            (void)ProtocolRegistry::instance().run_for("pll", shard_n,
                                                       derive_seed(ctx.seed, 7), work,
                                                       EngineKind::gillespie,
                                                       BatchMode::automatic, t);
        });
    };
    const double t1 = run_at(1);
    const double tn = run_at(threads);
    report.t4_over_t1 = tn > 0.0 ? t1 / tn : 0.0;
    observed = replayer.sink;
    return report;
}

}  // namespace electbench
