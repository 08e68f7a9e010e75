// The election loops of the three workloads and the correctness gate.
// Every election goes through the library's public run surface:
// ProtocolRegistry::make_simulation, run_to_single_leader / Simulation
// run calls, run_sweep, Simulation::set_checkpoint (periodic writes) and
// ProtocolRegistry::resume_simulation.
#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "analysis/experiment.hpp"
#include "bench.hpp"
#include "core/calibration.hpp"
#include "core/random.hpp"
#include "core/thread_pool.hpp"
#include "protocols/registry.hpp"

namespace electbench {

using namespace ppsim;

namespace {

constexpr const char* protocol = "pll";

/// Elections decided in epochs 1 and 2 a timed loop waits for beyond its
/// time.
constexpr std::size_t min_fast = 8;
constexpr std::size_t min_slow = 3;

using HybridSim = detail::HybridSimulation<Pll>;
using GillespieSim = detail::GillespieSimulation<Pll>;

/// Trace layer name of each engine (the repo module that runs its slices).
std::string layer_of(EngineKind engine) {
    switch (engine) {
        case EngineKind::agent: return "engine";
        case EngineKind::batched: return "batched_engine";
        case EngineKind::gillespie: return "gillespie_engine";
        case EngineKind::hybrid: return "hybrid_engine";
    }
    return "engine";
}

/// The correctness gate, run outside every timed region: converged with
/// exactly one leader, census conserving n, outputs stable for
/// `verify_steps` more interactions. Never throws.
bool gate(Simulation& sim, const RunResult& result, StepCount verify_steps) noexcept {
    try {
        if (!result.converged || !result.stabilization_step || sim.leader_count() != 1) {
            return false;
        }
        const ConfigurationSnapshot census = sim.state_counts();
        if (census.total() != sim.population_size() || census.leaders() != 1) return false;
        return sim.verify_outputs_stable(verify_steps);
    } catch (...) {
        return false;
    }
}

/// Gates a finished election and records the epoch that decided it,
/// outside the timed region. PLL elects in epoch 1 (QuickElimination) unless
/// that leaves several leaders; then the Tournament (epochs 2-3) or BackUp
/// (epoch 4) decides, one epoch (hundreds of parallel time) later each. The
/// deciding epoch is the one most agents are in at the election's end. One
/// decided inside the early window has no late part.
void settle(Election& e, Simulation& sim, const RunResult& result, const Context& ctx) {
    if (e.early_steps == 0) {
        e.early_steps = e.steps;
        e.early_wall_s = e.wall_s;
        e.early_cpu_s = e.cpu_s;
    }
    std::array<std::uint64_t, 5> in_epoch{};  // PLL epochs are 1 to 4
    for (const auto& [state, count] : typed_counts(sim)) in_epoch.at(state.epoch) += count;
    e.epoch = static_cast<int>(std::max_element(in_epoch.begin(), in_epoch.end()) -
                               in_epoch.begin());
    e.ok = e.ok && gate(sim, result, ctx.verify_steps);
}

double stab_ptime(const RunResult& result, std::size_t n) {
    const double t = result.stabilization_parallel_time(n);
    return std::isnan(t) ? 0.0 : t;
}

/// Hybrid workload: points the calibration cache at set-up probe `k`'s
/// directory. Setting options clears the in-process memo, so the next
/// hybrid engine either probes afresh and saves its table there
/// (`recalibrate`), or reads the table that probe saved, as a new run of the
/// program with that cache would. A single cold probe can mis-rank the
/// modes; rotating the elections over several probes' tables keeps one such
/// probe from setting a whole run's figures, and every election still runs
/// on a table the program's own probe made.
void use_probe_cache(const Context& ctx, std::size_t k, bool recalibrate) {
    HybridOptions options;
    options.cache_dir = ctx.tmp_dir + "/probe-" + std::to_string(k);
    options.recalibrate = recalibrate;
    set_hybrid_options(options);
}

std::unique_ptr<Simulation> make(const Context& ctx, EngineKind engine, std::uint64_t seed) {
    return ProtocolRegistry::instance().make_simulation(protocol, ctx.workload.n, seed,
                                                        engine, BatchMode::automatic, 1);
}

/// Traced form of run_to_single_leader: the same run driven in slices
/// (stride n; n/64 — one τ-leap — on the gillespie engine), each slice a
/// span of the layer that ran it. Slicing moves where count-engine rounds
/// end, so traced trajectories differ from untraced ones of the same seed;
/// on the agent engine they are identical. A slice that ends on a multiple
/// of a set checkpoint cadence also holds the periodic write; it is kept
/// out of the engine's span. Stamps the end of `e`'s early window.
RunResult run_traced(Simulation& sim, const Context& ctx, Tracer& tracer, Election& e,
                     const Stamp& t0) {
    const std::size_t n = sim.population_size();
    auto* hybrid = dynamic_cast<HybridSim*>(&sim);
    auto* gillespie = dynamic_cast<GillespieSim*>(&sim);
    const StepCount stride =
        gillespie != nullptr ? std::max<StepCount>(1, n / GillespieEngine<Pll>::leap_divisor)
                             : n;
    const std::string run_layer = layer_of(sim.engine_kind()) + ".run";
    const bool checkpointing = ctx.workload.loop == Loop::checkpoint;
    while (sim.leader_count() != 1 && sim.steps() < ctx.budget) {
        const StepCount before = sim.steps();
        const bool in_gillespie =
            hybrid != nullptr && hybrid->engine().mode() == HybridMode::gillespie;
        const std::uint64_t leaps = gillespie ? gillespie->engine().leaps_taken() : 0;
        const std::uint64_t exact = gillespie ? gillespie->engine().exact_events() : 0;
        const auto s0 = Clock::now();
        (void)sim.run_until_one_leader(std::min(stride, ctx.budget - before));
        const auto s1 = Clock::now();
        if (e.early_steps == 0 && sim.steps() >= ctx.window) {
            e.early_steps = sim.steps();
            e.early_wall_s = seconds_between(t0.wall, s1);
            e.early_cpu_s = thread_cpu_s() - t0.cpu;
        }
        const auto work = static_cast<double>(sim.steps() - before);
        if (hybrid != nullptr) {
            tracer.span(in_gillespie ? "hybrid_engine.gillespie_mode"
                                     : "hybrid_engine.other_mode",
                        s0, s1, e.seed, work);
        } else if (gillespie != nullptr) {
            const std::uint64_t dl = gillespie->engine().leaps_taken() - leaps;
            const std::uint64_t de = gillespie->engine().exact_events() - exact;
            if (dl > 0 && de == 0) {
                tracer.span("gillespie_engine.leap_slice", s0, s1, e.seed,
                            static_cast<double>(dl));
            } else {
                tracer.span("gillespie_engine.ssa_slice", s0, s1, e.seed, work);
            }
        } else if (checkpointing && sim.steps() % ctx.cadence == 0) {
            tracer.span(run_layer + "_and_write", s0, s1, e.seed, work);
        } else {
            tracer.span(run_layer, s0, s1, e.seed, work);
        }
    }
    // Counters at the election boundary, as zero-length spans.
    const auto now = Clock::now();
    if (hybrid != nullptr) {
        tracer.span("hybrid_engine.switches", now, now, e.seed,
                    static_cast<double>(hybrid->engine().switches()));
    }
    if (gillespie != nullptr) {
        const GillespieEngine<Pll>& g = gillespie->engine();
        tracer.span("gillespie_engine.leaps", now, now, e.seed,
                    static_cast<double>(g.leaps_taken()));
        tracer.span("gillespie_engine.exact_events", now, now, e.seed,
                    static_cast<double>(g.exact_events()));
        tracer.span("gillespie_engine.dropped_pairs", now, now, e.seed,
                    static_cast<double>(g.dropped_pairs()));
    }
    return sim.run_for(0);
}

/// Runs `sim`, built at `t0`, from its start to one leader and stamps the
/// end of `e`'s early window. Untraced, that is one run call up to the
/// window and run_to_single_leader after it; the window is a multiple of
/// the checkpoint cadence, so the split moves no round boundary.
RunResult run_election(Simulation& sim, const Context& ctx, Tracer& tracer, Election& e,
                       const Stamp& t0) {
    if (tracer.enabled()) return run_traced(sim, ctx, tracer, e, t0);
    RunResult result = sim.run_until_one_leader(ctx.window);
    const Stamp t1 = Stamp::now();
    e.early_wall_s = seconds_between(t0.wall, t1.wall);
    e.early_cpu_s = t1.cpu - t0.cpu;
    e.early_steps = sim.steps();
    if (sim.leader_count() != 1) result = run_to_single_leader(sim, ctx.budget - sim.steps());
    return result;
}

Election single_election(const Context& ctx, EngineKind engine, std::uint64_t seed,
                         Tracer& tracer) {
    Election e;
    e.seed = seed;
    const Stamp t0 = Stamp::now();
    const auto sim = make(ctx, engine, seed);
    tracer.span(layer_of(engine) + ".construct", t0.wall, Clock::now(), seed);
    const RunResult result = run_election(*sim, ctx, tracer, e, t0);
    const Stamp t1 = Stamp::now();
    e.wall_s = seconds_between(t0.wall, t1.wall);
    e.cpu_s = t1.cpu - t0.cpu;
    e.steps = sim->steps();
    e.stab_ptime = stab_ptime(result, ctx.workload.n);
    e.ok = true;
    settle(e, *sim, result, ctx);
    return e;
}

double file_bytes(const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(size);
}

/// One election that checkpoints on the cadence (Simulation::set_checkpoint),
/// then finishes by resuming from its last mid-run checkpoint
/// (ProtocolRegistry::resume_simulation). The election's wall is its
/// original run; the resumed run is timed apart and must reach the same
/// stabilisation step at the same step count. Traced, one extra
/// write_checkpoint of the decided run is timed for the write cost.
Election checkpoint_election(const Context& ctx, EngineKind engine, std::uint64_t seed,
                             Tracer& tracer) {
    Election e;
    e.seed = seed;
    const std::string path = ctx.tmp_dir + "/election.ppck";
    std::error_code ec;
    std::filesystem::remove(path, ec);

    const Stamp t0 = Stamp::now();
    const auto sim = make(ctx, engine, seed);
    sim->set_checkpoint(path, ctx.cadence);
    (void)run_election(*sim, ctx, tracer, e, t0);
    const Stamp t1 = Stamp::now();
    e.wall_s = seconds_between(t0.wall, t1.wall);
    e.cpu_s = t1.cpu - t0.cpu;
    e.steps = sim->steps();
    if (tracer.enabled()) {
        const std::string extra = ctx.tmp_dir + "/write.ppck";
        const auto w0 = Clock::now();
        sim->write_checkpoint(extra);
        tracer.span("persist.write", w0, Clock::now(), seed, file_bytes(extra));
    }
    if (!std::filesystem::exists(path)) return e;  // decided before the first write: failed

    // The resumed run slices like the original (same cadence; traced, the
    // same stride), which is what makes it replay the original bit for bit.
    const auto r0 = Clock::now();
    const auto resumed = ProtocolRegistry::instance().resume_simulation(path);
    const auto r1 = Clock::now();
    resumed->set_checkpoint(ctx.tmp_dir + "/resumed.ppck", ctx.cadence);
    const StepCount resumed_from = resumed->steps();
    RunResult result;
    if (tracer.enabled()) {
        Tracer off(false);
        Election tail;
        tail.early_steps = resumed_from;  // no early window to stamp
        result = run_traced(*resumed, ctx, off, tail, Stamp{r1, thread_cpu_s()});
    } else {
        result = run_to_single_leader(*resumed, ctx.budget - resumed_from);
    }
    const auto r2 = Clock::now();
    if (tracer.enabled()) {
        tracer.span("persist.read", r0, r1, seed, file_bytes(path));
        tracer.span("persist.resume_tail", r1, r2, seed,
                    static_cast<double>(resumed->steps() - resumed_from));
    }
    e.resume_s = seconds_between(r0, r2);
    e.resume_steps = resumed->steps() - resumed_from;
    e.stab_ptime = stab_ptime(result, ctx.workload.n);
    e.ok = resumed->steps() == sim->steps() &&
           resumed->stabilization_step() == sim->stabilization_step();
    settle(e, *resumed, result, ctx);
    return e;
}

/// Per-repetition observer of the sweep: stamps the election's start, the
/// end of its early window and its end, and (traced) slices the run every
/// n steps into engine spans. Slicing does not change agent-engine runs.
class SweepClock final : public SimulationObserver {
public:
    SweepClock(std::mutex& mutex, std::vector<Election>& out, Tracer& tracer,
               const Context& ctx)
        : mutex_(mutex), out_(out), tracer_(tracer), ctx_(ctx) {}

    [[nodiscard]] StepCount next_due() const noexcept override {
        if (tracer_.enabled()) return last_steps_ + ctx_.workload.n;
        return e_.early_steps == 0 ? ctx_.window : no_deadline;
    }

    void observe(const Simulation& sim) override {
        const auto now = Clock::now();
        if (!started_) {
            started_ = true;
            start_ = now;
            start_cpu_ = thread_cpu_s();
        } else {
            tracer_.span("engine.run", last_, now, sim.run_seed(),
                         static_cast<double>(sim.steps() - last_steps_));
        }
        if (e_.early_steps == 0 && sim.steps() == ctx_.window) {
            e_.early_steps = ctx_.window;
            e_.early_wall_s = seconds_between(start_, now);
            e_.early_cpu_s = thread_cpu_s() - start_cpu_;
        }
        last_ = now;
        last_steps_ = sim.steps();
    }

    void finish(const Simulation& sim) override {
        e_.wall_s = seconds_between(start_, Clock::now());
        e_.cpu_s = thread_cpu_s() - start_cpu_;
        e_.seed = sim.run_seed();
        e_.steps = sim.steps();
        if (const auto stab = sim.stabilization_step()) {
            e_.stab_ptime = to_parallel_time(*stab, sim.population_size());
        }
        const std::lock_guard lock(mutex_);
        out_.push_back(e_);
    }

private:
    std::mutex& mutex_;
    std::vector<Election>& out_;
    Tracer& tracer_;
    const Context& ctx_;
    Election e_;
    bool started_ = false;
    Clock::time_point start_{};
    double start_cpu_ = 0.0;
    Clock::time_point last_{};
    StepCount last_steps_ = 0;
};

/// The sweep workload: run_sweep calls of `plan[k]` repetitions each, sweep
/// k rooted at derive_seed(seed, k). Without a plan, the first sweep is a
/// pilot and later ones are sized to fill `seconds`. Every election is then
/// gated by replaying its seed outside the timed region: the replay must
/// reproduce the timed run's step count and stabilisation time exactly.
Phase sweep_phase(const Context& ctx, double seconds, const std::vector<std::size_t>* plan,
                  Tracer& tracer) {
    Phase phase;
    std::mutex mutex;
    const std::size_t n = ctx.workload.n;
    SweepConfig cfg;
    cfg.protocol = protocol;
    cfg.sizes = {n};
    cfg.engine = ctx.workload.engine;
    cfg.threads = ctx.sweep_workers;
    cfg.engine_threads = 1;
    cfg.budget = [&ctx](std::size_t) { return ctx.budget; };
    cfg.make_observer = [&](std::size_t, std::size_t) {
        return std::make_unique<SweepClock>(mutex, phase.elections, tracer, ctx);
    };
    const std::size_t pilot = 16 * ctx.sweep_workers;
    std::size_t attempted = 0;
    for (std::size_t k = 0;; ++k) {
        std::size_t reps = 0;
        if (plan != nullptr) {
            if (k == plan->size()) break;
            reps = (*plan)[k];
        } else if (k == 0) {
            reps = pilot;
        } else {
            const double remaining = seconds - phase.loop_s;
            if (remaining <= 0.02 * seconds) break;
            const double per_s = static_cast<double>(attempted) / phase.loop_s;
            reps = std::max(ctx.sweep_workers,
                            static_cast<std::size_t>(std::ceil(per_s * remaining)));
        }
        cfg.seed = derive_seed(ctx.seed, k);
        cfg.repetitions = reps;
        const auto t0 = Clock::now();
        (void)run_sweep(cfg);
        phase.loop_s += seconds_between(t0, Clock::now());
        attempted += reps;
        phase.plan.push_back(reps);
    }

    std::vector<Election>& timed = phase.elections;
    shared_pool().for_each(
        timed.size(),
        [&](std::size_t i) {
            Election& e = timed[i];
            try {
                const auto sim = make(ctx, ctx.workload.engine, e.seed);
                const RunResult replay = run_to_single_leader(*sim, ctx.budget);
                e.ok = replay.steps == e.steps && stab_ptime(replay, n) == e.stab_ptime;
                settle(e, *sim, replay, ctx);
            } catch (...) {
                e.ok = false;
            }
        },
        ctx.sweep_workers);
    // A repetition that never reported counts as a failed election.
    timed.resize(std::max(timed.size(), attempted));
    return phase;
}

}  // namespace

std::vector<std::pair<PllState, std::uint64_t>> typed_counts(Simulation& sim) {
    std::vector<std::pair<PllState, std::uint64_t>> out;
    const auto collect = [&out](const PllState& s, std::uint64_t c, Role) {
        out.emplace_back(s, c);
    };
    if (auto* agent = dynamic_cast<detail::AgentSimulation<Pll>*>(&sim)) {
        const Pll& proto = agent->engine().protocol();
        std::unordered_map<std::uint64_t, std::size_t> slot;
        for (const PllState& s : agent->engine().population().states()) {
            const auto [it, fresh] = slot.emplace(proto.state_key(s), out.size());
            if (fresh) out.emplace_back(s, 0);
            ++out[it->second].second;
        }
    } else if (auto* batched = dynamic_cast<detail::BatchedSimulation<Pll>*>(&sim)) {
        batched->engine().visit_counts(collect);
    } else if (auto* gillespie = dynamic_cast<detail::GillespieSimulation<Pll>*>(&sim)) {
        gillespie->engine().visit_counts(collect);
    } else if (auto* hybrid = dynamic_cast<HybridSim*>(&sim)) {
        hybrid->engine().visit_counts(collect);
    }
    return out;
}

Setup measure_setup(const Context& ctx, int reps) {
    const bool hybrid = ctx.workload.engine == EngineKind::hybrid;
    // run_sweep fans out over shared_pool(), which starts once per process.
    // Each sweep set-up starts a pool of the same size instead, stopped
    // outside the timed region.
    const std::size_t pool_threads = std::max<std::size_t>(
        1, std::max<std::size_t>(1, std::thread::hardware_concurrency()) - 1);
    std::vector<double> times;
    Setup setup;
    for (int r = 0; r < reps; ++r) {
        if (hybrid) use_probe_cache(ctx, static_cast<std::size_t>(r), true);
        std::optional<ThreadPool> pool;
        const double t0 = thread_cpu_s();
        const auto sim = ProtocolRegistry::instance().make_simulation(
            protocol, ctx.workload.n, derive_seed(ctx.seed, 0), ctx.workload.engine,
            BatchMode::automatic, 1);
        if (ctx.workload.loop == Loop::sweep) pool.emplace(pool_threads);
        times.push_back(thread_cpu_s() - t0);
        if (auto* h = dynamic_cast<HybridSim*>(sim.get())) {
            setup.tables.push_back(h->engine().calibration_table());
        }
    }
    if (hybrid) use_probe_cache(ctx, 0, false);
    if (ctx.workload.loop == Loop::sweep) (void)shared_pool();
    // Warm-up, untimed: the first early window of a process runs a third
    // slower than later ones (first-touch page faults, cold caches).
    (void)make(ctx, ctx.workload.engine, derive_seed(ctx.seed, 0))
        ->run_until_one_leader(ctx.window);
    setup.seconds = quantile(times, 0.5);
    return setup;
}

std::vector<Election> early_windows(const Context& ctx, EngineKind engine,
                                    const Phase& phase) {
    std::vector<Election> out;
    for (const Election& timed : phase.elections) {
        Election e;
        e.seed = timed.seed;
        const Stamp t0 = Stamp::now();
        const auto sim = make(ctx, engine, e.seed);
        (void)sim->run_until_one_leader(ctx.window);
        const Stamp t1 = Stamp::now();
        e.early_wall_s = seconds_between(t0.wall, t1.wall);
        e.early_cpu_s = t1.cpu - t0.cpu;
        e.early_steps = sim->steps();
        out.push_back(e);
    }
    return out;
}

Phase run_elections(const Context& ctx, EngineKind engine, double seconds,
                    const Phase* replay_of, Tracer& tracer) {
    if (ctx.workload.loop == Loop::sweep) {
        // The replay gate costs about as much as the sweep it checks, so the
        // sweep gets half the time.
        return sweep_phase(ctx, seconds / 2.0, replay_of ? &replay_of->plan : nullptr, tracer);
    }
    Phase phase;
    // Without a plan, run for `seconds` and on until each PLL mode has a
    // few elections (capped at twice `seconds`): slow elections can fill a
    // whole run on the hybrid workload.
    const auto more = [&] {
        if (phase.loop_s < seconds) return true;
        if (phase.loop_s >= 2.0 * seconds) return false;
        return phase.decided_in(1).size() < min_fast || phase.decided_in(2).size() < min_slow;
    };
    const std::size_t limit = replay_of ? replay_of->elections.size() : SIZE_MAX;
    for (std::size_t i = 0; i < limit && (replay_of || more()); ++i) {
        const std::uint64_t seed = derive_seed(ctx.seed, i);
        if (engine == EngineKind::hybrid) use_probe_cache(ctx, i % std::size_t{hybrid_probes}, false);
        Election e = ctx.workload.loop == Loop::checkpoint
                         ? checkpoint_election(ctx, engine, seed, tracer)
                         : single_election(ctx, engine, seed, tracer);
        phase.loop_s += e.wall_s + e.resume_s;
        phase.elections.push_back(e);
    }
    return phase;
}

Election starved_election(const Context& ctx) {
    Election e;
    e.seed = derive_seed(ctx.seed, 0);
    const auto sim = make(ctx, ctx.workload.engine, e.seed);
    const RunResult result = run_to_single_leader(*sim, 1);
    e.steps = sim->steps();
    e.ok = true;
    settle(e, *sim, result, ctx);
    return e;
}

}  // namespace electbench
