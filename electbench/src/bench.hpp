// Shared declarations of the election benchmark: workload descriptions, the
// per-run context, election records, the in-memory span tracer and the
// entry points of the election loops (workloads.cpp) and of the per-layer
// measurements (layers.cpp).
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/calibration.hpp"
#include "core/engine.hpp"
#include "core/simulation.hpp"
#include "protocols/pll.hpp"

namespace electbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds of the calling thread, its kernel time included. Every
/// election runs on one thread, so this is the work the program did for it;
/// unlike wall time it leaves out the time the thread waited for a CPU,
/// whether to other processes or to the host taking the virtual CPU away
/// (steal time, which the kernel keeps out of task run time).
[[nodiscard]] inline double thread_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One instant on both clocks the benchmark reads.
struct Stamp {
    Clock::time_point wall;
    double cpu = 0.0;

    [[nodiscard]] static Stamp now() { return {Clock::now(), thread_cpu_s()}; }
};

/// How a workload drives its elections.
enum class Loop {
    single,      ///< one election at a time, each run to one leader
    sweep,       ///< run_sweep fan-out over repetition workers
    checkpoint,  ///< one at a time, PPCK writes on a cadence, finished by a resume
};

struct Workload {
    std::string name;
    ppsim::EngineKind engine;
    std::size_t n;
    Loop loop;
};

/// Everything an election loop needs; fixed for the whole process.
struct Context {
    Workload workload;
    std::uint64_t seed = 0;        ///< --seed: election i uses derive_seed(seed, i)
    std::string tmp_dir;           ///< benchmark-owned scratch (calibration, PPCK)
    std::size_t sweep_workers = 1; ///< SweepConfig::threads (≤ nproc)
    ppsim::StepCount budget = 0;   ///< per-election step budget
    ppsim::StepCount verify_steps = 0;  ///< gate: verify_outputs_stable length
    ppsim::StepCount cadence = 0;  ///< checkpoint cadence in steps
    ppsim::StepCount window = 0;   ///< early window: the first 8 parallel time
    std::size_t shard_n = 0;       ///< population of the sharding-ratio runs
};

/// One gated election.
struct Election {
    std::uint64_t seed = 0;
    double wall_s = 0.0;           ///< timed wall clock of the run (gate excluded)
    double cpu_s = 0.0;            ///< thread CPU time of the same run
    ppsim::StepCount steps = 0;    ///< interactions simulated by the run
    ppsim::StepCount early_steps = 0;  ///< interactions in the early window
    double early_wall_s = 0.0;     ///< wall clock until the end of the early window
    double early_cpu_s = 0.0;      ///< thread CPU time until the same point
    double stab_ptime = 0.0;       ///< stabilisation parallel time
    bool ok = false;               ///< passed the correctness gate
    int epoch = 0;                 ///< PLL epoch that decided it (1: fast; 2-4: slow)
    /// Checkpoint workload: wall and interactions of the resumed run, from
    /// reading its checkpoint to its end (re-running the steps since then).
    double resume_s = 0.0;
    ppsim::StepCount resume_steps = 0;
};

/// One timed loop of elections.
struct Phase {
    std::vector<Election> elections;
    double loop_s = 0.0;  ///< wall of the timed loop, resumed runs included (gates excluded)
    std::vector<std::size_t> plan;  ///< sweep: repetitions of each run_sweep call

    [[nodiscard]] double interactions_per_s() const;
    [[nodiscard]] std::size_t failed() const;
    /// The gated elections decided in `epoch`.
    [[nodiscard]] std::vector<Election> decided_in(int epoch) const;
    /// Gated elections decided after epoch 1 (PLL's slow mode).
    [[nodiscard]] std::size_t slow() const;
};

/// In-memory spans around the calls into each layer, written out once at
/// exit. Thread-safe: sweep workers record from their own threads.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Records one span of `layer`, tagged with the election it served
    /// (its seed) and the work it covered (interactions, bytes, leaps...).
    void span(std::string_view layer, Clock::time_point start, Clock::time_point end,
              std::uint64_t election, double work = 0.0);

    struct Total {
        double seconds = 0.0;
        double work = 0.0;
        std::size_t spans = 0;
    };
    [[nodiscard]] Total total(std::string_view layer) const;

    /// Writes every span as one JSON object per line.
    void write(const std::string& path) const;

private:
    struct Span {
        std::string layer;
        double start_s;
        double end_s;
        std::uint64_t election;
        double work;
    };
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::string, Total, std::less<>> totals_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// --- workloads.cpp -----------------------------------------------------------

/// Typed census of a PLL simulation built by `make_simulation` on any
/// engine: (state, count) pairs.
[[nodiscard]] std::vector<std::pair<ppsim::PllState, std::uint64_t>> typed_counts(
    ppsim::Simulation& sim);

/// Cold calibration probes in a set-up of the hybrid workload. Each fills
/// a calibration cache of its own, and election i of a timed loop reads its
/// table from cache i mod hybrid_probes.
inline constexpr int hybrid_probes = 7;

struct Setup {
    double seconds = 0.0;  ///< median CPU time over the set-ups
    /// Hybrid workload: the table each set-up's cold probe produced.
    std::vector<ppsim::CalibrationTable> tables;
};

/// Times `reps` set-ups: the thread CPU time until the first election is
/// ready to run (registry lookup, engine construction, the cold calibration
/// probe on the hybrid engine, a repetition pool start on the sweep). Then
/// runs one untimed early window as a warm-up.
[[nodiscard]] Setup measure_setup(const Context& ctx, int reps);

/// Runs gated elections of `ctx.workload` on `engine` for `seconds` of
/// timed wall clock or, given `replay_of`, exactly the elections (seeds and
/// sweep plan) of that earlier phase. With an enabled tracer, runs are
/// driven in slices and every slice is recorded as a span of the layer that
/// ran it.
[[nodiscard]] Phase run_elections(const Context& ctx, ppsim::EngineKind engine,
                                  double seconds, const Phase* replay_of, Tracer& tracer);

/// Untraced early windows of `engine` on the seeds of `phase`: each
/// election is built and run to the end of its early window (or its
/// decision), stamped like a timed election's early window.
[[nodiscard]] std::vector<Election> early_windows(const Context& ctx, ppsim::EngineKind engine,
                                                  const Phase& phase);

/// One election starved of budget (a single interaction), gated and
/// counted like every other: the self-test's failure-accounting check.
[[nodiscard]] Election starved_election(const Context& ctx);

// --- layers.cpp --------------------------------------------------------------

/// Per-layer numbers measured outside the election loops: census-vector
/// replays through the random, pairing, transition-cache and protocol
/// layers, the calibration probe and the sharding ratio.
struct LayerReport {
    double multinomial_ns = 0.0;
    double binomial_ns = 0.0;
    double mvhg_ns = 0.0;
    double collision_run_ns = 0.0;
    double pairwise_ns = 0.0;
    double bulk_ns = 0.0;
    double bulk_share = 0.0;
    double find_ns = 0.0;
    double interact_ns = 0.0;
    double live_states_mean = 0.0;
    double probe_s = 0.0;
    double t4_over_t1 = 0.0;
    std::size_t census_points = 0;
};

[[nodiscard]] LayerReport measure_layers(const Context& ctx, Tracer& tracer);

}  // namespace electbench
