// electbench — the election benchmark of ppsim: PLL elections (Sudo et al.,
// PODC 2019) on three workloads, end-to-end metrics from an untraced run,
// per-layer metrics from a separate traced run. Driven by run.py:
//
//   electbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--commit <id>] [--tiny] [--starve]
//
// The last line of standard output is the JSON result. Exit status: 0 when
// every election passed the correctness gate, 1 when one failed (the result
// is still printed), 2 on bad usage, 3 when the run cannot be timed (an
// unoptimised build, or an error before a result exists).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "bench.hpp"
#include "core/calibration.hpp"
#include "core/hybrid_engine.hpp"
#include "core/random.hpp"
#include "protocols/registry.hpp"

namespace electbench {

using namespace ppsim;

double Phase::interactions_per_s() const {
    double steps = 0.0;
    for (const Election& e : elections) {
        steps += static_cast<double>(e.steps + e.resume_steps);
    }
    return loop_s > 0.0 ? steps / loop_s : 0.0;
}

std::vector<Election> Phase::decided_in(int epoch) const {
    std::vector<Election> out;
    for (const Election& e : elections) {
        if (e.ok && e.epoch == epoch) out.push_back(e);
    }
    return out;
}

std::size_t Phase::slow() const {
    return static_cast<std::size_t>(std::count_if(
        elections.begin(), elections.end(), [](const Election& e) { return e.ok && e.epoch > 1; }));
}

std::size_t Phase::failed() const {
    return static_cast<std::size_t>(std::count_if(
        elections.begin(), elections.end(), [](const Election& e) { return !e.ok; }));
}

void Tracer::span(std::string_view layer, Clock::time_point start, Clock::time_point end,
                  std::uint64_t election, double work) {
    if (!enabled_) return;
    const std::lock_guard lock(mutex_);
    spans_.push_back(Span{std::string(layer), seconds_between(origin_, start),
                          seconds_between(origin_, end), election, work});
    auto it = totals_.find(layer);
    if (it == totals_.end()) it = totals_.emplace(std::string(layer), Total{}).first;
    it->second.seconds += seconds_between(start, end);
    it->second.work += work;
    ++it->second.spans;
}

Tracer::Total Tracer::total(std::string_view layer) const {
    const std::lock_guard lock(mutex_);
    const auto it = totals_.find(layer);
    return it == totals_.end() ? Total{} : it->second;
}

void Tracer::write(const std::string& path) const {
    const std::lock_guard lock(mutex_);
    std::ofstream out(path);
    for (const Span& s : spans_) {
        out << "{\"layer\":\"" << s.layer << "\",\"start_s\":" << s.start_s
            << ",\"end_s\":" << s.end_s << ",\"election\":" << s.election
            << ",\"work\":" << s.work << "}\n";
    }
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool optimized_build = true;
#else
constexpr bool optimized_build = false;
#endif

/// The three workloads; `tiny` shrinks n for the self-test.
std::vector<Workload> workloads(bool tiny) {
    return {
        {"pll_hybrid_2p18", EngineKind::hybrid, tiny ? 4096U : 1U << 18U, Loop::single},
        {"pll_agent_sweep_2p14", EngineKind::agent, tiny ? 1024U : 1U << 14U, Loop::sweep},
        {"pll_exact_ckpt_2p16", EngineKind::batched, tiny ? 2048U : 1U << 16U,
         Loop::checkpoint},
    };
}

/// Benchmark-owned scratch directory inside the working directory, removed
/// on every exit path that unwinds.
class ScratchDir {
public:
    ScratchDir()
        : path_(std::filesystem::absolute(".bench_build/tmp/electbench-" +
                                          std::to_string(::getpid()))) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    [[nodiscard]] std::string str() const { return path_.string(); }

private:
    std::filesystem::path path_;
};

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Which clock an election figure is read from.
enum class Time { cpu, wall };

std::vector<double> durations(const std::vector<Election>& elections, Time time) {
    std::vector<double> out;
    for (const Election& e : elections) out.push_back(time == Time::cpu ? e.cpu_s : e.wall_s);
    return out;
}

/// Median over `elections` of their interactions per second in the early
/// window (`late` = false) or after it. Medians keep a stall or a mid-run
/// engine switch in one election from moving the figure.
double median_rate(const std::vector<Election>& elections, bool late, Time time = Time::cpu) {
    std::vector<double> rates;
    for (const Election& e : elections) {
        const double total = time == Time::cpu ? e.cpu_s : e.wall_s;
        const double early = time == Time::cpu ? e.early_cpu_s : e.early_wall_s;
        const double seconds = late ? total - early : early;
        const auto steps = static_cast<double>(late ? e.steps - e.early_steps : e.early_steps);
        if (seconds > 0.0 && steps > 0.0) rates.push_back(steps / seconds);
    }
    return quantile(rates, 0.5);
}

/// The elections decided in `epoch`, or all of them when the run saw none.
std::vector<Election> epoch_or_all(const Phase& p, int epoch) {
    std::vector<Election> out = p.decided_in(epoch);
    return out.empty() ? p.elections : out;
}

/// Mean work per span: per election for counters recorded once per election.
double mean_work(const Tracer& tracer, std::string_view layer) {
    const Tracer::Total t = tracer.total(layer);
    return t.spans > 0 ? t.work / static_cast<double>(t.spans) : 0.0;
}

double ns_per_work(const Tracer& tracer, std::string_view layer) {
    const Tracer::Total t = tracer.total(layer);
    return t.work > 0.0 ? t.seconds * 1e9 / t.work : 0.0;
}

double seconds_per_span(const Tracer& tracer, std::string_view layer) {
    const Tracer::Total t = tracer.total(layer);
    return t.spans > 0 ? t.seconds / static_cast<double>(t.spans) : 0.0;
}

/// Extra loop numbers printed for reading (not in the result line).
void add_loop_numbers(const Phase& p, std::vector<Metric>& info) {
    const auto count = static_cast<double>(p.elections.size());
    info.push_back({"elections", count, "count"});
    info.push_back({"slow_elections", static_cast<double>(p.slow()), "count"});
    info.push_back({"failed_fraction", count > 0 ? static_cast<double>(p.failed()) / count : 0.0,
                    "fraction"});
    info.push_back({"interactions_per_s", p.interactions_per_s(), "1/s"});
    info.push_back({"elections_per_s", p.loop_s > 0.0 ? count / p.loop_s : 0.0, "1/s"});
    info.push_back({"election_s_p50", quantile(durations(p.elections, Time::wall), 0.5), "s"});
    info.push_back({"election_s_p90", quantile(durations(p.elections, Time::wall), 0.9), "s"});
}

/// Set-ups per run: the cold probes on the hybrid workload (a third of a
/// second each); many more of the sub-millisecond set-ups elsewhere, whose
/// median otherwise moves with a few slow allocations.
int setup_reps(const Context& ctx) {
    return ctx.workload.engine == EngineKind::hybrid ? hybrid_probes : 201;
}

/// Share of (probe, null mass) points at which a set-up probe's table picks
/// another mode than most of the probes do: the hybrid engine's initial
/// pick (no hysteresis) at the workload's n, for null masses 0 to 1. Two
/// cold probes of one machine should agree; 0 when there are no tables.
double pick_disagreement(const std::vector<CalibrationTable>& tables, std::size_t n) {
    constexpr double null_masses[] = {0.0, 0.25, 0.5, 0.75, 1.0};
    std::size_t points = 0;
    std::size_t disagree = 0;
    for (const double z : null_masses) {
        std::vector<std::size_t> votes(hybrid_mode_count, 0);
        std::vector<HybridMode> picks;
        for (const CalibrationTable& t : tables) {
            const double scale =
                t.probe_population > 0
                    ? static_cast<double>(n) / static_cast<double>(t.probe_population)
                    : 1.0;
            picks.push_back(choose_mode(t, PhaseFeatures{0, z}, HybridMode::batched_bulk,
                                        1.0, scale));
            ++votes[static_cast<std::size_t>(picks.back())];
        }
        const auto majority = static_cast<std::size_t>(
            std::max_element(votes.begin(), votes.end()) - votes.begin());
        for (const HybridMode m : picks) {
            ++points;
            if (static_cast<std::size_t>(m) != majority) ++disagree;
        }
    }
    return points > 0 ? static_cast<double>(disagree) / static_cast<double>(points) : 0.0;
}

struct Result {
    std::vector<Metric> metrics;  ///< reported in the result line
    std::vector<Metric> info;     ///< printed for reading only
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

void count(const Phase& p, Result& r) {
    r.attempted += p.elections.size();
    r.failed += p.failed();
}

std::vector<Election> passed(const Phase& p) {
    std::vector<Election> out;
    for (const Election& e : p.elections) {
        if (e.ok) out.push_back(e);
    }
    return out;
}

Result untraced_run(const Context& ctx, double seconds) {
    Result r;
    const double setup = measure_setup(ctx, setup_reps(ctx)).seconds;
    Tracer off(false);
    const Phase p = run_elections(ctx, ctx.workload.engine, seconds, nullptr, off);
    count(p, r);
    // The late rate is taken on the elections decided in epoch 2, the
    // commonest slow kind. The rate falls with each later epoch (on the
    // hybrid workload about 3.3, 2.9 and 2.5e7/s for epochs 2, 3 and 4), so
    // a median over every slow election moves with their epoch mix.
    r.metrics = {
        {"early_interactions_per_cpu_s", median_rate(passed(p), false), "1/s"},
        {"late_interactions_per_cpu_s", median_rate(epoch_or_all(p, 2), true), "1/s"},
        {"fast_election_cpu_s_p50",
         quantile(durations(epoch_or_all(p, 1), Time::cpu), 0.5), "s"},
        {"setup_s", setup, "s"},
    };
    // The same figures on the wall clock, which also counts the time the
    // election threads waited for a CPU.
    r.info.push_back({"early_interactions_per_s", median_rate(passed(p), false, Time::wall),
                      "1/s"});
    r.info.push_back({"late_interactions_per_s",
                      median_rate(epoch_or_all(p, 2), true, Time::wall), "1/s"});
    r.info.push_back({"fast_election_s_p50",
                      quantile(durations(epoch_or_all(p, 1), Time::wall), 0.5), "s"});
    r.info.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    add_loop_numbers(p, r.info);
    return r;
}

/// Median over `elections` of their run's wall after reading the
/// checkpoint (checkpoint workload); 0 elsewhere.
double resume_p50(const std::vector<Election>& elections) {
    std::vector<double> out;
    for (const Election& e : elections) {
        if (e.resume_s > 0.0) out.push_back(e.resume_s);
    }
    return quantile(out, 0.5);
}

Result traced_run(const Context& ctx, double seconds, Tracer& tracer) {
    Result r;
    const EngineKind engine = ctx.workload.engine;
    const bool hybrid = engine == EngineKind::hybrid;
    Tracer off(false);
    // Untraced reference first, then the same elections traced (and, on the
    // hybrid workload, on the plain gillespie engine for its counters).
    const Setup setup = measure_setup(ctx, hybrid ? hybrid_probes : 1);
    const Phase plain = run_elections(ctx, engine, seconds / (hybrid ? 4.0 : 2.0), nullptr, off);
    const Phase traced = run_elections(ctx, engine, 0.0, &plain, tracer);
    Phase gillespie;
    if (hybrid) gillespie = run_elections(ctx, EngineKind::gillespie, 0.0, &plain, tracer);
    count(plain, r);
    count(traced, r);
    count(gillespie, r);
    const LayerReport layers = measure_layers(ctx, tracer);

    // The overhead ratios compare early-window rates: every election is
    // undecided there on every engine, so PLL's mode mix cannot enter.
    const double plain_early = median_rate(passed(plain), false);
    const double traced_early = median_rate(passed(traced), false);
    const double gillespie_early =
        hybrid ? median_rate(early_windows(ctx, EngineKind::gillespie, plain), false) : 0.0;

    const Tracer::Total in_gillespie = tracer.total("hybrid_engine.gillespie_mode");
    const Tracer::Total in_other = tracer.total("hybrid_engine.other_mode");
    const double hybrid_steps = in_gillespie.work + in_other.work;
    std::vector<double> stab;
    for (const Election& e : plain.decided_in(1)) stab.push_back(e.stab_ptime);
    const double decided = static_cast<double>(plain.elections.size() - plain.failed());
    double efficiency = 0.0;
    if (ctx.workload.loop == Loop::sweep && plain.loop_s > 0.0) {
        double busy = 0.0;
        for (const Election& e : plain.elections) busy += e.wall_s;
        efficiency = busy / (static_cast<double>(ctx.sweep_workers) * plain.loop_s);
    }
    r.metrics = {
        {"calibration.probe_s", layers.probe_s, "s"},
        {"calibration.pick_disagreement", pick_disagreement(setup.tables, ctx.workload.n),
         "fraction"},
        {"hybrid_engine.switches", mean_work(tracer, "hybrid_engine.switches"),
         "count/election"},
        {"hybrid_engine.gillespie_share",
         hybrid_steps > 0.0 ? in_gillespie.work / hybrid_steps : 0.0, "fraction"},
        {"hybrid_engine.overhead", plain_early > 0.0 ? gillespie_early / plain_early : 0.0,
         "ratio"},
        {"gillespie_engine.leaps", mean_work(tracer, "gillespie_engine.leaps"),
         "count/election"},
        {"gillespie_engine.exact_events", mean_work(tracer, "gillespie_engine.exact_events"),
         "count/election"},
        {"gillespie_engine.dropped_pairs",
         mean_work(tracer, "gillespie_engine.dropped_pairs"), "count/election"},
        {"gillespie_engine.ns_per_leap", ns_per_work(tracer, "gillespie_engine.leap_slice"),
         "ns"},
        {"random.multinomial_ns", layers.multinomial_ns, "ns"},
        {"random.binomial_ns", layers.binomial_ns, "ns"},
        {"random.mvhg_ns", layers.mvhg_ns, "ns"},
        {"random.collision_run_ns", layers.collision_run_ns, "ns"},
        {"batch_pairing.pairwise_ns", layers.pairwise_ns, "ns"},
        {"batch_pairing.bulk_ns", layers.bulk_ns, "ns"},
        {"batch_pairing.bulk_share", layers.bulk_share, "fraction"},
        {"transition_cache.find_ns", layers.find_ns, "ns"},
        {"count_store.live_states_mean", layers.live_states_mean, "count"},
        {"batched_engine.ns_per_interaction", ns_per_work(tracer, "batched_engine.run"), "ns"},
        {"pll.interact_ns", layers.interact_ns, "ns"},
        {"engine.ns_per_interaction", ns_per_work(tracer, "engine.run"), "ns"},
        {"experiment.parallel_efficiency", efficiency, "fraction"},
        {"persist.write_s", seconds_per_span(tracer, "persist.write"), "s"},
        {"persist.read_s", seconds_per_span(tracer, "persist.read"), "s"},
        {"persist.bytes", mean_work(tracer, "persist.write"), "bytes"},
        {"persist.resume_tail_s", resume_p50(plain.elections), "s"},
        {"shard.t4_over_t1", layers.t4_over_t1, "ratio"},
        {"pll.stab_ptime_p50", quantile(stab, 0.5), "ptime"},
        {"pll.slow_share",
         decided > 0.0 ? static_cast<double>(plain.slow()) / decided : 0.0,
         "fraction"},
        {"experiment.elections_per_s",
         plain.loop_s > 0.0 ? static_cast<double>(plain.elections.size()) / plain.loop_s : 0.0,
         "1/s"},
        {"experiment.election_s_p90", quantile(durations(plain.elections, Time::wall), 0.9),
         "s"},
        {"trace.overhead", traced_early > 0.0 ? plain_early / traced_early - 1.0 : 0.0,
         "fraction"},
    };
    r.info.push_back({"census_points", static_cast<double>(layers.census_points), "count"});
    add_loop_numbers(plain, r.info);
    return r;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string commit = "unknown";
    bool tiny = false;
    bool starve = false;
};

bool parse(int argc, char** argv, Args& a) {
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (flag == "--starve") {
            a.starve = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                a.trace = std::stoi(value);
            } else if (flag == "--commit") {
                a.commit = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return !a.workload.empty() && have_seed && a.seconds > 0.0 &&
           (a.trace == 0 || a.trace == 1);
}

int run(const Args& args) {
    const auto all = workloads(args.tiny);
    const auto w = std::find_if(all.begin(), all.end(),
                                [&](const Workload& x) { return x.name == args.workload; });
    if (w == all.end()) {
        std::cerr << "electbench: unknown workload '" << args.workload << "'\n";
        return 2;
    }
    const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
    ScratchDir scratch;
    // The calibration cache lives in the scratch dir, never in the user's
    // cache: a warm cache would make the hybrid set-up skip its probe.
    ::setenv("PPSIM_CALIBRATION_DIR", scratch.str().c_str(), 1);
    HybridOptions options;
    options.cache_dir = scratch.str();
    set_hybrid_options(options);

    Context ctx;
    ctx.workload = *w;
    ctx.seed = args.seed;
    ctx.tmp_dir = scratch.str();
    ctx.sweep_workers = std::min<std::size_t>(4, nproc);
    // ppsim_sim's default budget (--budget-factor 3000). The library's
    // default, 200 n log2 n, cut a BackUp (epoch 4) election off at n = 2^18.
    ctx.budget = StepBudget::n_log_n(w->n, 3000.0);
    ctx.verify_steps = 4 * static_cast<StepCount>(w->n);
    ctx.cadence = 4 * static_cast<StepCount>(w->n);
    ctx.window = 8 * static_cast<StepCount>(w->n);
    ctx.shard_n = args.tiny ? w->n : 1U << 20U;

    std::cout << "{\"meta\":{\"workload\":\"" << w->name << "\",\"seed\":" << args.seed
              << ",\"seconds\":" << number(args.seconds) << ",\"trace\":" << args.trace
              << ",\"n\":" << w->n << ",\"engine\":\"" << to_string(w->engine)
              << "\",\"nproc\":" << nproc << ",\"cpu\":\"" << json_escape(cpu_signature())
              << "\",\"compiler\":\"" << json_escape("g++ " __VERSION__)
              << "\",\"build_type\":\"" << ELECTBENCH_BUILD_TYPE
              << "\",\"library_version\":\"" << library_version << "\",\"commit\":\""
              << json_escape(args.commit) << "\",\"sweep_threads\":" << ctx.sweep_workers
              << ",\"engine_threads\":1,\"budget_steps\":" << ctx.budget
              << ",\"verify_steps\":" << ctx.verify_steps
              << ",\"checkpoint_every\":" << ctx.cadence
              << ",\"early_window_steps\":" << ctx.window << "}}\n";

    Tracer tracer(args.trace == 1);
    Result r;
    if (args.starve) {
        Phase starved;
        starved.elections.push_back(starved_election(ctx));
        count(starved, r);
    } else {
        r = args.trace == 1 ? traced_run(ctx, args.seconds, tracer)
                            : untraced_run(ctx, args.seconds);
    }
    if (tracer.enabled()) {
        std::filesystem::create_directories(".bench_build/traces");
        tracer.write(".bench_build/traces/" + w->name + "-seed" + std::to_string(args.seed) +
                     ".jsonl");
    }
    for (const Metric& m : r.metrics) {
        std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit << "\n";
    }
    for (const Metric& m : r.info) {
        std::cout << "info " << m.name << " " << number(m.value) << " " << m.unit << "\n";
    }
    const bool correct = r.failed == 0 && r.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

}  // namespace electbench

int main(int argc, char** argv) {
    if (!electbench::optimized_build) {
        std::cerr << "electbench: refusing to time a build without NDEBUG and optimisation\n";
        return 3;
    }
    electbench::Args args;
    if (!electbench::parse(argc, argv, args)) {
        std::cerr << "usage: electbench --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--commit <id>] [--tiny] [--starve]\n";
        return 2;
    }
    try {
        return electbench::run(args);
    } catch (const std::exception& e) {
        std::cerr << "electbench: " << e.what() << "\n";
        return 3;
    }
}
