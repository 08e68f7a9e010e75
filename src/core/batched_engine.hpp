/// \file batched_engine.hpp
/// \brief Count-based batched simulation engine: Gillespie-style simulation
/// of the population-protocol model with sub-constant expected cost per
/// interaction at large n.
///
/// The agent-based `Engine<P>` pays one PRNG draw plus one transition plus
/// two random memory accesses per interaction — Θ(n log n) sequential work
/// per stabilisation run. This engine instead represents the configuration
/// as a dense vector of per-state *counts* (the shared InternedCountStore,
/// count_store.hpp; states interned on first sight by `StateIndex`) and
/// advances time in multibatch rounds: the batches of Berenbrink, Hammer,
/// Kaaser, Meyer, Penschuck and Tran ("Simulating Population Protocols in
/// Sub-Constant Time per Interaction", ESA 2020), kept going past their
/// collisions as in the multibatching of Doty & Severson's `ppsim` package
/// (CMSB 2021):
///
///  1. A round splits the agents into *fresh* (not yet scheduled this
///     round), *delayed* (in a scheduled fresh–fresh pair whose states are
///     not drawn yet) and *touched* (state known, in the store's touched
///     multiset). With j agents used so far, the number of fresh–fresh
///     interactions before the next collision is sampled from its survival
///     function (`CollisionRunSampler`; birthday problem, E = Θ(√n) from a
///     fresh round). Those interactions only grow the delayed set.
///  2. The collision — the first interaction that involves a used agent —
///     is sampled exactly (used–used : used–fresh : fresh–used with weights
///     w(w−1) : w·u : u·w, w = delayed + touched, u = fresh) and simulated
///     on its own. Fresh and delayed agents are exchangeable, so a fresh
///     slot or a delayed agent's pair is a uniform draw from their shared
///     count pool; a delayed agent's partner joins the touched multiset.
///     The round stops once its collisions reach the live-state count it
///     started with (or its used agents reach the run sampler's O(√n)
///     range), or the budget runs out: about √(live states · n)
///     interactions per round instead of Θ(√n).
///  3. The pairs still delayed are a uniform sample without replacement of
///     the pool, so their initiator and responder state multisets come from
///     multivariate hypergeometric chains over the count vector, and the
///     pairing between them is a uniform random bijection. The bijection is
///     delegated to the pluggable pairing layer (batch_pairing.hpp):
///     contingency-table sampling (O(#state pairs) per round) or a
///     Fisher–Yates shuffle of the expanded responder multiset (Θ(pairs)),
///     selected by `BatchMode` — forced, or chosen per round from the
///     sampled state-count profile.
///  4. Each distinct ordered state pair (q_u, q_v) is applied through a
///     memoised transition table (dense matrix for low ids, hash map
///     beyond) and its count delta scaled by the pair's multiplicity —
///     O(#distinct pairs) transition evaluations, not O(#interactions).
///     The touched multiset then folds back into the counts.
///
/// Every step of the construction reproduces the model's semantics in
/// distribution: ordered pairs stay uniform, and the initiator/responder
/// asymmetry (PLL's coin flips) is preserved because initiator and responder
/// multisets are sampled per slot parity, never merged.
///
/// **Rate-annotated protocols** (RatedProtocol, protocol.hpp) are honoured
/// by rejection thinning against the maximum rate: each bulk cell draws the
/// number of pairs that actually fire as Binomial(mult, rate/max_rate), and
/// each individually simulated interaction one Bernoulli draw; the rest met
/// without reacting and re-enter the touched multiset with their states
/// unchanged — exactly the thinned chain the agent engine runs pair by
/// pair, so cross-engine agreement is preserved (KS harness,
/// tests/test_statistical.cpp). Unrated protocols compile without the
/// thinning draws (`if constexpr`).
///
/// The stabilisation step is recorded *exactly*, not at round granularity:
/// when a round crosses to a single leader, its interactions are replayed
/// in step order. Collisions sit at known steps; a pair resolved early sits
/// at a slot drawn uniformly from the fresh-pair slots still pending when it
/// was resolved; the bulk pairs are exchangeable, so their leader deltas
/// fill the remaining slots in a uniformly shuffled order (the exact
/// conditional order distribution). This happens at most once per run for
/// the absorbing single-leader predicate. For protocols where one leader is
/// NOT absorbing (the loosely-stabilising baseline), a transient mid-round
/// visit to a single leader that the round leaves again is not observed —
/// leader-count detection is then round-granular, a documented deviation
/// from the agent engine (see README "Choosing an engine").
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "batch_pairing.hpp"
#include "common.hpp"
#include "count_store.hpp"
#include "engine.hpp"  // RunResult
#include "fault.hpp"
#include "population.hpp"
#include "protocol.hpp"
#include "random.hpp"
#include "shard.hpp"
#include "state_index.hpp"
#include "transition_cache.hpp"

namespace ppsim {

/// Count-based batched simulation engine. Drop-in alternative to Engine<P>
/// for the run/verify surface (run_until_one_leader, run_for,
/// verify_outputs_stable, RunResult), minus per-agent observation — a
/// count-based configuration has no agent identities.
template <typename P>
    requires InternableProtocol<P>
class BatchedEngine {
public:
    using State = typename P::State;

    /// \param threads  intra-run worker count: 1 (default) runs
    /// sequentially; 0 means hardware concurrency; ≥ 2 shards the bulk
    /// phase's hot loops per the stream-split contract (shard.hpp) — replay
    /// is exact per (seed, threads) value.
    BatchedEngine(P protocol, std::size_t n, std::uint64_t seed,
                  BatchMode batch_mode = BatchMode::automatic, std::size_t threads = 1)
        : protocol_(std::move(protocol)),
          n_(n),
          rng_(seed),
          fault_rng_(derive_seed(seed, fault_stream_tag)),
          run_sampler_(n),
          batch_mode_(batch_mode) {
        if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
        if (threads > 1) {
            shard_ctx_ = std::make_unique<ShardContext>(seed, threads);
            shard_deltas_.resize(threads);
            shard_outs_.resize(threads);
            shard_totals_.resize(threads);
            shard_draws_.resize(threads);
        }
        require(n >= 2, "population must contain at least two agents");
        // A collision's case weights sum to n(n−1) − u(u−1) < 2^64 for any
        // n ≤ 2^32 (u fresh agents; the used count w = n − u grows to about
        // √(live states · n) within a round, so w(w−1) is not small), and
        // `collision` checks the arithmetic. 2^32 is also the agent-id
        // ceiling of the rest of the library.
        require(n <= (std::uint64_t{1} << 32U),
                "batched engine supports populations up to 2^32 agents");
        const StateId init = intern(protocol_.initial_state());
        store_.counts()[init] = n_;
        store_.make_live(init);
        leader_count_ = store_.index().is_leader(init) ? n_ : 0;
        initiators_.reserve(64);
        responders_.reserve(64);
        pairs_.cells.reserve(64);
    }

    // --- observation ------------------------------------------------------

    [[nodiscard]] std::size_t population_size() const noexcept { return n_; }
    [[nodiscard]] StepCount steps() const noexcept { return steps_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return to_parallel_time(steps_, n_);
    }
    [[nodiscard]] std::size_t leader_count() const noexcept { return leader_count_; }
    [[nodiscard]] const P& protocol() const noexcept { return protocol_; }
    /// The pairing strategy this engine was configured with.
    [[nodiscard]] BatchMode batch_mode() const noexcept { return batch_mode_; }
    /// The intra-run worker count this engine was configured with.
    [[nodiscard]] std::size_t threads() const noexcept {
        return shard_ctx_ ? shard_ctx_->threads() : 1;
    }
    [[nodiscard]] std::optional<StepCount> stabilization_step() const noexcept {
        return first_single_leader_step_;
    }

    /// Exact count of agents currently in state `s` (0 when never interned).
    [[nodiscard]] std::uint64_t count_of(const State& s) const {
        return store_.count_of(protocol_, s);
    }

    /// Number of distinct states with a non-zero count.
    [[nodiscard]] std::size_t live_state_count() const noexcept {
        return store_.live_state_count();
    }

    /// Sum of all counts — the population size, by conservation.
    [[nodiscard]] std::uint64_t total_count() const noexcept {
        return store_.total_count();
    }

    /// Visits every state with a non-zero count as (state, count, role) —
    /// O(#states) regardless of n, the batched engine's snapshot primitive.
    /// Only valid between public calls (the in-flight touched multiset of a
    /// round has been merged back by then).
    template <typename Visitor>
    void visit_counts(Visitor&& visit) const {
        store_.visit_counts(visit);
    }

    /// Recomputes the leader count from the count vector (tests / checks).
    std::size_t recount_leaders() {
        leader_count_ = store_.recount_leaders();
        return leader_count_;
    }

    /// Read-only view of the shared count store (hybrid-engine feature
    /// extraction, tests).
    [[nodiscard]] const InternedCountStore<P>& store() const noexcept { return store_; }

    /// Read-only view of the memoised transition cache (introspection).
    [[nodiscard]] const TransitionCache& transition_cache() const noexcept {
        return cache_;
    }

    /// Adopts a configuration handed over by another engine (the hybrid
    /// meta-engine's mid-run switch, hybrid_engine.hpp): replaces the count
    /// vector with the census and carries the step counter and
    /// stabilisation step across. The census must conserve this engine's
    /// population size. The batch / fault streams keep the seed this engine
    /// was built with — each hybrid segment owns its stream.
    void adopt_census(const std::vector<std::pair<State, std::uint64_t>>& census,
                      StepCount steps, std::optional<StepCount> stabilization_step) {
        const std::uint64_t total = store_.adopt_census(protocol_, census);
        require(total == n_, "census does not conserve the population");
        steps_ = steps;
        first_single_leader_step_ = stabilization_step;
        leader_count_ = store_.recount_leaders();
    }

    // --- execution --------------------------------------------------------

    /// Runs until exactly one leader remains or `max_steps` further steps
    /// have been executed, whichever comes first. The final round may run
    /// past the stabilisation step (they cannot change the
    /// outcome: single-leader is absorbing); `stabilization_step` is exact.
    RunResult run_until_one_leader(StepCount max_steps) {
        StepCount executed = 0;
        while (leader_count_ != 1 && executed < max_steps) {
            executed += round(max_steps - executed);
        }
        return make_result(leader_count_ == 1);
    }

    /// Runs exactly `count` steps: every round stops at the remaining budget
    /// (mid-run or at a collision), so there is no overrun.
    RunResult run_for(StepCount count) {
        StepCount executed = 0;
        while (executed < count) executed += round(count - executed);
        return make_result(leader_count_ == 1);
    }

    /// Runs `count` additional steps and reports whether any agent's output
    /// changed during them (and the leader count stayed put).
    [[nodiscard]] bool verify_outputs_stable(StepCount count) {
        const std::size_t leaders_before = leader_count_;
        role_change_seen_ = false;
        StepCount executed = 0;
        while (executed < count) executed += round(count - executed);
        return !role_change_seen_ && leader_count_ == leaders_before;
    }

    // --- fault injection ---------------------------------------------------

    /// Applies one crash/rejoin/reset fault between rounds by count-vector
    /// surgery on the shared store. The transition cache stays valid (it is
    /// keyed on state ids, never on counts); the repairs the surgery *does*
    /// owe are the live-list compaction (inside `remove_uniform_agents`)
    /// and re-sizing the collision-run sampler to the new population. All
    /// randomness comes from the dedicated fault stream, so the batch
    /// stream replays deterministically after the fault. Silence never
    /// reaches the engine (run-layer concern).
    void apply_fault(const FaultAction& action) {
        require(action.kind != FaultKind::silence,
                "silence is applied by the run layer, not the engine");
        switch (action.kind) {
            case FaultKind::crash: {
                std::uint64_t k = resolve_fault_count(action, n_);
                if (k >= n_) k = n_ - 1;  // always leave one survivor
                const std::uint64_t leaders_removed =
                    remove_uniform_agents(store_, fault_rng_, k, n_);
                n_ -= k;
                leader_count_ -= leaders_removed;
                if (n_ >= 2) run_sampler_ = CollisionRunSampler(n_);
                break;
            }
            case FaultKind::rejoin: {
                const std::uint64_t k = action.count;
                require(n_ + k <= (std::uint64_t{1} << 32U),
                        "rejoin would grow the population past 2^32 agents");
                const StateId init = intern(protocol_.initial_state());
                store_.counts()[init] += k;
                store_.make_live(init);
                n_ += k;
                if (store_.index().is_leader(init)) leader_count_ += k;
                run_sampler_ = CollisionRunSampler(n_);
                break;
            }
            case FaultKind::reset: {
                std::uint64_t k = resolve_fault_count(action, n_);
                if (k > n_) k = n_;
                const std::uint64_t leaders_removed =
                    remove_uniform_agents(store_, fault_rng_, k, n_);
                const StateId init = intern(protocol_.initial_state());
                store_.counts()[init] += k;
                store_.make_live(init);
                leader_count_ -= leaders_removed;
                if (store_.index().is_leader(init)) leader_count_ += k;
                break;
            }
            case FaultKind::silence: break;  // unreachable (guarded above)
        }
        // Re-anchor single-leader detection at the post-fault configuration.
        first_single_leader_step_ = leader_count_ == 1
                                        ? std::optional<StepCount>(steps_)
                                        : std::nullopt;
    }

    /// Advances the step counter through a rate-zero silence window without
    /// touching counts or randomness.
    void advance_silent(StepCount count) noexcept { steps_ += count; }

    // --- checkpointing ------------------------------------------------------

    /// Serialises the engine's complete replay-relevant state: the batch and
    /// fault stream positions, the shard round counter (every shard stream
    /// is a pure function of it — the PR 7 contract), the interned count
    /// store, and the step/leader/stabilisation counters. Legal between
    /// public calls only (touched multiset empty), which the store asserts.
    void save_state(CheckpointWriter& w) const {
        w.u64(n_);
        w.pod(rng_.state());
        w.pod(fault_rng_.state());
        w.u64(shard_ctx_ ? shard_ctx_->round() : 0);
        store_.save_state(w);
        w.u64(steps_);
        w.u64(leader_count_);
        w.opt_u64(first_single_leader_step_);
        w.boolean(role_change_seen_);
    }

    /// Restores a `save_state` payload into an engine built with the same
    /// protocol, batch mode and thread count. The transition cache is
    /// dropped (a pure memo, but its entries may reference states interned
    /// after the checkpoint was taken); recomputation re-interns outputs in
    /// the exact order the original run did, so replay stays bit-identical.
    void restore_state(CheckpointReader& r) {
        n_ = r.u64();
        rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        fault_rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        const std::uint64_t round = r.u64();
        if (shard_ctx_) shard_ctx_->set_round(round);
        store_.restore_state(protocol_, r);
        steps_ = r.u64();
        leader_count_ = r.u64();
        first_single_leader_step_ = r.opt_u64();
        role_change_seen_ = r.boolean();
        cache_ = TransitionCache{};
        if (n_ >= 2) run_sampler_ = CollisionRunSampler(n_);
    }

private:
    // --- interning --------------------------------------------------------

    StateId intern(const State& s) { return store_.intern(protocol_, s); }

    /// Memoised transition lookup through the shared cache
    /// (transition_cache.hpp).
    const CachedTransition& transition(StateId a, StateId b) {
        return cache_.get(a, b,
                          [this](StateId x, StateId y) { return compute_transition(x, y); });
    }

    CachedTransition compute_transition(StateId a, StateId b) {
        return compute_cached_transition(protocol_, store_.index(), a, b,
                                         [this](const State& s) { return intern(s); });
    }

    // --- multibatch round ---------------------------------------------------

    /// Executes one multibatch round of at most `budget` interactions;
    /// returns the number executed (≥ 1 for budget ≥ 1).
    ///
    /// A round sorts the agents into *fresh* (never scheduled this round,
    /// `fresh_` of them), *delayed* (in a scheduled fresh–fresh pair not
    /// drawn yet, `delayed_`) and *touched* (state known, in the store's
    /// touched multiset). The store's counts hold the states of fresh and
    /// delayed agents alike (`untouched_` = fresh + delayed): the two kinds
    /// are exchangeable, so any state the round needs is a uniform draw
    /// from that pool. Runs of fresh–fresh interactions only grow the
    /// delayed set; each collision is simulated on its own; the round stops
    /// once its collisions reach the live-state count it started with (the
    /// bulk phase below costs Θ(live states), so this keeps the two in
    /// balance), when its used agents reach the run sampler's range (an
    /// O(√n) memory bound), or when the budget runs out. The pairs still
    /// delayed are then drawn in bulk.
    StepCount round(StepCount budget) {
        if (budget == 0) return 0;
        if (n_ < 2) {  // crash fault left a single survivor: no pairs exist
            steps_ += budget;
            return budget;
        }
        // Tick the shard streams once per non-trivial round, whether or not
        // any loop below ends up above the sharding threshold — the stream-
        // split contract keys shard rngs on the round counter alone, never
        // on data-dependent fallback decisions. Consumes no rng_ draws, so
        // threads == 1 and never-sharding runs keep the sequential stream.
        if (shard_ctx_) shard_ctx_->begin_round();
        store_.compact_live();
        const std::size_t live_states = store_.live_ids().size();
        const std::size_t leaders_before = leader_count_;
        untouched_ = n_;
        fresh_ = n_;
        delayed_ = 0;
        fresh_pairs_ = 0;
        collisions_.clear();
        early_.clear();

        StepCount executed = 0;
        while (true) {
            const std::uint64_t run = run_sampler_.sample(rng_, n_ - fresh_, budget - executed);
            fresh_pairs_ += run;
            fresh_ -= 2 * run;
            delayed_ += 2 * run;
            executed += run;
            if (executed == budget) break;  // the run outlasted the budget
            collision();
            ++executed;
            if (executed == budget || collisions_.size() >= live_states ||
                n_ - fresh_ >= run_sampler_.max_used()) {
                break;
            }
        }
        resolve_delayed_pairs();
        const StepCount steps_before = steps_;
        steps_ += executed;
        if (!first_single_leader_step_ && leader_count_ == 1 && leaders_before != 1) {
            first_single_leader_step_ = steps_before + crossing_offset(leaders_before);
        }
        store_.merge_touched();
        return executed;
    }

    /// Outcome of one individually simulated interaction.
    struct Fired {
        StateId a;
        StateId b;
        std::int8_t leader_delta;
    };

    /// The round's next interaction after a fresh–fresh run: at least one
    /// participant is used (delayed or touched). With u fresh and w = n − u
    /// used agents, the ordered slot cases used–used : used–fresh :
    /// fresh–used weigh w(w−1) : w·u : u·w; their sum n(n−1) − u(u−1) fits
    /// in 64 bits for any n ≤ 2^32, and the arithmetic is checked anyway.
    void collision() {
        const std::uint64_t u = fresh_;
        const std::uint64_t w = n_ - u;
        std::uint64_t w_both = 0;
        std::uint64_t w_mixed = 0;
        std::uint64_t total = 0;
        if (__builtin_mul_overflow(w, w - 1, &w_both) ||
            __builtin_mul_overflow(w, u, &w_mixed) ||
            __builtin_add_overflow(w_both, w_mixed, &total) ||
            __builtin_add_overflow(total, w_mixed, &total)) {
            throw InvalidArgument("collision weights overflow 64 bits");
        }
        const std::uint64_t r = uniform_below(rng_, total);
        const bool a_used = r < w_both + w_mixed;
        const bool b_used = r < w_both || r >= w_both + w_mixed;
        const StateId qa = a_used ? take_used() : take_fresh();
        const StateId qb = b_used ? take_used() : take_fresh();
        const Fired f = fire(qa, qb);
        store_.touch(f.a, 1);
        store_.touch(f.b, 1);
        collisions_.push_back({fresh_pairs_, f.leader_delta});
    }

    /// Applies the transition of one ordered pair through the cache and
    /// books its leader delta and role change. Rated protocols thin it by
    /// one Bernoulli draw (a thinned pair met and nothing happened).
    Fired fire(StateId a, StateId b) {
        const CachedTransition& tr = transition(a, b);
        if constexpr (RatedProtocol<P>) {
            if (tr.fire_weight < 1.0F && (tr.out_a != a || tr.out_b != b) &&
                uniform_unit(rng_) >= static_cast<double>(tr.fire_weight)) {
                return {a, b, 0};
            }
        }
        role_change_seen_ = role_change_seen_ || tr.role_changed;
        leader_count_ = static_cast<std::size_t>(static_cast<std::int64_t>(leader_count_) +
                                                 tr.leader_delta);
        return {tr.out_a, tr.out_b, tr.leader_delta};
    }

    /// A used slot: a uniform pick among the delayed and touched agents.
    [[nodiscard]] StateId take_used() {
        const std::uint64_t r = uniform_below(rng_, delayed_ + store_.touched_total());
        return r < delayed_ ? take_delayed() : take_touched(r - delayed_);
    }

    /// A fresh slot: one pool draw.
    [[nodiscard]] StateId take_fresh() {
        fresh_ -= 1;
        return take_untouched();
    }

    /// A delayed agent resolves its pair on the spot: two pool draws give
    /// the pair's initiator and responder states, the pair fires, and one
    /// fair bit says which side the agent sat on. Its partner joins the
    /// touched multiset; the agent's post-pair state is returned. The pair
    /// sat at one of the fresh-pair slots still pending; which one is drawn
    /// only if the round reaches one leader (`crossing_offset`).
    [[nodiscard]] StateId take_delayed() {
        delayed_ -= 2;
        const StateId qa = take_untouched();
        const StateId qb = take_untouched();
        const Fired f = fire(qa, qb);
        early_.push_back({fresh_pairs_, f.leader_delta});
        const bool initiator = (rng_() >> 63U) != 0;
        store_.touch(initiator ? f.b : f.a, 1);
        return initiator ? f.a : f.b;
    }

    /// Draws the round's still-delayed pairs in bulk: initiator multiset,
    /// responder multiset, then a uniform random bijection between them via
    /// the pairing layer (batch_pairing.hpp) — contingency-table sampling or
    /// the expanded-multiset shuffle, per the engine's BatchMode (the `auto`
    /// heuristic decides per round from the sampled state-count profile) —
    /// and the cell application.
    void resolve_delayed_pairs() {
        const std::uint64_t pairs = delayed_ / 2;
        delayed_ = 0;
        pairs_.clear();
        if (pairs == 0) return;
        sample_multiset(pairs, initiators_);
        sample_multiset(pairs, responders_);
        sample_batch_pairing(batch_mode_, rng_, initiators_, responders_, pairs, pairs_);
        apply_pairs();
    }

    /// Draws a without-replacement multiset of `k` agents' states from the
    /// pool counts (multivariate hypergeometric chain) into `out`.
    void sample_multiset(std::uint64_t k, std::vector<std::pair<StateId, std::uint64_t>>& out) {
        out.clear();
        if (shard_ctx_ && k >= shard_ctx_->threads() &&
            store_.live_ids().size() >= shard_ctx_->threads() * shard_min_states) {
            sample_multiset_sharded(k, out);
            return;
        }
        const std::vector<StateId>& live_ids = store_.live_ids();
        std::vector<std::uint64_t>& counts = store_.counts();
        std::uint64_t pool = untouched_;
        for (std::size_t i = 0; i < live_ids.size() && k > 0; ++i) {
            const StateId id = live_ids[i];
            const std::uint64_t c = counts[id];
            if (c == 0) continue;
            const std::uint64_t x = hypergeometric(rng_, pool, c, k);
            pool -= c;
            if (x > 0) {
                out.emplace_back(id, x);
                counts[id] -= x;
                untouched_ -= x;
                k -= x;
            }
        }
        if (k != 0) [[unlikely]] {  // cheap check: no string temporary on the hot path
            ensure(false, "hypergeometric chain under-drew the batch multiset");
        }
    }

    /// The sequential fallback engages below this many live states per shard
    /// (and below `shard_min_groups` pair groups per shard for the cell
    /// loop): under that, the per-round bookkeeping costs more than the
    /// draws it parallelises, and small-n / narrow-profile runs pay zero
    /// overhead — they never even consume the shard streams' draws. The
    /// per-item work either threshold guards is a libm-heavy variate draw
    /// (hypergeometric / binomial, ~10² ns each), so even 8 items per shard
    /// outweigh a pre-spawned pool's hand-off; protocols concentrate on a
    /// few dozen live states at typical n, which is why the knee sits this
    /// low rather than at cache-line granularity.
    static constexpr std::size_t shard_min_states = 8;
    static constexpr std::size_t shard_min_groups = 8;

    /// Sharded form of the without-replacement chain, exact by the grouping
    /// property of the multivariate hypergeometric: the per-shard subtotals
    /// (how many of the k draws land in each shard's contiguous live-id
    /// slice) form a hypergeometric chain over the slice count sums — drawn
    /// sequentially from the main rng_ — and conditioned on its subtotal
    /// each shard's within-slice chain is independent of every other
    /// shard's, so it runs on the shard's private stream. Concatenating the
    /// slices in shard order reproduces the sequential live_ids visit order
    /// with a different (but fixed per (seed, threads)) draw stream.
    void sample_multiset_sharded(std::uint64_t k,
                                 std::vector<std::pair<StateId, std::uint64_t>>& out) {
        const std::vector<StateId>& live_ids = store_.live_ids();
        std::vector<std::uint64_t>& counts = store_.counts();
        const std::size_t shards = shard_ctx_->threads();

        std::uint64_t pool = untouched_;
        std::uint64_t left = k;
        for (std::size_t s = 0; s < shards; ++s) {
            const ShardRange r = shard_range(live_ids.size(), shards, s);
            std::uint64_t total = 0;
            for (std::size_t i = r.first; i < r.last; ++i) total += counts[live_ids[i]];
            std::uint64_t x = 0;
            if (left > 0 && total > 0) {
                x = total == pool ? left : hypergeometric(rng_, pool, total, left);
            }
            shard_totals_[s] = total;
            shard_draws_[s] = x;
            pool -= total;
            left -= x;
        }
        ensure(left == 0, "sharded hypergeometric subtotal chain under-drew");

        // Parallel: each shard draws its within-slice chain on its private
        // stream and decrements its own ids' count words — slices are
        // disjoint, so no two shards ever write the same word.
        shard_ctx_->run([&](std::size_t s) {
            StateMultiset& mine = shard_outs_[s];
            mine.clear();
            const ShardRange r = shard_range(live_ids.size(), shards, s);
            Rng& rng = shard_ctx_->rng(s);
            std::uint64_t pool_s = shard_totals_[s];
            std::uint64_t want = shard_draws_[s];
            for (std::size_t i = r.first; i < r.last && want > 0; ++i) {
                const StateId id = live_ids[i];
                const std::uint64_t c = counts[id];
                if (c == 0) continue;
                const std::uint64_t x =
                    c == pool_s ? want : hypergeometric(rng, pool_s, c, want);
                pool_s -= c;
                if (x > 0) {
                    mine.emplace_back(id, x);
                    counts[id] -= x;
                    want -= x;
                }
            }
            ensure(want == 0, "sharded hypergeometric slice chain under-drew");
        });

        for (std::size_t s = 0; s < shards; ++s) {
            out.insert(out.end(), shard_outs_[s].begin(), shard_outs_[s].end());
        }
        untouched_ -= k;
    }


    /// Applies every pair group of the bulk phase through the transition
    /// cache. O(#groups): cell count under bulk pairing, pair count under
    /// pairwise. Rated protocols thin each group binomially first (the
    /// thinned pairs met without reacting).
    void apply_pairs() {
        std::int64_t delta_total = 0;
        bool role_changed = false;
        const std::size_t groups = pairs_.group_count();
        if (shard_ctx_ && groups >= shard_ctx_->threads() * shard_min_groups) {
            apply_pairs_sharded(groups, delta_total, role_changed);
        } else {
            if constexpr (RatedProtocol<P>) fired_mult_.clear();
            pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult) {
                const CachedTransition& tr = transition(a, b);
                std::uint64_t fired = mult;
                if constexpr (RatedProtocol<P>) {
                    // Thinning only matters for non-null transitions (a
                    // thinned null is a null); skipping the draw there keeps
                    // unrated-like cells cheap and changes nothing in
                    // distribution.
                    if (tr.fire_weight < 1.0F && (tr.out_a != a || tr.out_b != b)) {
                        fired = binomial(rng_, mult, static_cast<double>(tr.fire_weight));
                    }
                    fired_mult_.push_back(fired);
                    const std::uint64_t nulls = mult - fired;
                    if (nulls > 0) {  // met without reacting: states unchanged
                        store_.touch(a, nulls);
                        store_.touch(b, nulls);
                    }
                    if (fired == 0) return;
                }
                store_.touch(tr.out_a, fired);
                store_.touch(tr.out_b, fired);
                delta_total += static_cast<std::int64_t>(tr.leader_delta) *
                               static_cast<std::int64_t>(fired);
                role_changed |= tr.role_changed;
            });
        }
        role_change_seen_ = role_change_seen_ || role_changed;
        leader_count_ = static_cast<std::size_t>(static_cast<std::int64_t>(leader_count_) +
                                                 delta_total);
    }

    /// Sharded per-cell application: a sequential warm pass populates the
    /// transition cache (interning and cache growth are single-threaded),
    /// then each shard walks a contiguous slice of the group order read-only
    /// — cached transitions via the const find, touches buffered in its
    /// ShardDelta, rated thinning on its private stream writing fired_mult_
    /// by group index — and the deltas fold into the store in ascending
    /// shard order. Concatenated contiguous slices reproduce the sequential
    /// visit order, so the store's touched-id ordering (which fixes the
    /// live-list order later draws walk) is independent of scheduling. Unrated protocols
    /// consume no shard randomness here, so their sharded round output is
    /// bit-identical to the sequential cell loop's.
    void apply_pairs_sharded(std::size_t groups, std::int64_t& delta_total,
                             bool& role_changed) {
        // Warm every pair the shards will look up. A dense-matrix growth
        // mid-pass drops previously warmed entries, so re-warm once when the
        // dimension moved (growth happens a handful of times per lifetime).
        const StateId dim_before = cache_.dense_dimension();
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t) { transition(a, b); });
        if (cache_.dense_dimension() != dim_before) {
            pairs_.for_each([&](StateId a, StateId b, std::uint64_t) { transition(a, b); });
        }
        if constexpr (RatedProtocol<P>) fired_mult_.assign(groups, 0);
        const std::size_t states = store_.counts().size();
        const std::size_t shards = shard_ctx_->threads();
        for (std::size_t s = 0; s < shards; ++s) shard_deltas_[s].ensure_capacity(states);
        shard_ctx_->run([&](std::size_t s) {
            ShardDelta& delta = shard_deltas_[s];
            const ShardRange r = shard_range(groups, shards, s);
            Rng& rng = shard_ctx_->rng(s);
            pairs_.for_each_range(
                r.first, r.last,
                [&](std::size_t g, StateId a, StateId b, std::uint64_t mult) {
                    const CachedTransition* tr = cache_.find(a, b);
                    std::uint64_t fired = mult;
                    if constexpr (RatedProtocol<P>) {
                        if (tr->fire_weight < 1.0F && (tr->out_a != a || tr->out_b != b)) {
                            fired = binomial(rng, mult, static_cast<double>(tr->fire_weight));
                        }
                        fired_mult_[g] = fired;
                        const std::uint64_t nulls = mult - fired;
                        if (nulls > 0) {
                            delta.touch(a, nulls);
                            delta.touch(b, nulls);
                        }
                        if (fired == 0) return;
                    } else {
                        (void)g;
                        (void)rng;
                    }
                    delta.touch(tr->out_a, fired);
                    delta.touch(tr->out_b, fired);
                    delta.leader_delta += static_cast<std::int64_t>(tr->leader_delta) *
                                          static_cast<std::int64_t>(fired);
                    delta.role_changed |= tr->role_changed;
                });
        });
        for (std::size_t s = 0; s < shards; ++s) {
            delta_total += shard_deltas_[s].leader_delta;
            role_changed = role_changed || shard_deltas_[s].role_changed;
            shard_deltas_[s].merge_into(store_);
        }
    }

    /// Offset (1-based) of the round's interaction that first left exactly
    /// one leader. Collisions sit at known steps; the fresh-pair slots in
    /// between hold the delayed pairs. A pair resolved early sat at a slot
    /// drawn uniformly from the slots still pending when it was resolved;
    /// the bulk pairs are exchangeable, so their expanded leader deltas —
    /// rated groups as their fired count's deltas plus zeros for the thinned
    /// pairs (null interactions occupy step slots too) — fill the remaining
    /// slots in shuffled order. The whole round is then replayed in step
    /// order. Called at most once per run (single-leader is absorbing).
    [[nodiscard]] std::uint64_t crossing_offset(std::size_t leaders_before) {
        constexpr std::int8_t pending = std::numeric_limits<std::int8_t>::max();
        slot_deltas_.assign(fresh_pairs_, pending);
        for (const Resolved& e : early_) {
            std::uint64_t slot = 0;
            do {
                slot = uniform_below(rng_, e.fresh_pairs);
            } while (slot_deltas_[slot] != pending);
            slot_deltas_[slot] = e.leader_delta;
        }
        scratch_deltas_.clear();
        std::size_t group = 0;
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult) {
            std::uint64_t fired = mult;
            if constexpr (RatedProtocol<P>) {
                fired = fired_mult_[group++];
            } else {
                (void)group;
            }
            scratch_deltas_.insert(scratch_deltas_.end(), fired, transition(a, b).leader_delta);
            scratch_deltas_.insert(scratch_deltas_.end(), mult - fired, 0);
        });
        shuffle_vector(scratch_deltas_, rng_);
        std::size_t next = 0;
        for (std::int8_t& slot : slot_deltas_) {
            if (slot == pending) slot = scratch_deltas_[next++];
        }
        std::int64_t running = static_cast<std::int64_t>(leaders_before);
        std::uint64_t step = 0;
        std::uint64_t slot = 0;
        const auto advance = [&](std::int8_t delta) {
            ++step;
            running += delta;
            return running == 1;
        };
        for (const Resolved& c : collisions_) {
            for (; slot < c.fresh_pairs; ++slot) {
                if (advance(slot_deltas_[slot])) return step;
            }
            if (advance(c.leader_delta)) return step;
        }
        for (; slot < slot_deltas_.size(); ++slot) {
            if (advance(slot_deltas_[slot])) return step;
        }
        ensure(false, "leader-count crossing not found within the round");
        return step;
    }

    // --- single-agent draws -------------------------------------------------

    /// Removes and returns the state of the touched agent at rank `r` (a
    /// uniform rank in [0, touched_total) makes it a uniform touched agent).
    [[nodiscard]] StateId take_touched(std::uint64_t r) {
        for (const StateId id : store_.touched_ids()) {
            const std::uint64_t c = store_.touched()[id];
            if (r < c) {
                store_.untouch_one(id);
                return id;
            }
            r -= c;
        }
        ensure(false, "touched multiset sampling ran past its total");
        return 0;
    }

    /// Removes and returns a uniformly random pool agent's state.
    [[nodiscard]] StateId take_untouched() {
        std::uint64_t r = uniform_below(rng_, untouched_);
        for (const StateId id : store_.live_ids()) {
            const std::uint64_t c = store_.counts()[id];
            if (r < c) {
                store_.counts()[id] -= 1;
                untouched_ -= 1;
                return id;
            }
            r -= c;
        }
        ensure(false, "untouched count sampling ran past its total");
        return 0;
    }

    [[nodiscard]] RunResult make_result(bool converged) const noexcept {
        RunResult r;
        r.converged = converged;
        r.steps = steps_;
        r.parallel_time = to_parallel_time(steps_, n_);
        r.leader_count = leader_count_;
        r.stabilization_step = first_single_leader_step_;
        return r;
    }

    P protocol_;
    std::size_t n_;
    Rng rng_;
    Rng fault_rng_;  ///< fault-surgery stream; never touches the batch stream
    CollisionRunSampler run_sampler_;
    InternedCountStore<P> store_;  ///< counts + live list + touched multiset
    std::uint64_t untouched_ = 0;    ///< pool agents: fresh + delayed
    std::uint64_t fresh_ = 0;        ///< agents not yet scheduled this round
    std::uint64_t delayed_ = 0;      ///< agents in scheduled, undrawn pairs
    std::uint64_t fresh_pairs_ = 0;  ///< fresh–fresh pairs scheduled this round
    /// A collision or an early-resolved pair: the fresh pairs scheduled
    /// before it and its leader delta (the crossing replay's inputs).
    struct Resolved {
        std::uint64_t fresh_pairs;
        std::int8_t leader_delta;
    };
    std::vector<Resolved> collisions_;  ///< this round's collisions, in order
    std::vector<Resolved> early_;       ///< pairs resolved by collisions, in order
    TransitionCache cache_;
    BatchMode batch_mode_ = BatchMode::automatic;
    StateMultiset initiators_;
    StateMultiset responders_;
    BatchPairs pairs_;
    std::vector<std::uint64_t> fired_mult_;  ///< per-group fired count (rated only)
    std::vector<std::int8_t> scratch_deltas_;  ///< crossing replay: bulk deltas
    std::vector<std::int8_t> slot_deltas_;     ///< crossing replay: per fresh-pair slot
    std::unique_ptr<ShardContext> shard_ctx_;  ///< null unless threads > 1
    std::vector<ShardDelta> shard_deltas_;     ///< one per shard, reused
    std::vector<StateMultiset> shard_outs_;    ///< per-shard multiset slices
    std::vector<std::uint64_t> shard_totals_;  ///< per-shard slice count sums
    std::vector<std::uint64_t> shard_draws_;   ///< per-shard subtotal draws
    StepCount steps_ = 0;
    std::size_t leader_count_ = 0;
    std::optional<StepCount> first_single_leader_step_;
    bool role_change_seen_ = false;
};

/// Convenience mirror of simulate_to_single_leader for the batched engine.
template <typename P>
    requires InternableProtocol<P>
[[nodiscard]] RunResult batched_simulate_to_single_leader(
    P proto, std::size_t n, std::uint64_t seed, StepCount max_steps,
    BatchMode batch_mode = BatchMode::automatic, std::size_t threads = 1) {
    BatchedEngine<P> engine(std::move(proto), n, seed, batch_mode, threads);
    return engine.run_until_one_leader(max_steps);
}

}  // namespace ppsim
