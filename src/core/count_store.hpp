/// \file count_store.hpp
/// \brief The interned-count configuration store shared by the count-based
/// engines (BatchedEngine, GillespieEngine): per-state-id agent counts with
/// a live-id list, plus the in-flight "touched" side multiset both engines
/// use to keep a round's outputs out of that same round's inputs.
///
/// Sibling of TransitionCache (transition_cache.hpp): the cache memoises
/// what a transition *does*, this store tracks how many agents sit in each
/// state while rounds are applied. Both engines used to carry private copies
/// of this bookkeeping (intern/live-list/touch-merge); one definition here
/// means a fix — or an invariant change — lands once for every count engine.
/// The store is pure bookkeeping: it draws no randomness and never calls the
/// protocol outside `intern`, so moving an engine onto it cannot change the
/// engine's seeded replay stream.
///
/// Invariants between engine rounds (the states in which engines expose
/// observation):
///  * `counts()[id]` is the exact number of agents in state id; their sum is
///    the population size;
///  * every id with a non-zero count is in `live_ids()` exactly once
///    (`live_ids()` may additionally hold dead ids until a compaction);
///  * the touched multiset is empty (`merge_touched` folded it back).
/// During a round, engines may move agents from `counts()` into the touched
/// multiset (outputs produced mid-round) and back via `merge_touched()`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "checkpoint_io.hpp"
#include "state_index.hpp"

namespace ppsim {

/// Interned per-state agent counts + live-id list + touched side multiset.
/// The hot-path accessors hand out direct references to the underlying
/// vectors: the engines' inner loops index them exactly as they indexed
/// their former private members, so the extraction costs nothing.
template <typename P>
    requires InternableProtocol<P>
class InternedCountStore {
public:
    using State = typename P::State;

    /// Dense id of `s`, interning it on first sight and growing every
    /// per-id vector in lock step. The engines' single interning gateway
    /// (also re-entered by the transition cache's compute callback).
    StateId intern(const P& proto, const State& s) {
        const StateId id = index_.intern(proto, s);
        if (index_.size() > counts_.size()) {
            counts_.resize(index_.size(), 0);
            touched_.resize(index_.size(), 0);
            in_live_.resize(index_.size(), 0);
            in_touched_.resize(index_.size(), 0);
        }
        return id;
    }

    /// Adds `id` to the live list if absent.
    void make_live(StateId id) {
        if (in_live_[id] == 0) {
            in_live_[id] = 1;
            live_ids_.push_back(id);
        }
    }

    /// Drops every dead id from the live list. Legal between rounds only
    /// (while a round is in flight a zero count may mean "all in the touched
    /// multiset", not "empty").
    void compact_live() {
        std::size_t i = 0;
        while (i < live_ids_.size()) {
            if (!drop_dead_at(i)) ++i;
        }
    }

    /// Swap-removes `live_ids()[i]` when its count is zero; returns true on
    /// removal (the caller revisits index i, which now holds the swapped-in
    /// id). Building block for walks that compact while iterating — the
    /// batched engine's first multiset chain of each round.
    bool drop_dead_at(std::size_t i) {
        const StateId id = live_ids_[i];
        if (counts_[id] != 0) return false;
        in_live_[id] = 0;
        live_ids_[i] = live_ids_.back();
        live_ids_.pop_back();
        return true;
    }

    /// Adds `mult` agents in state `id` to the touched side multiset. An id
    /// is listed once per round even when `untouch_one` emptied it in
    /// between — a second listing would double its weight in every later
    /// walk of `touched_ids()`.
    void touch(StateId id, std::uint64_t mult) {
        if (in_touched_[id] == 0) {
            in_touched_[id] = 1;
            touched_ids_.push_back(id);
        }
        touched_[id] += mult;
        touched_total_ += mult;
    }

    /// Folds the touched multiset back into the counts and empties it.
    void merge_touched() {
        for (const StateId id : touched_ids_) {
            counts_[id] += touched_[id];
            touched_[id] = 0;
            in_touched_[id] = 0;
            make_live(id);
        }
        touched_ids_.clear();
        touched_total_ = 0;
    }

    // --- hot-path access ---------------------------------------------------

    [[nodiscard]] StateIndex<P>& index() noexcept { return index_; }
    [[nodiscard]] const StateIndex<P>& index() const noexcept { return index_; }
    [[nodiscard]] std::vector<std::uint64_t>& counts() noexcept { return counts_; }
    [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
        return counts_;
    }
    [[nodiscard]] std::vector<std::uint64_t>& touched() noexcept { return touched_; }
    [[nodiscard]] const std::vector<StateId>& touched_ids() const noexcept {
        return touched_ids_;
    }
    [[nodiscard]] std::vector<StateId>& live_ids() noexcept { return live_ids_; }
    [[nodiscard]] const std::vector<StateId>& live_ids() const noexcept {
        return live_ids_;
    }
    [[nodiscard]] std::uint64_t touched_total() const noexcept { return touched_total_; }

    /// Removes one agent from the touched multiset's entry for `id` (the
    /// batched engine's collision draws). The id stays listed, possibly with
    /// a zero entry, until `merge_touched`.
    void untouch_one(StateId id) {
        touched_[id] -= 1;
        touched_total_ -= 1;
    }

    // --- observation (between rounds) --------------------------------------

    /// Exact count of agents currently in state `s` (0 when never interned).
    [[nodiscard]] std::uint64_t count_of(const P& proto, const State& s) const {
        const std::optional<StateId> id = index_.find(state_key_of(proto, s));
        return id ? counts_[*id] : 0;
    }

    /// Number of distinct states with a non-zero count.
    [[nodiscard]] std::size_t live_state_count() const noexcept {
        std::size_t live = 0;
        for (const std::uint64_t c : counts_) live += c != 0 ? 1 : 0;
        return live;
    }

    /// Sum of all counts — the population size, by conservation.
    [[nodiscard]] std::uint64_t total_count() const noexcept {
        std::uint64_t total = 0;
        for (const std::uint64_t c : counts_) total += c;
        return total;
    }

    /// Visits every state with a non-zero count as (state, count, role) —
    /// O(#states) regardless of population size.
    template <typename Visitor>
    void visit_counts(Visitor&& visit) const {
        for (StateId id = 0; id < counts_.size(); ++id) {
            if (counts_[id] != 0) {
                visit(index_.state(id), counts_[id], index_.role(id));
            }
        }
    }

    /// Leader count recomputed from the count vector (tests / checks).
    [[nodiscard]] std::uint64_t recount_leaders() const noexcept {
        std::uint64_t leaders = 0;
        for (StateId id = 0; id < counts_.size(); ++id) {
            if (index_.is_leader(id)) leaders += counts_[id];
        }
        return leaders;
    }

    /// Replaces the configuration wholesale with `census` (state, count)
    /// pairs: zero every count, intern and set the census entries, rebuild
    /// the live list. The count engines' adoption primitive for the hybrid
    /// engine's mid-run handoff (hybrid_engine.hpp). Only legal between
    /// rounds (touched multiset empty). Returns the census total for the
    /// caller's conservation check.
    std::uint64_t adopt_census(const P& proto,
                               const std::vector<std::pair<State, std::uint64_t>>& census) {
        std::fill(counts_.begin(), counts_.end(), 0);
        std::uint64_t total = 0;
        for (const auto& [state, count] : census) {
            if (count == 0) continue;
            const StateId id = intern(proto, state);
            counts_[id] += count;
            make_live(id);
            total += count;
        }
        compact_live();
        return total;
    }

    // --- checkpointing (between rounds) -------------------------------------

    /// Serialises the store for a checkpoint: interned states in id order
    /// (id assignment order is part of the replay contract — downstream
    /// multiset chains walk ids), their counts, and the live list *in its
    /// current order* (the chains walk it in order too). Only legal between
    /// rounds: the touched multiset must be empty.
    void save_state(CheckpointWriter& w) const {
        ensure(touched_total_ == 0 && touched_ids_.empty(),
               "cannot checkpoint a count store mid-round");
        w.u64(index_.size());
        for (StateId id = 0; id < index_.size(); ++id) w.pod(index_.state(id));
        for (StateId id = 0; id < index_.size(); ++id) w.u64(counts_[id]);
        w.u64(live_ids_.size());
        for (const StateId id : live_ids_) w.u32(id);
    }

    /// Rebuilds the store from a `save_state` payload: re-interns the saved
    /// states in id order (reproducing the exact id assignment), restores
    /// the counts, and replays the live list in its saved order.
    void restore_state(const P& proto, CheckpointReader& r) {
        *this = InternedCountStore<P>{};
        const std::uint64_t states = r.u64();
        for (std::uint64_t i = 0; i < states; ++i) {
            const State s = r.pod<State>();
            const StateId id = intern(proto, s);
            require(id == i, "checkpoint holds duplicate interned states");
        }
        for (StateId id = 0; id < states; ++id) counts_[id] = r.u64();
        const std::uint64_t live = r.u64();
        for (std::uint64_t i = 0; i < live; ++i) {
            const StateId id = r.u32();
            require(id < states, "checkpoint live list references unknown state");
            make_live(id);
        }
    }

private:
    StateIndex<P> index_;
    std::vector<std::uint64_t> counts_;     ///< agents per state id
    std::vector<std::uint64_t> touched_;    ///< in-flight round outputs per state id
    std::vector<StateId> touched_ids_;      ///< ids touched this round, each once
    std::vector<std::uint8_t> in_touched_;  ///< membership flags for touched_ids_
    std::vector<StateId> live_ids_;         ///< ids that may have counts_[id] > 0
    std::vector<std::uint8_t> in_live_;     ///< membership flags for live_ids_
    std::uint64_t touched_total_ = 0;       ///< Σ touched_[id]
};

}  // namespace ppsim
