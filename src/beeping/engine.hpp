// Synchronous beeping-model engine.
//
// Round semantics (paper Section 1.1): the states of round t determine
// the beep set B_t; each node then transitions with delta_top if it
// beeped or heard a beep in round t, and with delta_bot otherwise,
// yielding the states of round t+1. The engine computes the full beep
// set before any transition, so the update is exactly synchronous.
//
// Randomness: node u draws from its own substream seed->substream(u),
// making every run deterministic in (graph, protocol, seed) and
// independent of node iteration order.
//
// Hot loop: the beep set B_t and the heard set are kept bit-packed
// (one std::uint64_t word per 64 nodes). The heard set is computed by
// graph::heard_gather, three word-parallel kernels behind one dispatch
// point: the stencil (shifted word ops) on topology-tagged
// path/ring/grid/torus graphs and on every implicit view, and on
// explicit untagged graphs a word-CSR push (premasked neighbor words
// per beeper) on sparse rounds and a word-CSR pull (premasked word
// probes per silent node) on dense ones. Every kernel computes the
// same set, so the choice never affects results; `step_reference()`
// keeps the original scalar byte-array path alive for differential
// tests and benchmarks, and `set_gather_kernel` pins one kernel for
// debugging. The word-CSR is owned by the graph (graph::word_layout),
// built once per graph and borrowed by every engine bound to it - a
// per-trial engine never rebuilds it.
//
// One round body: step(), run_rounds() and run_until_single_leader()
// execute the same inline round. What can change only between calls -
// the telemetry knobs and sample stride, observers, noise, the
// adversary hook, the crashed set, the patch overlay, the gear - is
// read once per call; what a plane round reads (the plane_ctx of word
// and plane pointers, rules, plan and tail mask; the sweep entry
// point; serial vs tiled) is bound at construction and rebound only by
// the setters that change it (set_parallelism,
// set_compiled_kernel_enabled, set_fast_path_enabled, restart/resync).
// A serial plane round therefore costs its gather and its sweep, which
// writes the leader count directly; the per-slot leader partials and
// their fold exist only for tiled rounds.
//
// Observers read the packed sets directly (beeping::round_view): the
// engine keeps the beep set and the leader set current as words in
// every gear, so handing a round to an observer costs nothing beyond
// what the observer itself reads. The state vector and state-class
// masks are pulls that do their work only when an observer asks.
//
// Beep counts: the engine keeps none. N_beep_t(u) is a
// beeping::beep_counter (observer.hpp) attached at round 0, so only a
// run that reads counts pays for them. Its counts are the beep sets
// observers were shown since the last round-0 view. They equal the
// counts the engine itself used to keep, with one exception: a mid-run
// resync_with_protocol, or a crash/restart fault between rounds, no
// longer rewrites the count of a round observers have already seen
// (the changed nodes' beep bits change for the engine, not for the
// counter).
//
// Virtual gear: the path for protocols the plane gear cannot serve. An
// fsm_protocol whose machine is not plane-capable (or whose fast path
// is switched off) runs the machine's virtual delta_top/delta_bot per
// node over the raw state vector. Any other protocol advances a whole
// round through two calls: protocol::step_round with the packed heard
// set and the per-node streams, then protocol::round_sets, which
// writes the new beep and leader words and returns the leader count.
// The Table 1 baselines implement both calls with word algebra; per-node
// protocols inherit defaults that loop their step/beeping/is_leader
// in node order. step() and step_reference() share this gear.
//
// Plane gear: when the bound protocol is an fsm_protocol whose machine
// compiles to a flat table (state_machine::compile_table) of at most
// 256 states (beeping::plane_capable), states are held in
// ceil(log2(q)) bit-planes and the whole transition function is
// evaluated with word-parallel set algebra - per-state decode masks
// route 64 nodes at a time to their successors, and the beep, leader
// and active sets fall out as word ORs. The engine enters this gear at
// bind, seeding the planes in O(words) from the machine's initial state
// (fsm_protocol::reset puts every lane there), and never leaves it
// while the fast path is on; restart_from_protocol,
// resync_with_protocol and set_fast_path_enabled(true) re-enter it
// through one transpose of the protocol's state vector, which also
// rebuilds the beep, leader and active words. The planes are the
// *authoritative* state representation: the protocol's uint16 vector
// is only a cache, marked stale after each plane round and unpacked
// (one SWAR bit-to-byte transpose) the first time an outside reader
// calls fsm_protocol::states()/state_of/etc. Rounds nobody observes
// therefore pay zero state write-back. Runs of states whose silent
// transition is "increment the state id" (the Timeout-BFW patience
// counter W◦(0..T-1)) are detected at bind time and handled as
// bit-sliced counters: one ripple-carry add over the planes, restricted
// to the silent run members, replaces per-state decoding - so
// Timeout-BFW with large T ticks every waiting follower's patience at
// 64 nodes per word op. Words whose lanes are all silent and draw-free
// (no heard or active lane) are skipped wholesale. Rules that actually
// draw (e.g. the BFW W-state coin) cost one outcome word per lane word:
// every node draws once from its own stream, so each stream's sequence
// is that of the virtual gear - same states, same beep sets, same
// generator draws (the contract is per stream; order across nodes is
// free) - and set_fast_path_enabled(false) forces the virtual gear for
// differential testing. Machines over 256 states, and big-endian hosts
// (the transposes write state ids in little-endian byte order), run the
// virtual gear. The engine owns only the plane round's driver (tiling,
// the leader fold, crash fix-up); the per-word sweep it drives
// lives beside the beepc kernels in plane_kernel.hpp - the layout from
// make_plane_plan(), the body from interpreted_sweep(), or a compiled
// kernel whose structure matches the bound table.
//
// Intra-trial parallelism: set_parallelism(threads, tile_words) runs
// the word-parallel kernels - the stencil gather, the reception-noise
// pass and the whole plane sweep (decode, ripple-carry patience adds)
// - over word-range tiles on a persistent support::tile_executor. The
// word-CSR push and the pulls stay serial inside a tiled round (see
// graph/gather.hpp). Tiles write only their own words; per-tile leader
// counts are summed after the barrier (order never matters), and
// per-node generators are disjoint streams, so execution is
// draw-for-draw bit-identical for every (tile size, thread count) -
// including the serial default. The virtual gear and the scalar
// reference stay single-threaded.
#pragma once

#include <array>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "beeping/observer.hpp"
#include "beeping/plane_kernel.hpp"
#include "beeping/protocol.hpp"
#include "graph/gather.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "support/arena.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace beepkit::beeping {

/// Outcome of a bounded run.
struct run_result {
  std::uint64_t rounds = 0;  ///< Round index at which the run stopped.
  /// True iff exactly one leader remained at the stop round. A run that
  /// ends with zero leaders (extinction - impossible for BFW from the
  /// all-W• start, but reachable under adversarial injections and for
  /// broken variants) is NOT a successful election.
  bool converged = false;
  std::size_t leaders = 0;  ///< Leader count at the stop round.
};

/// Reception-noise extension (not part of the paper's model - used by
/// the robustness experiments): each listening node's "heard a beep"
/// verdict is flipped adversarially at random. A node always knows
/// whether it beeped itself; noise only corrupts reception.
///
///   miss        - P(a real neighborhood beep goes unheard)  [erasure]
///   hallucinate - P(silence is perceived as a beep)         [false positive]
///
/// Noise coins come from dedicated per-node streams, so a noisy run
/// with miss = hallucinate = 0 is bit-identical to a noiseless run.
struct noise_model {
  double miss = 0.0;
  double hallucinate = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return miss > 0.0 || hallucinate > 0.0;
  }
};

/// Construction-time switch for the streaming giant-trial mode
/// (core/giant.hpp). The default configuration is the historical
/// engine; the switch changes no number - it only removes O(n) side
/// structures a giant run cannot afford (and never reads).
struct engine_config {
  /// Giant mode: per-node generators as 4-byte lazy draw cursors
  /// (rng_store) in place of the materialized 64-byte-per-node array,
  /// and no O(n) state vector (the protocol is reset in deferred mode,
  /// so the planes seeded at bind are the only state authority). It
  /// refuses the virtual gear, restarts, resyncs and faults. Requires
  /// a plane-capable fsm_protocol machine whose draw rules are uniform
  /// in kind (all fair-coin or all bernoulli), and no noise model.
  bool giant_mode = false;

  /// The giant-trial configuration.
  [[nodiscard]] static engine_config giant() noexcept {
    engine_config config;
    config.giant_mode = true;
    return config;
  }
};

class engine : private fsm_protocol::lazy_source {
 public:
  /// Binds a protocol instance to a topology view and resets it.
  /// Explicit graphs convert implicitly, so `engine(g, proto, seed)`
  /// keeps working; an explicit view's graph and `proto` must outlive
  /// the engine.
  engine(graph::topology_view view, protocol& proto, std::uint64_t seed);

  /// Same, with reception noise (robustness experiments).
  engine(graph::topology_view view, protocol& proto, std::uint64_t seed,
         const noise_model& noise);

  /// Same, with the giant-trial construction switches. Throws
  /// std::invalid_argument when giant mode's requirements are unmet
  /// (a plane-incapable machine, mixed draw kinds, or noise).
  engine(graph::topology_view view, protocol& proto, std::uint64_t seed,
         const noise_model& noise, const engine_config& config);

  /// Materializes any stale protocol state and detaches the lazy hook
  /// (the protocol outlives the engine and must stay readable).
  ~engine() override;

  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  /// Observers fire after every round, and once at attach time with
  /// the current round. An observer that throws from that first call
  /// (a beep_counter or core::invariant_checker attached after round 0)
  /// is not attached. Not owned; must outlive the engine.
  void add_observer(observer* obs);

  /// Executes one synchronous round transition (round t -> t+1): the
  /// one-round case of the round body the run loops execute.
  void step();

  /// The pre-bit-packing scalar implementation of `step()`: per-node
  /// byte flags and a plain neighbor loop. Bit-identical in outcome to
  /// `step()` (the packed path must match it on every graph/seed);
  /// kept as the differential-testing and benchmarking reference.
  void step_reference();

  /// Re-reads the protocol's current per-node states as a fresh round-0
  /// configuration: the round counter restarts and observers are shown
  /// the new round 0 (a beep_counter restarts its counts). Call
  /// after injecting an explicit configuration (e.g. the Section-5
  /// adversarial initializations) via fsm_protocol::set_states - the
  /// engine refuses to step (std::logic_error) while its bookkeeping is
  /// stale against the protocol's config_version().
  void restart_from_protocol();

  /// Adopts a mid-run configuration change (the invariant-checker
  /// corruption experiments) as the *current* round's configuration:
  /// the round counter keeps running and the current round's beep and
  /// leader sets are recomputed for the new states. Unlike
  /// restart_from_protocol this does not notify observers - they see
  /// the corrupted configuration at the next round, exactly as if an
  /// adversary rewrote states between rounds (a beep_counter keeps the
  /// beep set it was shown for the current round).
  void resync_with_protocol();

  /// Runs until at most one *alive* leader remains, or `max_rounds`
  /// elapse. For leader-monotone protocols (no transition creates a
  /// leader - true of BFW and all bundled baselines), both absorbing
  /// cases are permanent: exactly one leader is the election round of
  /// Definition 1 (converged), zero leaders is extinction (reported as
  /// converged == false with leaders == 0). Crashed nodes never count:
  /// with no faults injected alive == total, so this is exactly the
  /// historical predicate.
  run_result run_until_single_leader(std::uint64_t max_rounds);

  // --- fault-injection surface (core/faults drives this) -----------
  //
  // All fault entry points require a compiled fsm_protocol machine and
  // are unavailable under engine_config::giant_mode (std::logic_error
  // otherwise - faults keep per-node frozen snapshots the giant
  // path refuses to materialize). The crash model is crash-stop with
  // rejoin: a crashed node is frozen in place, never beeps (its packed
  // beep bit is forced 0, so neighbors stop hearing it with no
  // adjacency rewrite), never hears (its heard bit is masked after the
  // gather/noise/adversary stack), and its lane is rolled back after
  // every round's transition sweep - the lane still *transitions
  // naturally* inside each gear so the per-node draw sequences stay
  // identical across the scalar/virtual/plane/compiled gears, then a
  // per-gear epilogue discards the move. An engine with no
  // crashed nodes, no patch and no hook is draw-for-draw bit-identical
  // to one without the fault surface at all.

  /// Crashes node u frozen in its current state (no-op if already
  /// crashed). Its beep bit for the *current* round is cleared
  /// immediately - observers already saw this round, so the change
  /// becomes visible next round (a beep_counter keeps the beep it
  /// counted), exactly the resync_with_protocol convention.
  void fault_crash(graph::node_id u);
  /// Crashes node u frozen in state `s` (a crashed corpse can carry a
  /// corrupt state; re-crashing an already-crashed node re-freezes it).
  void fault_crash_as(graph::node_id u, state_id s);
  /// Revives crashed node u in the machine's initial state; the node
  /// re-enters the current round's configuration (it beeps this round
  /// iff its new state beeps). Throws std::logic_error if u is alive.
  void fault_restart(graph::node_id u);
  /// Revives crashed node u in state `s` (corrupt rejoin).
  void fault_restart_as(graph::node_id u, state_id s);
  /// Drops the whole crashed set: every corpse resumes from its frozen
  /// state next round. Also called by restart_from_protocol - a fresh
  /// configuration starts all-alive.
  void clear_faults() noexcept;

  [[nodiscard]] bool crashed(graph::node_id u) const noexcept {
    return crashed_count_ != 0 &&
           ((crashed_words_[u >> 6] >> (u & 63)) & 1ULL) != 0;
  }
  [[nodiscard]] std::size_t crashed_count() const noexcept {
    return crashed_count_;
  }
  /// leader_count() minus leaders frozen inside the crashed set - the
  /// convergence predicate under faults (a dead leader leads nobody).
  [[nodiscard]] std::size_t alive_leader_count() const noexcept {
    return leader_count_ - crashed_leaders_;
  }

  /// Attaches a dynamic-topology patch overlay (nullptr detaches): the
  /// heard-gather applies the overlay's exact per-touched-node fix
  /// after every base kernel, and step_reference scans patched
  /// neighborhoods - both compute the same heard set, on explicit and
  /// implicit views alike. The overlay must outlive the engine (or be
  /// detached first) and is *kept across restart_from_protocol*, like
  /// a forced kernel: it is configuration, not run state. Throws
  /// std::invalid_argument on a node-count mismatch.
  void set_topology_patch(const graph::patch_overlay* patch);
  [[nodiscard]] const graph::patch_overlay* topology_patch() const noexcept {
    return patch_;
  }

  /// Adversary scheduler hook: runs every round after the gather and
  /// the noise model, observing the packed beep set (read-only) and
  /// rewriting the packed heard set in place - the adversary's final
  /// say on who perceives a beep, except that crashed nodes are masked
  /// deaf *after* the hook (it cannot wake the dead). The hook must
  /// not touch engine RNG streams; any randomness it needs comes from
  /// its own captured generator (core::adversary bundles strategies).
  /// An empty hook is bit-identical to no hook.
  using heard_hook =
      std::function<void(std::uint64_t round, std::span<const std::uint64_t> beep,
                         std::span<std::uint64_t> heard)>;
  void set_heard_hook(heard_hook hook) { heard_hook_ = std::move(hook); }
  [[nodiscard]] bool heard_hook_attached() const noexcept {
    return static_cast<bool>(heard_hook_);
  }

  /// Runs exactly `count` rounds.
  void run_rounds(std::uint64_t count);

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  /// The bound topology view (explicit_graph() is null for implicit
  /// topologies - giant trials never materialize adjacency).
  [[nodiscard]] const graph::topology_view& view() const noexcept {
    return view_;
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] protocol& proto() noexcept { return *proto_; }
  [[nodiscard]] const protocol& proto() const noexcept { return *proto_; }

  /// Number of nodes currently in a leader state.
  [[nodiscard]] std::size_t leader_count() const noexcept {
    return leader_count_;
  }
  /// The unique alive leader if alive_leader_count()==1 (corpses frozen
  /// in a leader state are skipped); node_count() otherwise. With no
  /// crashed node this is the unique leader of leader_count()==1.
  [[nodiscard]] graph::node_id sole_leader() const;

  /// Whether u beeps in the current round (u in B_t).
  [[nodiscard]] bool beeping(graph::node_id u) const {
    return (beep_words_[u >> 6] >> (u & 63)) & 1ULL;
  }
  /// Packed beep set: bit u of word u/64 is set iff u in B_t.
  [[nodiscard]] std::span<const std::uint64_t> beep_words() const noexcept {
    return beep_words_;
  }
  /// Packed leader set: bit u of word u/64 is set iff u is in a leader
  /// state. Current in every gear.
  [[nodiscard]] std::span<const std::uint64_t> leader_words() const noexcept {
    return leader_words_;
  }
  /// Writes into `out` (word_count words) the packed set of nodes whose
  /// state id s has bit s set in `state_mask` - decoded from the planes
  /// in plane rounds, read off the state vector otherwise. Requires an
  /// fsm_protocol (std::logic_error) and a word-count-sized `out`
  /// (std::invalid_argument).
  void class_words(std::uint64_t state_mask,
                   std::span<std::uint64_t> out) const;

  /// Total fair coins consumed by all nodes so far (Section 1.3: with
  /// p = 1/2 a waiting leader consumes exactly one coin per round).
  [[nodiscard]] std::uint64_t total_coins_consumed() const noexcept;

  /// Per-node generator access (tests use this to couple runs).
  [[nodiscard]] support::rng& node_rng(graph::node_id u) { return rngs_[u]; }

  /// Forces the generic virtual-dispatch path (`enabled == false`) or
  /// re-enables the plane gear (one transpose of the state vector).
  /// Toggling never changes any number - both paths are bit-identical -
  /// only the speed.
  void set_fast_path_enabled(bool enabled);
  /// True iff rounds currently run in the plane gear: the machine is
  /// plane-capable and the fast path has not been disabled.
  [[nodiscard]] bool fast_path_active() const noexcept {
    return fast_enabled_ && plane_capable_;
  }

  /// Pins one heard-gather kernel (graph::gather_kernel::auto_select
  /// restores the default topology-tag + density dispatch). All
  /// kernels compute the same heard set, so this never changes a
  /// number - it exists for debugging and differential tests. Throws
  /// std::invalid_argument when the kernel cannot serve this graph
  /// (stencil without a topology tag, word-CSR kernels on an implicit
  /// view).
  void set_gather_kernel(graph::gather_kernel kernel) {
    gather_.force_kernel(kernel);
  }
  /// The kernel the most recent gather actually ran.
  [[nodiscard]] graph::gather_kernel gather_kernel_used() const noexcept {
    return gather_.last_used();
  }

  /// Tiled intra-trial parallelism: rounds split the packed word range
  /// into tiles of `tile_words` words executed by `threads` workers
  /// (1 = serial, the default; 0 = one per hardware thread).
  /// tile_words == 0 picks support::kL2TileWords (8192 words), so an
  /// engine under 8192 words (fewer than 524288 nodes) runs one tile,
  /// inline and serial, whatever `threads` is; pass a smaller
  /// tile_words to split such an engine across the workers. Applies
  /// to the stencil gather, the reception-noise pass and the plane
  /// sweep (the word-CSR push and the pulls run serially); never
  /// changes any number - every (threads, tile_words) point is
  /// draw-for-draw bit-identical to the serial engine, lazy-cursor
  /// giant engines included. Callable between rounds at any time.
  void set_parallelism(std::size_t threads, std::size_t tile_words = 0);
  [[nodiscard]] std::size_t parallel_threads() const noexcept {
    return exec_ ? exec_->thread_count() : 1;
  }
  /// The tile size rounds actually run with (kL2TileWords when
  /// set_parallelism was handed 0).
  [[nodiscard]] std::size_t tile_words() const noexcept {
    return tile_words_;
  }

  /// True iff the machine is eligible for the word-parallel plane gear
  /// (beeping::plane_capable: compiled table, <= 256 states,
  /// little-endian host).
  [[nodiscard]] bool plane_capable() const noexcept { return plane_capable_; }
  /// Rounds executed by the plane gear so far (introspection for tests
  /// and benchmarks; a plane-capable engine with the fast path on
  /// reports every round here).
  [[nodiscard]] std::uint64_t plane_rounds() const noexcept {
    return plane_rounds_;
  }

  /// Disables (or re-enables) the beepc-compiled round kernel; plane
  /// rounds then run the interpreted sweep. Toggling never changes a
  /// number - compiled kernels are draw-for-draw bit-identical to the
  /// interpreted gear - only the speed.
  void set_compiled_kernel_enabled(bool enabled) noexcept {
    compiled_enabled_ = enabled;
    bind_plane_round();
  }
  /// True iff plane rounds currently dispatch to a compiled kernel: the
  /// bound table's structure matched a registered kernel and the kernel
  /// has not been disabled.
  [[nodiscard]] bool compiled_kernel_active() const noexcept {
    return compiled_kernel_ != nullptr && compiled_enabled_;
  }
  /// Name of the matched compiled kernel ("" when none matched).
  [[nodiscard]] std::string compiled_kernel_name() const {
    return compiled_kernel_ != nullptr ? compiled_kernel_->name
                                       : std::string{};
  }
  /// Plane rounds executed through a compiled kernel so far.
  [[nodiscard]] std::uint64_t compiled_rounds() const noexcept {
    return compiled_rounds_;
  }

  /// Telemetry: engine-local probe toggle, ANDed with the global
  /// support::telemetry switches. Both are read once per step()/run_*
  /// call (as is the sample stride), so a change takes effect at the
  /// next call, not in the middle of a run. Probes never read RNG
  /// streams or alter iteration order, so toggling never changes a
  /// number.
  void set_telemetry_enabled(bool enabled) noexcept {
    telemetry_enabled_ = enabled;
  }
  [[nodiscard]] bool telemetry_enabled() const noexcept {
    return telemetry_enabled_;
  }
  /// Snapshot of the per-engine probe scratch with tile-claim totals
  /// and materialization counts folded in. The gear counters
  /// (rounds_plane_compiled / _interpreted / rounds_virtual) are
  /// derived here from compiled_rounds(), plane_rounds() and the rounds
  /// this engine ran - no round bumps them - and read zero while the
  /// engine-local toggle is off. Callers hand this to
  /// support::telemetry::fold_engine_metrics at trial boundaries.
  [[nodiscard]] support::telemetry::engine_metrics telemetry_metrics() const;

  // --- streaming checkpoint surface (plane-gear engines) -----------

  /// Everything a single-trial checkpoint must capture besides the RNG
  /// cursors: mutable word spans over the live plane-mode buffers (a
  /// writer serializes them in this section order; a resume decodes
  /// straight into them) plus the scalar round bookkeeping. Requires
  /// the plane gear (std::logic_error otherwise - the planes are only
  /// authoritative there).
  struct plane_state {
    std::size_t plane_count = 0;
    std::array<std::span<std::uint64_t>, max_planes> planes;
    std::span<std::uint64_t> beep;
    std::span<std::uint64_t> active;
    std::span<std::uint64_t> leader;
    // Shim, always empty: perfbench's codec probe still reads these two
    // members. Drop them with the next change to perfbench.
    std::array<std::span<std::uint64_t>, 8> ledger;
    std::span<std::uint64_t> dirty;
    std::uint64_t round = 0;
    std::size_t leaders = 0;
  };
  [[nodiscard]] plane_state plane_snapshot();

  /// Adopts buffer contents a resume decoded into plane_snapshot()
  /// spans, plus the scalar bookkeeping, as the current configuration.
  /// The protocol's state cache is marked stale (the planes stay
  /// authoritative). Requires the plane gear.
  void adopt_plane_state(std::uint64_t round, std::size_t leaders);

  /// The per-node generator store (giant runners save/restore its draw
  /// cursors alongside the planes).
  [[nodiscard]] support::rng_store& rng_streams() noexcept { return rngs_; }

  /// Address space held by the engine's plane arena - the RSS bill of
  /// a giant trial up to the cursor array.
  [[nodiscard]] std::size_t arena_bytes_reserved() const noexcept {
    return arena_.bytes_reserved();
  }

 private:
  friend struct round_view;  // the pulls read the states

  /// What a run can change only between calls, read once per
  /// step()/run_rounds()/run_until_single_leader() call.
  struct call_knobs {
    bool plane = false;   // fast_path_active()
    bool tel_on = false;  // compiled in, engine toggle and global switch
    std::uint64_t stride = 0;  // sample stride; 0 = no sampled round
    // The next sampled round (round % stride == 0), advanced by
    // run_round - no per-round division.
    std::uint64_t next_sample = ~std::uint64_t{0};
    bool noise = false;
    bool hook = false;
    bool crashed = false;
    bool patch = false;
    bool observers = false;
  };
  [[nodiscard]] call_knobs read_call_knobs() const;
  /// The round body (t -> t+1) shared by step() and the run loops.
  void run_round(call_knobs& knobs);
  /// Rebinds plane_ctx_ and sweep_ (no-op unless plane-capable).
  void bind_plane_round() noexcept;
  /// The plane sweep over word-range tiles plus its slot fold; returns
  /// the leader count.
  [[nodiscard]] std::size_t sweep_tiled();
  void refresh_round_state();
  void apply_noise();
  /// The virtual gear's transition and bookkeeping, shared by the
  /// round body and step_reference().
  void finish_step();
  /// Transposes the protocol's (fresh) state vector into the planes and
  /// rebuilds the beep, leader and active words and the leader count;
  /// crashed lanes stay silent.
  void enter_plane_mode();
  /// Bind-time entry: seeds the planes and the beep/active/leader sets
  /// straight from the machine's initial state - all-equal lanes, so
  /// this is O(words), never O(n).
  void enter_plane_mode_initial();
  /// fsm_protocol::lazy_source: unpacks the authoritative planes into
  /// the protocol's state vector (SWAR bit-to-byte transpose) - the
  /// on-demand replacement for the deleted per-round write-back.
  void materialize_states(std::span<state_id> out) override;
  void notify_round_observers();
  void check_in_sync() const;
  // --- fault-surface internals -------------------------------------
  /// Throws std::logic_error unless faults can serve this binding.
  void require_fault_capable() const;
  /// Lazily sizes the crashed set and frozen snapshots (first fault).
  void ensure_fault_buffers();
  /// Node u's state in the authoritative representation (planes in
  /// the plane gear, the FSM vector otherwise).
  [[nodiscard]] state_id current_state_of(graph::node_id u);
  /// Shared body of fault_crash/fault_crash_as.
  void crash_with_state(graph::node_id u, state_id s);
  /// Writes state `s` into node u's lane of the authoritative
  /// representation, maintaining leader_count_, leader/active lanes
  /// and (when `frozen`) the frozen snapshots. Does not touch beep
  /// bits - callers handle the current round's beep contribution.
  void write_lane_state(graph::node_id u, state_id s, bool frozen);
  /// Rolls every crashed lane of the state vector back to its frozen
  /// state after a virtual-gear transition, before the refresh.
  void restore_crashed_states();
  /// Same for a plane-gear round: plane/leader/active lanes restored
  /// from the frozen words, beep bits cleared.
  void fixup_crashed_plane();
  /// Re-snapshots every crashed node's frozen state from the (new)
  /// protocol configuration - resync_with_protocol keeps corpses
  /// crashed, frozen in whatever the injected configuration says.
  void refreeze_crashed();
  /// Masks crashed nodes out of the heard set (dead nodes are deaf).
  void mask_crashed_heard();
  [[nodiscard]] round_view make_view() const;

  graph::topology_view view_;
  std::size_t n_ = 0;
  protocol* proto_;
  // config_.giant_mode: lazy cursors, never materialize the state
  // vector.
  engine_config config_;
  // Non-null iff the bound protocol is an fsm_protocol; paired with a
  // plane-capable compiled table this enables the plane gear.
  fsm_protocol* fsm_ = nullptr;
  std::optional<machine_table> table_;
  bool fast_enabled_ = true;
  std::uint64_t synced_version_ = 0;  // fsm_->config_version() last synced
  // Owns every packed word array below (planes, beep/heard/active/
  // leader sets) - heap blocks for small engines,
  // mmap chunks with huge pages and first-touch commit for giant ones.
  // Declared before the buffers it backs.
  support::plane_arena arena_;
  // mutable: total_coins_consumed() is const but the lazy store folds
  // its scratch cursor back on read.
  mutable support::rng_store rngs_;
  std::vector<support::rng> noise_rngs_;  // empty unless noise enabled
  noise_model noise_;
  support::word_buffer beep_words_;   // packed B_t
  support::word_buffer heard_words_;  // packed delta_top set
  // The heard-gather kernels (word-CSR, stencil masks) behind the
  // per-round dispatch; owns no graph state beyond the stencil masks.
  graph::heard_gather gather_;
  // Intra-trial tiling (set_parallelism): null = serial rounds. The
  // executor is shared with gather_; slot_* are per-worker partials
  // merged after each tiled sweep (order-independent folds only).
  std::unique_ptr<support::tile_executor> exec_;
  std::size_t tile_words_ = 0;
  std::vector<std::size_t> slot_leaders_;  // empty while serial
  // Plane gear only: bit u set iff the bot row of u's current state is
  // not a draw-free self-loop - i.e. u can change state (or consume a
  // draw) even in a silent round. The plane sweep skips words with no
  // heard or active lane.
  support::word_buffer active_words_;
  // Packed leader set, kept current by every gear: the refresh, the
  // plane sweep and the crash fix-ups all write it. Plane rounds skip
  // quiet words, which keep their (unchanged) leader lanes; observers
  // read it through round_view::leader_words.
  support::word_buffer leader_words_;
  // Plane gear (machines with <= 256 states): bit j of node u's state
  // id lives in planes_[j]; authoritative while fast_path_active() -
  // the protocol's state vector is then a cache, stale after every
  // plane round until the next outside read unpacks it.
  std::array<support::word_buffer, max_planes> planes_;
  // Plane count and bit-sliced-counter runs of the bound table
  // (make_plane_plan); empty unless plane-capable.
  plane_plan plan_;
  bool plane_capable_ = false;
  std::uint64_t plane_rounds_ = 0;
  // Bind-time structure match against the beepc kernel registry;
  // nullptr = no compiled kernel for this machine (interpreted gear
  // only). The registry owns the descriptor; addresses are stable.
  const compiled_kernel* compiled_kernel_ = nullptr;
  bool compiled_enabled_ = true;
  std::uint64_t compiled_rounds_ = 0;
  std::uint64_t tail_mask_ = ~0ULL;  // valid bits of the last word
  // The bound plane round (bind_plane_round): the context every sweep
  // reads, its plane pointer array, and the sweep entry point. Valid
  // while plane-capable; the engine is neither copyable nor movable, so
  // the self-pointers stay put.
  std::array<std::uint64_t*, max_planes> plane_ptrs_{};
  plane_ctx plane_ctx_;
  sweep_fn sweep_ = nullptr;
  bool sweep_compiled_ = false;
  std::vector<observer*> observers_;
  std::uint64_t round_ = 0;
  // round_ where this engine's own rounds began (adopt_plane_state
  // moves it): the derived gear counters count round_ - round_base_.
  std::uint64_t round_base_ = 0;
  std::size_t leader_count_ = 0;
  // Fault surface: packed crashed set + per-node frozen snapshots
  // (states always; plane/leader/active lane words when plane-capable,
  // so the plane epilogue restores lanes with pure word ops). All
  // empty until the first fault - a fault-free engine pays one
  // crashed_count_ branch per round.
  std::vector<std::uint64_t> crashed_words_;
  std::size_t crashed_count_ = 0;
  std::size_t crashed_leaders_ = 0;
  std::vector<state_id> frozen_states_;
  std::array<std::vector<std::uint64_t>, max_planes> frozen_planes_;
  std::vector<std::uint64_t> frozen_leader_words_;
  std::vector<std::uint64_t> frozen_active_words_;
  // Dynamic-topology overlay (shared with gather_) + adversary hook.
  const graph::patch_overlay* patch_ = nullptr;
  heard_hook heard_hook_;
  // Telemetry scratch: plain members, written only by the round body's
  // sampled probes and fault events (never inside the tiled word
  // loops), folded into the global registry at trial boundaries. Dead
  // weight when BEEPKIT_TELEMETRY is OFF.
  support::telemetry::engine_metrics metrics_;
  bool telemetry_enabled_ = true;
};

}  // namespace beepkit::beeping
