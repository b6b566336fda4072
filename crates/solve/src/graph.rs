//! Layer 1: the reachability graph of a [`SanModel`].
//!
//! Explores every marking reachable from the model's initial marking.
//! Markings in which an instantaneous activity is enabled ("vanishing"
//! markings) are never materialised as states: they are eliminated on
//! the fly by recursively distributing their probability mass over the
//! instantaneous choices (highest priority first, weight-proportional
//! within a priority level, then case probabilities) until only
//! "tangible" markings remain — exactly the race the simulator resolves
//! by sampling, resolved here in distribution.
//!
//! # Phase-type expansion
//!
//! With [`ReachOptions::ph_order`] ≥ 1, non-exponential timed activities
//! no longer poison the analytic path: each one is replaced by its
//! [`PhaseType`] fit (hyper-Erlang, matched moments — see
//! `ctsim_stoch::phase`), and the state vector gains one *phase counter*
//! per expanded activity, appended after the place markings. A counter
//! is `0` while its activity is disabled; on enabling it jumps to the
//! first stage of a probabilistically chosen branch (the PH initial
//! distribution — a branching of the state like a vanishing
//! resolution), then walks through the branch's exponential stages.
//! Completing the last stage fires the activity's cases exactly like a
//! native exponential completion. Counters mirror the simulator's
//! "restart" reactivation policy, judged at tangible markings: an
//! activity continuously enabled across a completion keeps its phase
//! (its sampled clock keeps running), one that is disabled resets to 0
//! and re-enters afresh when next enabled.
//!
//! Everything downstream is unchanged: the expanded graph is still a
//! CTMC, each [`Transition`] carrying the exponential stage `rate` and
//! its branching `prob` separately; the generator contribution is
//! their product ([`Transition::q`]). Keeping the base rate pure lets
//! [`StateSpace::rebuild_rates`] rewrite rates in place when only the
//! model's timing parameters change between solves.
//!
//! # Compact state encoding
//!
//! States are stored bit-packed: the extended token vector (places,
//! then phase counters) is encoded into a few `u64` words by
//! `pack::StateLayout` — phase fields at their
//! statically known width, place fields on an adaptive width ladder
//! that restarts the exploration wider on overflow. The n = 3 order-2
//! consensus state (403 fields: 289 places, 114 phase counters) packs
//! into 22 words (176 bytes) instead of a 1,612-byte `u32` payload plus
//! header, roughly a 9× cut in per-state memory; packed words are also
//! what the intern table hashes and compares.
//!
//! # Work proportional to what a transition changes
//!
//! A transition changes a handful of a state's fields, so expanding a
//! state avoids work that scales with the state width. The places a
//! successor may differ in are known for free: a [`Marking`] logs every
//! place its firings write, so each marking reached from a tangible
//! source carries the set of places written since that source.
//!
//! * The vanishing scan checks only the instantaneous activities that
//!   [depend](SanModel::dependents) on a written place — no other can
//!   be enabled, given complete gate `reads` declarations (asserted in
//!   debug builds).
//! * Phase counters are decided only for the completed activity and
//!   the expanded activities depending on a written place; every other
//!   counter is copied from the source.
//! * Successor keys are the source's packed key with only the written
//!   places and decided counters patched in (`StateLayout::patch`,
//!   which fails exactly where a full encode would overflow).
//! * The absorbing verdict is evaluated once per outcome marking and
//!   carried to the dedup sink.
//! * [`StateSpace::rebuild_rates`] reads single phase fields instead
//!   of decoding whole states.
//!
//! Candidates are visited in declaration order and patched keys equal
//! full encodes, so none of this changes a result bit.
//!
//! # Concurrent exploration, streamed assembly
//!
//! One driver (`StateSpace::explore_attempt`) runs every exploration: a
//! level-synchronous breadth-first sweep fanned out across
//! [`ReachOptions::threads`] workers. Only the duplicate test is
//! pluggable (the `Dedup` engine). The resident engine has workers
//! intern newly discovered states **directly** into a sharded lock-free
//! state table (`intern::Interner`) while expanding, so no serial merge
//! phase caps the speedup. The external engine (`crate::ddd`) collects
//! per-worker candidates and resolves them against sorted on-disk runs
//! at the level boundary.
//!
//! Transitions never touch the heap per state: each worker appends the
//! rows it generates into its own chain of fixed-capacity segments
//! (`WorkerChain`), and when a level finishes it is renumbered and
//! **streamed** into the final flat arena (`arena::SegStore`) — and,
//! through [`StateSpace::explore_ctmc`], straight into the CSR
//! generator — *while the workers already expand the next level*.
//! Assembly is a per-level permutation into contiguous storage. With
//! [`ReachOptions::spill`] set, cold arena segments additionally page
//! out to a temp file under a RAM budget, which is what lets spaces
//! larger than memory explore.
//!
//! The price of concurrent interning is that state ids become
//! race-ordered ("provisional"); determinism is restored by a
//! canonical renumbering applied level by level (the external engine
//! assigns the same canonical ids directly):
//!
//! 1. The reachable state *set*, every state's successor distribution,
//!    and every state's BFS level (its distance from the initial
//!    states) are functions of the model alone — no interleaving can
//!    change them.
//! 2. States are renumbered by `(BFS level, packed key)` — a total
//!    order with no reference to discovery order. A level's membership
//!    is fixed the moment the previous level has been fully expanded,
//!    so the renumbering (and everything downstream of it) can run
//!    level-by-level behind the exploration front.
//! 3. Per-source transition lists are computed sequentially inside one
//!    worker each; after retargeting to canonical ids they are sorted
//!    with a deterministic comparator and duplicate targets are merged
//!    by summing in that sorted order, so even the floating-point
//!    accumulation order is fixed.
//!
//! The resulting state numbering, transition lists, and CSR generator
//! are therefore byte-identical for every thread count — property-
//! tested at 1/2/4/8/16 threads. (When exploration *fails*, the error
//! value can depend on which worker tripped first; only results are
//! guaranteed deterministic, not the identity of racing errors.)

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ctsim_san::{ActivityId, Marking, SanModel, Timing};
use ctsim_stoch::{Dist, PhaseType};

use crate::arena::{RowLoc, RowRef, SegStore};
use crate::ctmc::{Ctmc, CtmcAcc};
use crate::ddd::{resolve_level, CandSet, DedupSink, Frontier, LevelResolution, VisitedRuns};
use crate::intern::Interner;
use crate::pack::StateLayout;
use crate::spill::{DedupMode, SpillOptions, SpillRecord, SpillShared};
use crate::SolveError;

/// Exploration limits and expansion/parallelism knobs.
#[derive(Debug, Clone)]
pub struct ReachOptions {
    /// Abort with [`SolveError::StateSpaceTooLarge`] beyond this many
    /// tangible states.
    pub max_states: usize,
    /// Abort with [`SolveError::VanishingLoop`] when a chain of
    /// instantaneous firings exceeds this depth (two instantaneous
    /// activities feeding each other tokens, the analytic analogue of
    /// the simulator's instantaneous-livelock guard).
    pub max_vanishing_depth: usize,
    /// Phase-type expansion order for non-exponential timed activities:
    /// the per-branch stage budget handed to [`PhaseType::fit`]. `0`
    /// (the default) disables expansion, restoring the strict behaviour
    /// where any reachable non-exponential activity makes the CTMC
    /// build fail with [`SolveError::NonMarkovian`].
    pub ph_order: u32,
    /// Worker threads for the exploration (`0` = one per available
    /// core, `1` = in-place sequential). The result is identical — to
    /// the byte — for every value; this is purely a wall-clock knob.
    pub threads: usize,
    /// Page cold transition/state segments to a temp file under this
    /// RAM budget (see [`SpillOptions`]). `None` (the default) keeps
    /// everything resident. Results are identical — to the byte — with
    /// spill on or off; this trades wall-clock for peak memory on
    /// spaces that do not fit in RAM.
    pub spill: Option<SpillOptions>,
}

impl Default for ReachOptions {
    fn default() -> Self {
        Self {
            max_states: 1 << 20,
            max_vanishing_depth: 4096,
            ph_order: 0,
            threads: 1,
            spill: None,
        }
    }
}

/// One probabilistic transition of the reachability graph: completing
/// `activity` (or, for expanded activities, one exponential stage of
/// it) in the source state leads to tangible state `target` with
/// probability `prob` (case probability × vanishing-path probability ×
/// phase-entry probability; the `prob`s of one activity in one source
/// state sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// The timed activity whose (stage) completion triggers the move.
    pub activity: ActivityId,
    /// Branching probability of this particular outcome.
    pub prob: f64,
    /// Exponential event rate (1/ms) of the stage whose completion
    /// drives this move: the phase-stage rate for expanded activities,
    /// `1/mean` for native exponentials. The generator-matrix
    /// contribution is `rate * prob` ([`Transition::q`]). `NaN` when
    /// the source activity is non-exponential and expansion is
    /// disabled — the CTMC build turns that into
    /// [`SolveError::NonMarkovian`].
    pub rate: f64,
    /// Whether this move completes the activity (fires its cases).
    /// `false` only for internal phase advances of expanded activities
    /// — impulse rewards must ignore those.
    pub completes: bool,
    /// Index of the destination state.
    pub target: usize,
}

impl Transition {
    /// Generator-matrix contribution of this transition (1/ms): the
    /// exponential stage rate weighted by the branching probability.
    #[inline]
    pub fn q(&self) -> f64 {
        self.rate * self.prob
    }
}

impl SpillRecord for Transition {
    // prob f64 + rate f64 + target u32 + activity u32 + completes u8.
    const BYTES: usize = 25;

    fn store(&self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.prob.to_le_bytes());
        out[8..16].copy_from_slice(&self.rate.to_le_bytes());
        out[16..20].copy_from_slice(&(self.target as u32).to_le_bytes());
        out[20..24].copy_from_slice(&(self.activity.index() as u32).to_le_bytes());
        out[24] = u8::from(self.completes);
    }

    fn load(bytes: &[u8]) -> Self {
        let f = |r: std::ops::Range<usize>| f64::from_le_bytes(bytes[r].try_into().expect("8B"));
        let u = |r: std::ops::Range<usize>| u32::from_le_bytes(bytes[r].try_into().expect("4B"));
        Self {
            prob: f(0..8),
            rate: f(8..16),
            target: u(16..20) as usize,
            activity: ActivityId::from_index(u(20..24) as usize),
            completes: bytes[24] != 0,
        }
    }
}

/// The tangible reachable state space of a model.
///
/// With phase-type expansion active, each state vector is the flat
/// place marking followed by one phase counter per expanded activity;
/// [`StateSpace::marking`] exposes only the place prefix. States are
/// stored bit-packed ([`StateSpace::packed_state`]); decode one with
/// [`StateSpace::tokens`].
///
/// State numbering is canonical — BFS level first, packed key within a
/// level — and identical for every [`ReachOptions::threads`] value.
pub struct StateSpace<'m> {
    model: &'m SanModel,
    /// Number of places — the length of the marking prefix of each
    /// state vector.
    base: usize,
    /// Number of appended phase counters (0 without expansion).
    pub phase_slots: usize,
    /// The bit layout shared by all packed states.
    layout: StateLayout,
    /// Canonically ordered packed states — either a spillable copy or
    /// a zero-copy view into the intern arena.
    packed: PackedStates,
    /// The flat transition arena: every state's merged outgoing
    /// transitions, canonical order, each row one contiguous slice.
    trans: SegStore<Transition>,
    /// Per-state row location in `trans` (empty row for absorbing
    /// states).
    row_locs: Vec<RowLoc>,
    /// Total transitions across all rows.
    total_trans: usize,
    /// Initial probability distribution over tangible states (the
    /// initial marking's vanishing chain may branch probabilistically,
    /// as may phase entry).
    pub initial: Vec<(usize, f64)>,
    /// Marks states at which the absorbing predicate held (if one was
    /// given); their outgoing transitions are suppressed.
    pub absorbing: Vec<bool>,
    /// The expansion order this space was explored at
    /// ([`ReachOptions::ph_order`]).
    ph_order: u32,
    /// Structural fingerprint of the expansion — what
    /// [`StateSpace::rebuild_rates`] validates against.
    shape: ExpansionShape,
}

impl std::fmt::Debug for StateSpace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateSpace")
            .field("model", &self.model.name())
            .field("states", &self.len())
            .field("phase_slots", &self.phase_slots)
            .field("words_per_state", &self.layout.words())
            .field("transitions", &self.total_trans)
            .finish()
    }
}

/// How an expanded activity's phase counter steps through its branches:
/// phases are numbered `1..=num_phases`, branches laid out
/// consecutively.
struct PhasePlan {
    /// Stage rate per phase (index `phase - 1`), 1/ms.
    rates: Vec<f64>,
    /// Whether the phase is the last stage of its branch.
    last: Vec<bool>,
    /// Entry distribution: `(first phase of branch, probability)`.
    starts: Vec<(u32, f64)>,
}

impl PhasePlan {
    fn new(ph: &PhaseType) -> Self {
        let mut rates = Vec::new();
        let mut last = Vec::new();
        let mut starts = Vec::new();
        let mut off = 0u32;
        for b in ph.branches() {
            if b.prob > 0.0 {
                starts.push((off + 1, b.prob));
            }
            for s in 0..b.stages {
                rates.push(b.rate);
                last.push(s + 1 == b.stages);
            }
            off += b.stages;
        }
        Self {
            rates,
            last,
            starts,
        }
    }
}

/// The per-model phase-type expansion: which timed activities are
/// expanded and which phase-counter slot each one owns.
struct Expansion {
    /// Per activity index: the phase plan, if expanded.
    plans: Vec<Option<PhasePlan>>,
    /// Per activity index: absolute slot in the state vector
    /// (`usize::MAX` when not expanded).
    slots: Vec<usize>,
    /// `(activity index, slot)` of every expanded activity, slot order.
    expanded: Vec<(ActivityId, usize)>,
}

impl Expansion {
    fn build(model: &SanModel, ph_order: u32) -> Result<Self, SolveError> {
        let n = model.num_activities();
        let base = model.num_places();
        let mut plans: Vec<Option<PhasePlan>> = (0..n).map(|_| None).collect();
        let mut slots = vec![usize::MAX; n];
        let mut expanded = Vec::new();
        if ph_order >= 1 {
            // Models reuse a handful of distributions across many
            // activities (every CPU stage shares one Det, every lane
            // one bimodal), so memoise the moment-matching fit.
            let mut fits: Vec<(&Dist, PhaseType)> = Vec::new();
            for a in model.activity_ids() {
                let Timing::Timed(dist) = model.timing(a) else {
                    continue;
                };
                if matches!(dist, Dist::Exp { .. }) {
                    continue;
                }
                let mean = dist.mean();
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(SolveError::PhaseUnfittable {
                        activity: model.activity_name(a).to_string(),
                    });
                }
                let fit = match fits.iter().find(|(d, _)| *d == dist) {
                    Some((_, f)) => f.clone(),
                    None => {
                        let f = PhaseType::fit(dist, ph_order);
                        fits.push((dist, f.clone()));
                        f
                    }
                };
                let slot = base + expanded.len();
                plans[a.index()] = Some(PhasePlan::new(&fit));
                slots[a.index()] = slot;
                expanded.push((a, slot));
            }
        }
        Ok(Self {
            plans,
            slots,
            expanded,
        })
    }

    fn num_slots(&self) -> usize {
        self.expanded.len()
    }

    /// Largest phase-counter value of each expanded activity, slot
    /// order — the static field bounds of the packed layout.
    fn phase_maxes(&self) -> Vec<u32> {
        self.expanded
            .iter()
            .map(|&(a, _)| {
                self.plans[a.index()]
                    .as_ref()
                    .expect("expanded activity has a plan")
                    .rates
                    .len() as u32
            })
            .collect()
    }

    /// The rate-independent fingerprint of this expansion.
    fn shape(&self, model: &SanModel) -> ExpansionShape {
        ExpansionShape {
            places: model.num_places(),
            activities: model.num_activities(),
            slots: self
                .expanded
                .iter()
                .map(|&(a, _)| {
                    let plan = self.plans[a.index()]
                        .as_ref()
                        .expect("expanded activity has a plan");
                    (
                        a.index(),
                        plan.last.clone(),
                        plan.starts
                            .iter()
                            .map(|&(ph, p)| (ph, p.to_bits()))
                            .collect(),
                    )
                })
                .collect(),
        }
    }
}

/// Rate-independent fingerprint of a model's phase-type expansion —
/// everything about the expansion that determines the *structure* of
/// the expanded reachability graph. Two models whose nets are identical
/// and whose expansions have equal shapes at the same order explore
/// identical graphs (same states, same CSR sparsity) differing only in
/// transition rates; [`StateSpace::rebuild_rates`] insists on shape
/// equality before rewriting rates in place. Branch probabilities enter
/// exploration verbatim, so bit equality is the right comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExpansionShape {
    /// Number of places.
    places: usize,
    /// Number of activities.
    activities: usize,
    /// Per expanded activity in slot order.
    slots: Vec<SlotShape>,
}

/// Shape of one expanded-activity slot: `(activity index, per-phase
/// last-stage flags, entry distribution as (phase, prob bits))`.
type SlotShape = (usize, Vec<bool>, Vec<(u32, u64)>);

/// Why an exploration attempt stopped: a packed field overflowed (retry
/// with wider place fields), the resident intern table outgrew its
/// share of the spill budget (restart in external-memory dedup mode),
/// or a real solver error.
enum Abort {
    Pack,
    Ddd,
    Solve(SolveError),
}

impl From<SolveError> for Abort {
    fn from(e: SolveError) -> Self {
        Abort::Solve(e)
    }
}

/// Minimum frontier size before spawning worker threads.
const PARALLEL_THRESHOLD: usize = 32;

/// Bounds on the adaptive claim granule: frontier states claimed per
/// worker `fetch_add`. The granule scales with the level size (about
/// 1/16th of a worker's fair share) so big levels amortise the shared
/// cursor while a straggler chunk still cannot serialise a level.
const MIN_CLAIM: usize = 64;
const MAX_CLAIM: usize = 8192;

/// Transitions per worker-local chain segment (see [`WorkerChain`]).
const CHAIN_SEG: usize = 1 << 14;

/// Nominal elements per segment of the final transition arena
/// (~1.3 MB of `Transition`s — the spill paging unit).
const TRANS_SEG: usize = 1 << 15;

/// Nominal `u64` words per segment of the packed-state store.
const PACKED_SEG: usize = 1 << 16;

type AbsorbFn<'a> = dyn Fn(&Marking) -> bool + Sync + 'a;

/// Shared read-only context for successor computation.
struct Explorer<'m, 'a> {
    model: &'m SanModel,
    opts: &'a ReachOptions,
    expansion: &'a Expansion,
    absorb: Option<&'a AbsorbFn<'a>>,
    layout: &'a StateLayout,
    base: usize,
    /// Timed activities, declaration order.
    timed: Vec<ActivityId>,
    /// Instantaneous activities with their priority and weight,
    /// declaration order — precomputed so vanishing resolution does
    /// not re-filter the whole activity list per visited marking.
    instantaneous: Vec<(ActivityId, u32, f64)>,
    /// `u64` words per bitmask over places.
    place_words: usize,
    /// Which entries of `instantaneous` depend on each place.
    inst_deps: DepMasks,
    /// Which expanded activities (`Expansion::expanded`, slot order)
    /// depend on each place.
    phase_deps: DepMasks,
}

/// Per place, a bitmask over a list of activities (bit `i` is list
/// entry `i`) of those whose enabling depends on that place — input
/// arcs and declared gate `reads`, as [`SanModel::dependents`] lists
/// them.
struct DepMasks {
    /// List length.
    len: usize,
    /// `u64` words per mask.
    words: usize,
    /// `words` words per place, place order.
    masks: Vec<u64>,
}

impl DepMasks {
    fn new(model: &SanModel, list: impl Iterator<Item = ActivityId>) -> Self {
        let mut index = vec![usize::MAX; model.num_activities()];
        let mut len = 0;
        for a in list {
            index[a.index()] = len;
            len += 1;
        }
        let words = len.div_ceil(64);
        let mut masks = vec![0u64; model.num_places() * words];
        for p in model.place_ids() {
            let mask = &mut masks[p.index() * words..][..words];
            for a in model.dependents(p) {
                let i = index[a.index()];
                if i != usize::MAX {
                    mask[i / 64] |= 1 << (i % 64);
                }
            }
        }
        Self { len, words, masks }
    }

    /// Fills `out` with the list entries whose enabling may have
    /// changed: every entry when `places` is unknown, otherwise those
    /// depending on a place in the bitmask `places`.
    fn of(&self, places: Option<&[u64]>, out: &mut Vec<u64>) {
        out.clear();
        let Some(places) = places else {
            out.extend((0..self.words).map(|w| match self.len - w * 64 {
                r if r >= 64 => u64::MAX,
                r => (1u64 << r) - 1,
            }));
            return;
        };
        out.resize(self.words, 0);
        for p in set_bits(places) {
            for (o, &m) in out
                .iter_mut()
                .zip(&self.masks[p * self.words..][..self.words])
            {
                *o |= m;
            }
        }
    }
}

/// Adds the place indices of a marking's write log to the bitmask
/// `set`.
fn mark_written(set: &mut [u64], written: &[usize]) {
    for &p in written {
        set[p / 64] |= 1 << (p % 64);
    }
}

/// The indices of the set bits of `mask`, ascending.
fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &m)| {
        let mut m = m;
        std::iter::from_fn(move || {
            (m != 0).then(|| {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                w * 64 + b
            })
        })
    })
}

/// Whether bit `i` of `mask` is set (the debug cross-checks).
#[cfg(debug_assertions)]
fn has_bit(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

/// Per-worker reusable buffers. One `Scratch` lives as long as its
/// worker slot — across every BFS level — so the steady-state hot path
/// allocates nothing per state.
struct Scratch {
    /// Packed-key buffer (one state).
    key: Vec<u64>,
    /// The packed key of the source state being expanded (kept intact
    /// so phase-advance successors can be derived by patching it).
    src_key: Vec<u64>,
    /// Decoded extended state vector of the source being expanded.
    ext: Vec<u32>,
    /// The source state's outgoing transitions being generated.
    row: Vec<Transition>,
    /// Tangible outcomes of one case resolution.
    outs: Vec<Outcome>,
    /// Vanishing-resolution output of one case.
    dist: Vec<(Marking, f64)>,
    /// Per `dist` entry, the places written since the source
    /// (`Explorer::place_words` words each).
    dist_written: Vec<u64>,
    /// Recycled extended-state vectors (all `num_fields` long): the
    /// per-outcome buffers live only from `continue_phases` to the
    /// key patch in `completions`, so a small pool removes the last
    /// per-transition allocation of the hot path.
    pool: Vec<Vec<u32>>,
    /// Phase-distribution buffers (`continue_phases`).
    phasing: Phasing,
    /// Vanishing-resolution buffers.
    vanish: Vanish,
    /// Recycled `Marking`s: the expansion materialises a marking per
    /// fired case and per vanishing step — reusing their buffers
    /// removes a few heap allocations per generated transition.
    mpool: Vec<Marking>,
}

impl Scratch {
    fn new(layout: &StateLayout) -> Self {
        Self {
            key: vec![0; layout.words()],
            src_key: vec![0; layout.words()],
            ext: vec![0; layout.num_fields()],
            row: Vec::new(),
            outs: Vec::new(),
            dist: Vec::new(),
            dist_written: Vec::new(),
            pool: Vec::new(),
            phasing: Phasing::default(),
            vanish: Vanish::default(),
            mpool: Vec::new(),
        }
    }
}

/// One tangible outcome of a completion: the successor's extended
/// state vector, its probability, and whether its place marking
/// satisfies the absorbing predicate.
type Outcome = (Vec<u32>, f64, bool);

/// Reusable buffers of `Explorer::continue_phases`.
#[derive(Default)]
struct Phasing {
    /// Branch-split staging buffer.
    split: Vec<(Vec<u32>, f64)>,
    /// The expanded activities whose counters need a decision: a
    /// bitmask over `Expansion::expanded`.
    cand: Vec<u64>,
}

/// Where a tangible outcome of `Explorer::continue_phases` came from.
#[derive(Clone, Copy)]
struct Origin<'s> {
    /// The expanded source state's extended vector.
    ext: &'s [u32],
    /// Bitmask of the places written since the source — a superset of
    /// those whose tokens differ from it.
    written: &'s [u64],
    /// The activity whose completion led here.
    completed: ActivityId,
}

/// Reusable buffers of `Explorer::resolve_vanishing`.
#[derive(Default)]
struct Vanish {
    /// Worklist of `(marking, prob, depth)`.
    work: Vec<(Marking, f64, usize)>,
    /// Per worklist entry, the places written since the tangible source
    /// (`Explorer::place_words` words each): a stack parallel to `work`.
    written: Vec<u64>,
    /// The popped entry's written places.
    cur: Vec<u64>,
    /// Highest-priority enabled instantaneous activities.
    level: Vec<(ActivityId, f64)>,
    /// The instantaneous activities worth checking in the marking at
    /// hand: a bitmask over `Explorer::instantaneous`.
    cand: Vec<u64>,
}

/// Where one provisional state's transition run sits inside one
/// worker's chain.
#[derive(Clone, Copy)]
struct Run {
    prov: u32,
    seg: u32,
    off: u32,
    len: u32,
}

/// A worker's per-level transition storage: fixed-capacity segments
/// appended back to back (no per-state heap allocation, no shared
/// allocator traffic between workers) plus the run index locating each
/// expanded state's row. Chains are recycled level to level through
/// `Assembly::chain_pool` — the emission clears them and hands them
/// back, so the steady state allocates no per-level buffers at all
/// (which also keeps the allocator's resident footprint flat: the old
/// per-level churn left the heap fragmented at peak).
#[derive(Default)]
struct WorkerChain {
    segs: Vec<Vec<Transition>>,
    runs: Vec<Run>,
    /// Index of the segment currently being filled (≤ `segs.len()`).
    cur: usize,
}

impl WorkerChain {
    /// Appends one state's row. Rows never straddle segments; a row
    /// longer than [`CHAIN_SEG`] gets a dedicated oversized segment.
    fn push_row(&mut self, prov: usize, row: &[Transition]) {
        if row.is_empty() {
            return; // an absent run reads back as an empty row
        }
        while self.cur < self.segs.len()
            && self.segs[self.cur].len() + row.len() > self.segs[self.cur].capacity()
        {
            self.cur += 1;
        }
        if self.cur == self.segs.len() {
            self.segs.push(Vec::with_capacity(CHAIN_SEG.max(row.len())));
        }
        let seg = &mut self.segs[self.cur];
        let off = seg.len();
        seg.extend_from_slice(row);
        self.runs.push(Run {
            prov: prov as u32,
            seg: self.cur as u32,
            off: off as u32,
            len: row.len() as u32,
        });
    }

    /// Clears content, keeping every buffer's capacity for reuse.
    fn reset(&mut self) {
        for s in &mut self.segs {
            s.clear();
        }
        self.runs.clear();
        self.cur = 0;
    }
}

impl<'m, 'a> Explorer<'m, 'a> {
    fn new(
        model: &'m SanModel,
        opts: &'a ReachOptions,
        expansion: &'a Expansion,
        absorb: Option<&'a AbsorbFn<'a>>,
        layout: &'a StateLayout,
    ) -> Self {
        let instantaneous: Vec<(ActivityId, u32, f64)> = model
            .activity_ids()
            .filter_map(|a| match *model.timing(a) {
                Timing::Instantaneous { priority, weight } => Some((a, priority, weight)),
                Timing::Timed(_) => None,
            })
            .collect();
        let inst_deps = DepMasks::new(model, instantaneous.iter().map(|&(a, ..)| a));
        let phase_deps = DepMasks::new(model, expansion.expanded.iter().map(|&(a, _)| a));
        Self {
            model,
            opts,
            expansion,
            absorb,
            layout,
            base: model.num_places(),
            place_words: model.num_places().div_ceil(64),
            timed: model
                .activity_ids()
                .filter(|&a| matches!(model.timing(a), Timing::Timed(_)))
                .collect(),
            instantaneous,
            inst_deps,
            phase_deps,
        }
    }

    /// Resolves the initial marking's vanishing chain (and phase
    /// entry) into the extended initial token vectors with their
    /// probabilities and absorbing verdicts — the pre-interning half of
    /// level 0. The initial marking has no tangible source, so its
    /// vanishing scan checks every instantaneous activity.
    fn initial_ext(&self) -> Result<Vec<Outcome>, Abort> {
        let mut init_dist: Vec<(Marking, f64)> = Vec::new();
        self.resolve_vanishing(
            self.model.initial_marking(),
            1.0,
            false,
            &mut init_dist,
            &mut Vec::new(),
            &mut Vanish::default(),
            &mut Vec::new(),
        )?;
        let mut ext: Vec<Outcome> = Vec::new();
        let (mut pool, mut phasing) = (Vec::new(), Phasing::default());
        for (marking, p) in init_dist {
            self.continue_phases(None, &marking, p, &mut ext, &mut pool, &mut phasing);
        }
        Ok(ext)
    }
}

impl Explorer<'_, '_> {
    /// Hands a packed key and its absorbing verdict to the
    /// deduplicator, returning the sink's id for it: the provisional
    /// intern id on the resident path, a worker-local candidate index
    /// on the external-memory one.
    fn intern_key<S: DedupSink>(
        &self,
        sink: &mut S,
        key: &[u64],
        absorbing: bool,
    ) -> Result<usize, Abort> {
        sink.intern_key(key, || absorbing).map_err(|_| {
            Abort::Solve(SolveError::StateSpaceTooLarge {
                limit: self.opts.max_states,
            })
        })
    }

    /// Draws a `num_fields`-long buffer with zeroed phase slots from
    /// the recycle pool (the place prefix is always overwritten by the
    /// caller, so only the suffix needs clearing).
    fn fresh_ext(&self, pool: &mut Vec<Vec<u32>>) -> Vec<u32> {
        match pool.pop() {
            Some(mut v) => {
                v[self.base..].fill(0);
                v
            }
            None => vec![0u32; self.base + self.expansion.num_slots()],
        }
    }

    /// Distributes phase counters over a freshly reached tangible place
    /// marking: kept where an activity other than the completed one
    /// stayed enabled (its clock keeps running), re-entered (branch
    /// split) where an activity is newly enabled or just completed,
    /// zero where disabled. Absorbing markings get all-zero counters —
    /// their future is irrelevant, and canonicalising them merges
    /// states. The absorbing verdict, evaluated here once per marking,
    /// travels with every outcome to the deduplicator.
    ///
    /// Only the completed activity and those that depend on a place
    /// written since the origin are decided: any other one is enabled
    /// exactly when it was in the origin state, i.e. when its old
    /// counter is non-zero (the exploration invariant), so its old
    /// counter — running clock or 0 — is copied as is. Decisions run in
    /// slot order, so branch splits come out in the same order as with
    /// every activity decided. `phasing.cand` is left holding the slots
    /// (bit `i` is slot `base + i`) whose counters may differ from the
    /// origin's.
    ///
    /// Appends its outcomes to `out`, treating `out[start..]` as its
    /// working set so the common single-outcome path allocates nothing
    /// (`phasing.split` is a reused staging buffer for the branch-split
    /// case).
    fn continue_phases(
        &self,
        origin: Option<Origin<'_>>,
        marking: &Marking,
        prob: f64,
        out: &mut Vec<Outcome>,
        pool: &mut Vec<Vec<u32>>,
        phasing: &mut Phasing,
    ) {
        let start = out.len();
        let mut ext = self.fresh_ext(pool);
        ext[..self.base].copy_from_slice(marking.tokens());
        let absorbing = self.absorb.is_some_and(|f| f(marking));
        let Phasing { split, cand } = phasing;
        if absorbing || self.expansion.num_slots() == 0 {
            // Every counter is reset (or there is none).
            self.phase_deps.of(None, cand);
            out.push((ext, prob, absorbing));
            return;
        }
        if let Some(o) = origin {
            ext[self.base..].copy_from_slice(&o.ext[self.base..]);
        }
        out.push((ext, prob, false));
        self.phase_deps.of(origin.map(|o| o.written), cand);
        let completed = origin.map(|o| o.completed);
        if let Some(c) = completed {
            let slot = self.expansion.slots[c.index()];
            if slot != usize::MAX {
                let i = slot - self.base;
                cand[i / 64] |= 1 << (i % 64);
            }
        }
        #[cfg(debug_assertions)]
        if let Some(o) = origin {
            for (i, &(a, slot)) in self.expansion.expanded.iter().enumerate() {
                assert!(
                    has_bit(cand, i) || self.model.is_enabled(a, marking) == (o.ext[slot] >= 1),
                    "timed activity `{}` changed enabling although none of its input \
                     places or declared gate reads changed: an input gate under-declares `reads`",
                    self.model.activity_name(a)
                );
            }
        }
        for i in set_bits(cand) {
            let (a, slot) = self.expansion.expanded[i];
            if !self.model.is_enabled(a, marking) {
                for (e, ..) in &mut out[start..] {
                    e[slot] = 0;
                }
                continue;
            }
            // A non-zero counter in the old state means the activity
            // was enabled there (the exploration invariant), so its
            // clock keeps running — the copied counter stands — unless
            // it is the one that completed.
            if completed != Some(a) && origin.is_some_and(|o| o.ext[slot] >= 1) {
                continue;
            }
            let starts = &self.expansion.plans[a.index()]
                .as_ref()
                .expect("expanded activity has a plan")
                .starts;
            if let [(phase, _)] = starts.as_slice() {
                for (e, ..) in &mut out[start..] {
                    e[slot] = *phase;
                }
                continue;
            }
            // Entry splits over >1 branches: expand every current
            // outcome, preserving the (deterministic) order — per
            // outcome, the non-final branches first, then the final
            // branch reusing the original buffer.
            split.clear();
            split.extend(out.drain(start..).map(|(e, p, _)| (e, p)));
            let (&(last_phase, last_bp), rest) =
                starts.split_last().expect("non-empty entry distribution");
            for (e, p) in split.drain(..) {
                for &(phase, bp) in rest {
                    let mut e2 = self.fresh_ext(pool);
                    e2.copy_from_slice(&e);
                    e2[slot] = phase;
                    out.push((e2, p * bp, false));
                }
                let mut e = e;
                e[slot] = last_phase;
                out.push((e, p * last_bp, false));
            }
        }
    }

    /// Emits the completion outcomes of activity `a` from `ext`, where
    /// `base_rate` is the exponential rate of the completing event.
    /// Transitions are appended to `trans` (the caller's reused row
    /// buffer — `scratch.row`, temporarily taken out of the scratch).
    /// Each target's packed key is the source's (`scratch.src_key`)
    /// with only the places written since the source and the phase
    /// counters `continue_phases` decided patched in — every other
    /// field equals the source's.
    fn completions<S: DedupSink>(
        &self,
        sink: &mut S,
        ext: &[u32],
        a: ActivityId,
        base_rate: f64,
        scratch: &mut Scratch,
        trans: &mut Vec<Transition>,
    ) -> Result<(), Abort> {
        for case in 0..self.model.num_cases(a) {
            let case_p = self.model.case_prob(a, case);
            if case_p <= 0.0 {
                continue;
            }
            let mut after = match scratch.mpool.pop() {
                Some(mut m) => {
                    m.assign(&ext[..self.base]);
                    m
                }
                None => self.model.marking_from(&ext[..self.base]),
            };
            self.model.fire_case(&mut after, a, case);
            let Scratch {
                dist,
                dist_written,
                outs,
                pool,
                phasing,
                key,
                src_key,
                vanish,
                mpool,
                ..
            } = scratch;
            dist.clear();
            dist_written.clear();
            self.resolve_vanishing(after, case_p, true, dist, dist_written, vanish, mpool)?;
            let words = self.place_words;
            for ((marking, p), written) in dist.drain(..).zip(dist_written.chunks_exact(words)) {
                let origin = Origin {
                    ext,
                    written,
                    completed: a,
                };
                outs.clear();
                self.continue_phases(Some(origin), &marking, p, outs, pool, phasing);
                mpool.push(marking);
                for (tokens, p, absorbing) in outs.drain(..) {
                    key.copy_from_slice(src_key);
                    let slots = set_bits(&phasing.cand).map(|i| self.base + i);
                    for f in set_bits(written).chain(slots) {
                        if tokens[f] != ext[f] {
                            self.layout
                                .patch(key, f, tokens[f])
                                .map_err(|_| Abort::Pack)?;
                        }
                    }
                    #[cfg(debug_assertions)]
                    {
                        let mut full = vec![0u64; key.len()];
                        self.layout
                            .encode(&tokens, &mut full)
                            .expect("patched fields fit");
                        assert_eq!(&full[..], &key[..], "patched key differs from encode");
                    }
                    let target = self.intern_key(sink, key, absorbing)?;
                    pool.push(tokens);
                    trans.push(Transition {
                        activity: a,
                        prob: p,
                        rate: base_rate,
                        completes: true,
                        target,
                    });
                }
            }
        }
        Ok(())
    }

    /// Computes every outgoing transition of one tangible state into
    /// `scratch.row`, the source's packed key already in
    /// `scratch.src_key`, interning the targets into `sink` on the fly
    /// — the provisional intern id on the resident path, a worker-local
    /// candidate index on the external-memory one. Both engines run
    /// this exact firing/vanishing/phase code.
    fn successors<S: DedupSink>(&self, sink: &mut S, scratch: &mut Scratch) -> Result<(), Abort> {
        self.layout.decode(&scratch.src_key, &mut scratch.ext);
        let ext = std::mem::take(&mut scratch.ext);
        let mut row = std::mem::take(&mut scratch.row);
        row.clear();
        let result = self.successors_of_ext(sink, &ext, scratch, &mut row);
        scratch.ext = ext;
        scratch.row = row;
        result
    }

    fn successors_of_ext<S: DedupSink>(
        &self,
        sink: &mut S,
        ext: &[u32],
        scratch: &mut Scratch,
        trans: &mut Vec<Transition>,
    ) -> Result<(), Abort> {
        let marking = match scratch.mpool.pop() {
            Some(mut m) => {
                m.assign(&ext[..self.base]);
                m
            }
            None => self.model.marking_from(&ext[..self.base]),
        };
        for &a in &self.timed {
            match &self.expansion.plans[a.index()] {
                Some(plan) => {
                    // An expanded activity's enabledness is already
                    // written in its phase counter (`continue_phases`
                    // sets it non-zero exactly when enabled), so the
                    // marking does not need to be consulted at all.
                    let slot = self.expansion.slots[a.index()];
                    let phase = ext[slot];
                    if phase == 0 {
                        continue;
                    }
                    debug_assert!(
                        self.model.is_enabled(a, &marking),
                        "phase counter out of sync with enabling"
                    );
                    let rate = plan.rates[(phase - 1) as usize];
                    if plan.last[(phase - 1) as usize] {
                        self.completions(sink, ext, a, rate, scratch, trans)?;
                    } else {
                        // Fast path for internal phase advances: the
                        // target's packed key is the source key with
                        // one phase field bumped — no token-vector
                        // materialisation (and phase fields are exactly
                        // sized, so the patch cannot overflow). The
                        // place prefix is unchanged, so the target's
                        // absorbing verdict equals the (expanded, hence
                        // non-absorbing) source's: false.
                        let Scratch { key, src_key, .. } = scratch;
                        key.copy_from_slice(src_key);
                        self.layout
                            .patch(key, slot, phase + 1)
                            .map_err(|_| Abort::Pack)?;
                        let target = self.intern_key(sink, key, false)?;
                        trans.push(Transition {
                            activity: a,
                            prob: 1.0,
                            rate,
                            completes: false,
                            target,
                        });
                    }
                }
                None => {
                    if !self.model.is_enabled(a, &marking) {
                        continue;
                    }
                    let Timing::Timed(dist) = self.model.timing(a) else {
                        unreachable!("timed list only holds timed activities")
                    };
                    // Unexpanded non-exponential activities keep the
                    // strict contract: explore fine, carry a NaN rate,
                    // fail at the CTMC build.
                    let base_rate = match *dist {
                        Dist::Exp { mean } => 1.0 / mean,
                        _ => f64::NAN,
                    };
                    self.completions(sink, ext, a, base_rate, scratch, trans)?;
                }
            }
        }
        scratch.mpool.push(marking);
        Ok(())
    }
}

/// One fully expanded BFS level queued for emission: its id range,
/// every worker's transition chain, and what the dedup engine's level
/// close left for the emission to read.
struct PendingLevel<C> {
    lo: usize,
    hi: usize,
    chains: Vec<WorkerChain>,
    closed: C,
}

/// The duplicate test of one exploration attempt — the only part of
/// the BFS that differs between resident and external-memory dedup.
/// [`StateSpace::explore_attempt`] drives either engine through the
/// same level loop, emission pipeline and telemetry; an engine only
/// says how a level's sources are read, which sink a worker interns
/// into, how a level is closed, and how an emitted row maps its
/// targets and its packed key.
trait Dedup: Sync {
    /// The `engine` arg of the `explore` span.
    const NAME: &'static str;
    /// One worker's private dedup state.
    type Local: Send;
    /// A closed level, as the emission reads it.
    type Closed;

    fn new_local(&self) -> Self::Local;

    /// The sink a worker interns the successors it generates into.
    fn sink<'s>(&'s self, local: &'s mut Self::Local) -> impl DedupSink + 's;

    /// Number of states in the current (not yet expanded) level.
    fn level_len(&self) -> usize;

    /// Reads the packed key of the current level's state `id` into
    /// `key`; `false` (key untouched) when the state is absorbing — it
    /// is not expanded and its row stays empty.
    fn source(&self, id: usize, key: &mut [u64]) -> bool;

    /// Closes the level just expanded: the states the workers'
    /// `locals` discovered become the current level, with ids from
    /// `next_base`. Returns the closed level for the emission.
    fn close_level(
        &mut self,
        locals: &mut [Self::Local],
        next_base: usize,
    ) -> Result<Self::Closed, Abort>;

    /// Takes back an emitted level: its buffers may serve a later
    /// close, or it is dropped right away.
    fn retire(&self, _closed: Self::Closed) {}

    /// The `i`-th state, canonical order, of the closed level whose
    /// first id is `lo`: `(the id its chain run was pushed under, its
    /// packed key, whether it is absorbing)`.
    fn row<'c>(&'c self, closed: &'c Self::Closed, lo: usize, i: usize)
        -> (usize, &'c [u64], bool);

    /// The map from the targets worker `chain` wrote while expanding
    /// the closed level to their canonical ids.
    fn targets<'c>(&'c self, closed: &'c Self::Closed, chain: usize) -> &'c [u32];

    /// Auto dedup: whether the attempt should restart in
    /// external-memory mode.
    fn outgrew_budget(&self, _spill: &SpillOptions) -> bool {
        false
    }

    /// Ends the attempt: engine-specific telemetry, then the intern
    /// arena when the engine keeps one that can back the packed states.
    fn finish(self) -> Option<Interner>;
}

/// Resident dedup: workers intern straight into the shared lock-free
/// [`Interner`], so ids are provisional (race-ordered); closing a
/// level sorts its new ids by packed key and records their canonical
/// ids — `lo + rank`, a BFS level occupies the same contiguous block
/// in both numberings.
struct Resident {
    interner: Interner,
    words: usize,
    /// Provisional → canonical id of every state in a closed level.
    canon: Vec<u32>,
    /// The current level.
    level: ResidentLevel,
    /// An emitted level whose buffers the next close reuses.
    spare: Mutex<ResidentLevel>,
}

/// One level of the resident engine: its provisional ids sorted by
/// packed key — the canonical visit order — and the packed keys, read
/// out of the intern arena once, `(id - lo) * words` each.
#[derive(Default)]
struct ResidentLevel {
    order: Vec<u32>,
    keys: Vec<u64>,
}

impl Resident {
    fn new(words: usize, max_states: usize, workers: usize) -> Self {
        Self {
            interner: Interner::new(words, max_states, workers),
            words,
            canon: Vec::new(),
            level: ResidentLevel::default(),
            spare: Mutex::default(),
        }
    }
}

impl Dedup for Resident {
    const NAME: &'static str = "resident";
    type Local = ();
    type Closed = ResidentLevel;

    fn new_local(&self) {}

    fn sink<'s>(&'s self, _: &'s mut ()) -> impl DedupSink + 's {
        &self.interner
    }

    fn level_len(&self) -> usize {
        self.level.order.len()
    }

    fn source(&self, id: usize, key: &mut [u64]) -> bool {
        if self.interner.absorbing(id) {
            return false;
        }
        self.interner.read_state(id, key);
        true
    }

    fn close_level(&mut self, _: &mut [()], lo: usize) -> Result<ResidentLevel, Abort> {
        // The states interned while the level was expanded are the
        // next level: ids `lo..hi`.
        let (words, hi) = (self.words, self.interner.len());
        let spare = self.spare.get_mut().expect("spare level lock poisoned");
        let ResidentLevel {
            mut order,
            mut keys,
        } = std::mem::take(spare);
        keys.clear();
        keys.resize((hi - lo) * words, 0);
        for id in lo..hi {
            let at = (id - lo) * words;
            self.interner.read_state(id, &mut keys[at..at + words]);
        }
        let key = |id: u32| {
            let at = (id as usize - lo) * words;
            &keys[at..at + words]
        };
        order.clear();
        order.extend((lo..hi).map(|i| i as u32));
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        self.canon.resize(hi, 0);
        for (rank, &prov) in order.iter().enumerate() {
            self.canon[prov as usize] = (lo + rank) as u32;
        }
        Ok(std::mem::replace(
            &mut self.level,
            ResidentLevel { order, keys },
        ))
    }

    fn retire(&self, closed: ResidentLevel) {
        *self.spare.lock().expect("spare level lock poisoned") = closed;
    }

    fn row<'c>(
        &'c self,
        closed: &'c ResidentLevel,
        lo: usize,
        i: usize,
    ) -> (usize, &'c [u64], bool) {
        let prov = closed.order[i] as usize;
        let at = (prov - lo) * self.words;
        (
            prov,
            &closed.keys[at..at + self.words],
            self.interner.absorbing(prov),
        )
    }

    fn targets<'c>(&'c self, _: &'c ResidentLevel, _: usize) -> &'c [u32] {
        &self.canon
    }

    /// When the intern table's estimated footprint (arena bytes + flag
    /// byte per state, plus the hash-table slots) claims more than half
    /// the spill budget. Checked only at level boundaries — membership
    /// of a level is a model property, so the switch level (and the
    /// restart) is deterministic for every thread count.
    fn outgrew_budget(&self, spill: &SpillOptions) -> bool {
        if spill.dedup != DedupMode::Auto {
            return false;
        }
        let (_, slots) = self.interner.table_stats();
        self.interner.len() * (self.words * 8 + 1) + slots * 8 > spill.budget_bytes / 2
    }

    fn finish(self) -> Option<Interner> {
        if ctsim_obs::enabled() {
            // Snapshot the intern table before its hash shards are
            // dropped.
            let (used, slots) = self.interner.table_stats();
            let occ = if slots > 0 {
                used as f64 / slots as f64
            } else {
                0.0
            };
            ctsim_obs::gauge_set("intern.occupancy", occ);
            ctsim_obs::gauge_set("intern.used_slots", used as f64);
            ctsim_obs::gauge_set("intern.table_slots", slots as f64);
        }
        Some(self.interner)
    }
}

/// External-memory dedup ([`crate::ddd`]): each worker collects its
/// level's successors in a private [`CandSet`], and closing a level
/// merges them against the sorted on-disk visited runs, which assigns
/// canonical ids directly. Exploration's RAM high-water mark is then
/// proportional to the largest BFS level, not the state space.
struct External {
    words: usize,
    max_states: usize,
    visited: VisitedRuns,
    /// The current level, canonical order, ids from `lo`.
    frontier: Frontier,
    lo: usize,
}

impl External {
    fn new(words: usize, spill: Arc<SpillShared>, max_states: usize) -> Self {
        Self {
            words,
            max_states,
            visited: VisitedRuns::new(words, spill),
            frontier: Frontier::new(words),
            lo: 0,
        }
    }
}

impl Dedup for External {
    const NAME: &'static str = "external";
    type Local = CandSet;
    /// The closed level's frontier (not the next one) with the
    /// per-worker candidate → canonical-id maps of its merge.
    type Closed = LevelResolution;

    fn new_local(&self) -> CandSet {
        CandSet::new(self.words)
    }

    fn sink<'s>(&'s self, local: &'s mut CandSet) -> impl DedupSink + 's {
        local
    }

    fn level_len(&self) -> usize {
        self.frontier.len()
    }

    fn source(&self, id: usize, key: &mut [u64]) -> bool {
        let i = id - self.lo;
        if self.frontier.absorbing(i) {
            return false;
        }
        key.copy_from_slice(self.frontier.key(i));
        true
    }

    fn close_level(
        &mut self,
        locals: &mut [CandSet],
        next_base: usize,
    ) -> Result<LevelResolution, Abort> {
        // The delayed duplicate detection: match every worker's
        // candidates against the sorted visited runs; the unmatched
        // remainder is the next level.
        let cands: Vec<&CandSet> = locals.iter().collect();
        let next = resolve_level(&cands, &mut self.visited, next_base, self.max_states)
            .map_err(Abort::Solve)?;
        for c in locals.iter_mut() {
            c.clear();
        }
        self.lo = next_base;
        Ok(LevelResolution {
            resolved: next.resolved,
            frontier: std::mem::replace(&mut self.frontier, next.frontier),
        })
    }

    fn row<'c>(
        &'c self,
        closed: &'c LevelResolution,
        lo: usize,
        i: usize,
    ) -> (usize, &'c [u64], bool) {
        (lo + i, closed.frontier.key(i), closed.frontier.absorbing(i))
    }

    fn targets<'c>(&'c self, closed: &'c LevelResolution, chain: usize) -> &'c [u32] {
        &closed.resolved[chain]
    }

    fn finish(self) -> Option<Interner> {
        // Make sure the external-memory counters exist in the metrics
        // document even when nothing was merged (tiny models).
        ctsim_obs::counter_add("ddd.sorted_runs", 0);
        ctsim_obs::counter_add("ddd.merge_bytes", 0);
        None
    }
}

/// How the canonical packed states are stored.
///
/// By default the exploration's intern arena *is* the state storage:
/// the `StateSpace` keeps it (hash tables dropped) plus the canonical
/// → provisional permutation, so the states exist exactly once in
/// memory. Spill mode instead writes a canonical-order copy into a
/// spillable segmented store and frees the arena, so the state table
/// itself can page to disk under the RAM budget.
enum PackedStates {
    /// Spill mode: canonical-order copy, `words` per row, pageable.
    Store {
        store: SegStore<u64>,
        /// Rows per segment (fixed-width rows ⇒ location is pure
        /// arithmetic).
        per_seg: usize,
    },
    /// Default: the intern arena, read through the permutation.
    Interned { interner: Interner, perm: Vec<u32> },
}

impl PackedStates {
    /// Reads state `i`'s packed words (`words` per state) into `buf`
    /// without borrowing the whole `StateSpace` — the rate rebuild
    /// decodes states while the transition arena is mutably borrowed.
    fn read_into(&self, words: usize, i: usize, buf: &mut [u64]) {
        match self {
            PackedStates::Store { store, per_seg } => {
                let row = store.row(RowLoc {
                    seg: (i / per_seg) as u32,
                    off: ((i % per_seg) * words) as u32,
                    len: words as u32,
                });
                buf.copy_from_slice(&row);
            }
            PackedStates::Interned { interner, perm } => {
                interner.read_state(perm[i] as usize, buf);
            }
        }
    }
}

/// The model-independent payload of an explored [`StateSpace`] — what a
/// [`crate::cache::GraphCache`] stores between campaign grid points.
/// Detach with [`StateSpace::into_parts`], re-attach to a (possibly
/// re-parameterised) model with [`StateSpace::from_parts`], then
/// rewrite rates with [`StateSpace::rebuild_rates`].
pub struct GraphParts {
    base: usize,
    phase_slots: usize,
    ph_order: u32,
    layout: StateLayout,
    packed: PackedStates,
    trans: SegStore<Transition>,
    row_locs: Vec<RowLoc>,
    total_trans: usize,
    initial: Vec<(usize, f64)>,
    absorbing: Vec<bool>,
    shape: ExpansionShape,
}

impl GraphParts {
    /// Number of tangible states in the detached graph.
    pub fn num_states(&self) -> usize {
        self.row_locs.len()
    }

    /// Total transitions in the detached graph.
    pub fn num_transitions(&self) -> usize {
        self.total_trans
    }
}

impl std::fmt::Debug for GraphParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphParts")
            .field("states", &self.num_states())
            .field("transitions", &self.total_trans)
            .field("ph_order", &self.ph_order)
            .finish()
    }
}

/// Locates one provisional state's transition run inside a level's
/// worker chains (`chain == u16::MAX` marks an absorbing state with no
/// run).
#[derive(Clone, Copy)]
struct RunSlot {
    chain: u16,
    seg: u16,
    off: u32,
    len: u32,
}

impl RunSlot {
    const NONE: RunSlot = RunSlot {
        chain: u16::MAX,
        seg: 0,
        off: 0,
        len: 0,
    };
}

/// The output side of the streaming pipeline: the canonical packed
/// states, the flat transition arena, and (optionally) the CTMC
/// generator accumulated row by row as levels are emitted.
struct Assembly<'m> {
    model: &'m SanModel,
    /// Spill mode only: the canonical-order packed-state copy.
    packed: Option<SegStore<u64>>,
    states_per_seg: usize,
    /// Default mode: canonical rank → provisional id (the intern arena
    /// stays the state backing).
    perm: Vec<u32>,
    trans: SegStore<Transition>,
    row_locs: Vec<RowLoc>,
    absorbing: Vec<bool>,
    total_trans: usize,
    /// The streaming CSR accumulator behind [`StateSpace::explore_ctmc`]
    /// and its per-row scratch, when the generator was asked for.
    ctmc: Option<(CtmcAcc, Vec<(usize, f64)>)>,
    merge_buf: Vec<Transition>,
    runs_buf: Vec<RunSlot>,
    /// Emptied worker chains awaiting reuse by a later level.
    chain_pool: Vec<WorkerChain>,
}

impl Assembly<'_> {
    fn new(
        model: &SanModel,
        words: usize,
        want_ctmc: bool,
        spill: Option<Arc<SpillShared>>,
    ) -> Assembly<'_> {
        let states_per_seg = (PACKED_SEG / words).max(1);
        Assembly {
            model,
            packed: spill.as_ref().map(|s| {
                let mut st = SegStore::new(states_per_seg * words, Some(s.clone()));
                st.set_io_sites("pack.page_in", "pack.page_out");
                st
            }),
            states_per_seg,
            perm: Vec::new(),
            trans: SegStore::new(TRANS_SEG, spill.clone()),
            row_locs: Vec::new(),
            absorbing: Vec::new(),
            total_trans: 0,
            // With a spill backend the CSR entry segments page out
            // under the shared budget.
            ctmc: want_ctmc.then(|| {
                let acc = match spill {
                    Some(s) => CtmcAcc::new_paged(s),
                    None => CtmcAcc::new(),
                };
                (acc, Vec::new())
            }),
            merge_buf: Vec::new(),
            runs_buf: Vec::new(),
            chain_pool: Vec::new(),
        }
    }

    /// Indexes one level's worker chains by source id into `runs_buf`
    /// (absorbing states keep [`RunSlot::NONE`]).
    fn index_runs(&mut self, lo: usize, hi: usize, chains: &[WorkerChain]) {
        self.runs_buf.clear();
        self.runs_buf.resize(hi - lo, RunSlot::NONE);
        for (ci, chain) in chains.iter().enumerate() {
            for r in &chain.runs {
                self.runs_buf[r.prov as usize - lo] = RunSlot {
                    chain: ci as u16,
                    seg: r.seg as u16,
                    off: r.off,
                    len: r.len,
                };
            }
        }
    }

    /// Streams one explored level into the canonical stores: states in
    /// canonical order, per-row retarget → sort → merge, and one CSR
    /// generator row per state when a CTMC is being built. In parallel
    /// explorations this runs *while the next level is still being
    /// expanded* — the explore → CSR handoff is pipelined, not serial.
    /// Hands the closed level back to the engine, and recycles the
    /// level's chains instead of freeing them: the next levels reuse
    /// the same capacity, keeping the resident footprint flat instead
    /// of fragmenting the heap at peak.
    fn emit_level<E: Dedup>(
        &mut self,
        engine: &E,
        level: PendingLevel<E::Closed>,
    ) -> Result<(), Abort> {
        let PendingLevel {
            lo,
            hi,
            chains,
            closed,
        } = level;
        let _csr_span = ctsim_obs::span("csr", "csr_build_level")
            .arg("lo", lo)
            .arg("states", hi - lo);
        self.index_runs(lo, hi, &chains);
        let model = self.model;
        for i in 0..hi - lo {
            let src = lo + i;
            debug_assert_eq!(src, self.row_locs.len(), "levels emitted in order");
            let (prov, key, absorbing) = engine.row(&closed, lo, i);
            match &mut self.packed {
                Some(store) => {
                    store.append_row(key);
                }
                None => self.perm.push(prov as u32),
            }
            self.absorbing.push(absorbing);
            self.merge_buf.clear();
            let slot = self.runs_buf[prov - lo];
            if slot.chain != u16::MAX {
                let seg = &chains[slot.chain as usize].segs[slot.seg as usize];
                self.merge_buf
                    .extend_from_slice(&seg[slot.off as usize..(slot.off + slot.len) as usize]);
                let map = engine.targets(&closed, slot.chain as usize);
                for t in &mut self.merge_buf {
                    t.target = map[t.target] as usize;
                }
                merge_outgoing(&mut self.merge_buf);
            }
            if let Some((acc, scratch)) = &mut self.ctmc {
                acc.push_row(src, &self.merge_buf, scratch).map_err(|a| {
                    Abort::Solve(SolveError::NonMarkovian {
                        activity: model.activity_name(a).to_string(),
                    })
                })?;
            }
            let loc = self.trans.append_row(&self.merge_buf);
            self.row_locs.push(loc);
            self.total_trans += self.merge_buf.len();
        }
        for mut chain in chains {
            chain.reset();
            self.chain_pool.push(chain);
        }
        engine.retire(closed);
        Ok(())
    }
}

impl<'m> StateSpace<'m> {
    /// Explores the tangible state space of `model`.
    ///
    /// With a `goal`, every tangible marking for which it holds is
    /// absorbing (no outgoing transitions). This is how first-passage
    /// ("time until the predicate holds") quantities are solved: make
    /// the goal states absorbing and read the absorbed probability
    /// mass off the transient solution. The predicate is evaluated on
    /// tangible markings only — the same instants at which the
    /// simulator's `run_until` evaluates its stop predicate — so it
    /// should be stable under instantaneous firings (e.g. a monotone
    /// "place ever marked" test).
    pub fn explore(
        model: &'m SanModel,
        opts: &ReachOptions,
        goal: Option<&(dyn Fn(&Marking) -> bool + Sync)>,
    ) -> Result<Self, SolveError> {
        Self::explore_inner(model, opts, goal, false).map(|(ss, _)| ss)
    }

    /// [`StateSpace::explore`] with the CTMC generator built *in the
    /// same pass*: each BFS level's CSR rows are assembled as soon as
    /// the level is canonically renumbered (overlapping the exploration
    /// of the next level), so the explore → CSR phases pipeline instead
    /// of running serially. The result is byte-identical to exploring
    /// first and calling [`Ctmc::from_state_space`](crate::Ctmc::from_state_space)
    /// afterwards.
    pub fn explore_ctmc(
        model: &'m SanModel,
        opts: &ReachOptions,
        goal: Option<&(dyn Fn(&Marking) -> bool + Sync)>,
    ) -> Result<(Self, Ctmc), SolveError> {
        let (ss, ctmc) = Self::explore_inner(model, opts, goal, true)?;
        Ok((ss, ctmc.expect("exploration builds the CSR when asked")))
    }

    /// Explores, building the CSR generator in the same pass when
    /// `want_ctmc` is set.
    fn explore_inner(
        model: &'m SanModel,
        opts: &ReachOptions,
        absorb: Option<&AbsorbFn<'_>>,
        want_ctmc: bool,
    ) -> Result<(Self, Option<Ctmc>), SolveError> {
        let expansion = Expansion::build(model, opts.ph_order)?;
        let mut layout = StateLayout::new(model.num_places(), &expansion.phase_maxes());
        let workers = crate::spmv::resolve_threads(opts.threads);
        // External-memory dedup from level 0 when forced; otherwise the
        // resident attempt may abort with `Ddd` mid-exploration (Auto
        // mode, intern table outgrew its budget share) and restart
        // here in external mode. Pack retries preserve the mode.
        let mut external = opts
            .spill
            .as_ref()
            .is_some_and(|s| s.dedup == DedupMode::External);
        // All spill read-back failures below (packed states, transition
        // arena, paged CSR) surface typed through this boundary.
        crate::catch_spill(|| loop {
            let explorer = Explorer::new(model, opts, &expansion, absorb, &layout);
            let (words, max) = (layout.words(), opts.max_states);
            let spill = opts.spill.as_ref().map(SpillShared::new).transpose()?;
            let spill = spill.map(Arc::new);
            let attempt = if external {
                let s = spill.expect("external-memory dedup requires spill options");
                let engine = External::new(words, s.clone(), max);
                Self::explore_attempt(&explorer, engine, Some(s), workers, want_ctmc)
            } else {
                let engine = Resident::new(words, max, workers);
                Self::explore_attempt(&explorer, engine, spill, workers, want_ctmc)
            };
            match attempt {
                Ok(pair) => return Ok(pair),
                // A place field overflowed its bit width: restart from
                // scratch one ladder rung wider. The reachable set is
                // thread-independent, so whether a width suffices is
                // too — the retry chain is deterministic and bounded
                // by the ladder length.
                Err(Abort::Pack) => {
                    layout = layout.widen().expect("32-bit place fields cannot overflow");
                }
                Err(Abort::Ddd) => external = true,
                Err(Abort::Solve(e)) => return Err(e),
            }
        })
    }

    /// One exploration attempt: the level-synchronous breadth-first
    /// sweep, whichever [`Dedup`] engine tests for duplicates. Workers
    /// claim chunks of the current level, expand each state into their
    /// own transition chain and intern its targets into the engine's
    /// sink; the engine then closes the level, which fixes the next
    /// level's membership and canonical ids. The *previous* level is
    /// renumbered and streamed into the canonical stores (and the CSR
    /// generator) while the current one is expanded.
    fn explore_attempt<E: Dedup>(
        explorer: &Explorer<'m, '_>,
        mut engine: E,
        spill: Option<Arc<SpillShared>>,
        workers: usize,
        want_ctmc: bool,
    ) -> Result<(Self, Option<Ctmc>), Abort> {
        let (model, opts, layout) = (explorer.model, explorer.opts, explorer.layout);
        let words = layout.words();
        let mut locals: Vec<E::Local> = (0..workers).map(|_| engine.new_local()).collect();

        // Level 0 is the initial marking's vanishing chain (and phase
        // entry) resolved into the initial tangible distribution,
        // interned by the first worker's sink and closed like any other
        // level, so initial ids are canonical from the start.
        let mut initial: Vec<(usize, f64)> = Vec::new();
        {
            let mut sink = engine.sink(&mut locals[0]);
            let mut key = vec![0u64; words];
            for (tokens, p, absorbing) in explorer.initial_ext()? {
                layout.encode(&tokens, &mut key).map_err(|_| Abort::Pack)?;
                let id = explorer.intern_key(&mut sink, &key, absorbing)?;
                match initial.iter_mut().find(|(i, _)| *i == id) {
                    Some((_, q)) => *q += p,
                    None => initial.push((id, p)),
                }
            }
        }
        let seeded = engine.close_level(&mut locals, 0)?;
        let map = engine.targets(&seeded, 0);
        for (id, _) in &mut initial {
            *id = map[*id] as usize;
        }
        engine.retire(seeded);
        initial.sort_unstable_by_key(|&(i, _)| i);

        let mut asm = Assembly::new(model, words, want_ctmc, spill);
        let mut pending: Option<PendingLevel<E::Closed>> = None;
        // Each worker's scratch plus the chain of transition segments
        // it appends rows to during the current level.
        let mut worker_states: Vec<(Scratch, WorkerChain)> = (0..workers)
            .map(|_| (Scratch::new(layout), WorkerChain::default()))
            .collect();
        let mut lvl_lo = 0usize;
        let mut level_idx = 0usize;
        let _explore_span = ctsim_obs::span("explore", "explore")
            .arg("workers", workers)
            .arg("engine", E::NAME);
        while engine.level_len() > 0 {
            if opts
                .spill
                .as_ref()
                .is_some_and(|s| engine.outgrew_budget(s))
            {
                return Err(Abort::Ddd);
            }
            let lvl_hi = lvl_lo + engine.level_len();
            let lvl_t0 = ctsim_obs::now_us();
            // Spawning a thread costs more than expanding a handful of
            // states, so cap the worker count by the level size: small
            // levels (and small models) run inline no matter how many
            // threads were requested.
            let effective = workers.min((lvl_hi - lvl_lo) / PARALLEL_THRESHOLD);
            let chunk = ((lvl_hi - lvl_lo) / (effective.max(1) * 16)).clamp(MIN_CLAIM, MAX_CLAIM);
            let cursor = AtomicUsize::new(lvl_lo);
            let failed = AtomicBool::new(false);
            let engine_ref = &engine;
            let worker_loop = |(scratch, chain): &mut (Scratch, WorkerChain),
                               local: &mut E::Local|
             -> Result<(), Abort> {
                let mut sink = engine_ref.sink(local);
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= lvl_hi {
                        break;
                    }
                    for id in start..(start + chunk).min(lvl_hi) {
                        if !engine_ref.source(id, &mut scratch.src_key) {
                            continue; // absorbing: its row stays empty
                        }
                        if let Err(e) = explorer.successors(&mut sink, scratch) {
                            failed.store(true, Ordering::Relaxed);
                            return Err(e);
                        }
                        chain.push_row(id, &scratch.row);
                    }
                }
                Ok(())
            };
            let p = pending.take();
            let mut outcomes: Vec<Result<(), Abort>> = Vec::new();
            if effective <= 1 {
                // Sequential: emit the previous level first (freeing
                // its chains before this level allocates new ones),
                // then expand inline.
                if let Some(level) = p {
                    asm.emit_level(engine_ref, level)?;
                }
                outcomes.push(worker_loop(&mut worker_states[0], &mut locals[0]));
            } else {
                let emitted = std::thread::scope(|scope| {
                    let handles: Vec<_> = worker_states
                        .iter_mut()
                        .zip(locals.iter_mut())
                        .take(effective)
                        .map(|(st, local)| scope.spawn(|| worker_loop(st, local)))
                        .collect();
                    // Overlap: stream the previous level into the
                    // canonical stores (and the CSR generator) while
                    // the workers expand this one.
                    let r = p.map_or(Ok(()), |level| asm.emit_level(engine_ref, level));
                    if r.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    for h in handles {
                        outcomes.push(h.join().unwrap_or_else(|payload| {
                            // Preserve a typed spill-read payload
                            // for the catch_spill boundary.
                            std::panic::resume_unwind(payload)
                        }));
                    }
                    r
                });
                outcomes.push(emitted);
            }
            // A packed-width overflow beats any other abort: the retry
            // re-examines the same reachable set, so a racing
            // cap/vanishing error (if genuine) recurs there.
            let err = outcomes.into_iter().filter_map(Result::err);
            if let Some(e) = err.reduce(|a, b| if matches!(b, Abort::Pack) { b } else { a }) {
                return Err(e);
            }
            // The states discovered during this level *are* the next
            // BFS level: closing it gives every target of this level a
            // canonical id before its emission.
            let closed = engine.close_level(&mut locals, lvl_hi)?;
            let chains: Vec<WorkerChain> = worker_states
                .iter_mut()
                .map(|(_, chain)| std::mem::take(chain))
                .collect();
            if ctsim_obs::enabled() {
                // One intern call per generated transition target, so
                // dedup hits = transitions minus freshly discovered
                // states.
                let transitions: usize = chains
                    .iter()
                    .map(|c| c.runs.iter().map(|r| r.len as usize).sum::<usize>())
                    .sum();
                let new_states = engine.level_len();
                let dedup_hits = transitions.saturating_sub(new_states);
                ctsim_obs::record_span(
                    "explore",
                    "bfs_level",
                    lvl_t0,
                    vec![
                        ("level", level_idx.into()),
                        ("states", (lvl_hi - lvl_lo).into()),
                        ("new_states", new_states.into()),
                        ("transitions", transitions.into()),
                        ("dedup_hits", dedup_hits.into()),
                        ("workers", effective.max(1).into()),
                    ],
                );
                ctsim_obs::counter_add("explore.levels", 1);
                ctsim_obs::counter_add("explore.transitions", transitions as u64);
                ctsim_obs::counter_add("explore.dedup_hits", dedup_hits as u64);
            }
            level_idx += 1;
            // Hand emptied chains from an emitted level back to the
            // workers for the next one.
            for (_, chain) in worker_states.iter_mut() {
                match asm.chain_pool.pop() {
                    Some(rc) => *chain = rc,
                    None => break,
                }
            }
            pending = Some(PendingLevel {
                lo: lvl_lo,
                hi: lvl_hi,
                chains,
                closed,
            });
            lvl_lo = lvl_hi;
        }
        if let Some(p) = pending.take() {
            asm.emit_level(&engine, p)?;
        }
        // Release the engine's level buffers and renumbering before the
        // stores are sealed: the exploration's memory peak.
        let arena = engine.finish();
        asm.trans.finish();
        ctsim_obs::gauge_set("explore.states_total", lvl_lo as f64);
        // Make sure the spill pager counters exist in the metrics
        // document even for an all-resident run.
        for name in [
            "spill.pager_hits",
            "spill.pager_misses",
            "spill.paged_out_bytes",
        ] {
            ctsim_obs::counter_add(name, 0);
        }
        let ctmc = asm.ctmc.take().map(|(acc, _)| acc.finish(&initial));
        let packed = match (asm.packed, arena) {
            // Spill mode: the pageable copy is the backing; an intern
            // arena is freed wholesale right here.
            (Some(mut store), _) => {
                store.finish();
                PackedStates::Store {
                    store,
                    per_seg: asm.states_per_seg,
                }
            }
            // Default: keep the arena (hash tables dropped) — the
            // states exist exactly once in memory.
            (None, Some(mut interner)) => {
                interner.drop_tables();
                PackedStates::Interned {
                    interner,
                    perm: asm.perm,
                }
            }
            (None, None) => unreachable!("external dedup always spills the packed states"),
        };
        let ss = Self {
            model,
            base: model.num_places(),
            phase_slots: explorer.expansion.num_slots(),
            layout: layout.clone(),
            packed,
            trans: asm.trans,
            row_locs: asm.row_locs,
            total_trans: asm.total_trans,
            initial,
            absorbing: asm.absorbing,
            ph_order: opts.ph_order,
            shape: explorer.expansion.shape(model),
        };
        Ok((ss, ctmc))
    }

    /// The model this space was explored from.
    pub fn model(&self) -> &'m SanModel {
        self.model
    }

    /// Number of tangible states.
    pub fn len(&self) -> usize {
        self.row_locs.len()
    }

    /// Whether the space is empty (never true after exploration).
    pub fn is_empty(&self) -> bool {
        self.row_locs.is_empty()
    }

    /// The merged outgoing transitions of state `i`, as one contiguous
    /// row slice of the flat transition arena (empty for absorbing
    /// states). The guard keeps a spilled segment alive while the row
    /// is borrowed; without spill it is a plain slice borrow.
    pub fn outgoing(&self, i: usize) -> RowRef<'_, Transition> {
        self.trans.row(self.row_locs[i])
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.total_trans
    }

    /// Number of places (the marking prefix length of each state
    /// vector; phase counters follow).
    pub fn num_places(&self) -> usize {
        self.base
    }

    /// Packed words per state.
    pub fn words_per_state(&self) -> usize {
        self.layout.words()
    }

    /// The raw packed words of state `i` (compare with
    /// [`StateSpace::packed_words`] for the whole space).
    pub fn packed_state(&self, i: usize) -> RowRef<'_, u64> {
        let w = self.layout.words();
        match &self.packed {
            PackedStates::Store { store, per_seg } => store.row(RowLoc {
                seg: (i / per_seg) as u32,
                off: ((i % per_seg) * w) as u32,
                len: w as u32,
            }),
            PackedStates::Interned { .. } => {
                let mut buf = vec![0u64; w];
                self.packed.read_into(w, i, &mut buf);
                RowRef::owned(buf)
            }
        }
    }

    /// Every state's packed words, canonical order, back to back —
    /// byte-comparable across explorations to assert reproducibility.
    /// Collects (and, under spill, reloads) the whole array; meant for
    /// determinism asserts, not hot paths.
    pub fn packed_words(&self) -> Vec<u64> {
        match &self.packed {
            PackedStates::Store { store, .. } => store.collect_all(),
            PackedStates::Interned { interner, perm } => {
                let w = self.layout.words();
                let mut out = vec![0u64; perm.len() * w];
                for (rank, &prov) in perm.iter().enumerate() {
                    interner.read_state(prov as usize, &mut out[rank * w..(rank + 1) * w]);
                }
                out
            }
        }
    }

    /// Decodes state `i` into its extended token vector (places, then
    /// phase counters).
    pub fn tokens(&self, i: usize) -> Vec<u32> {
        self.layout.decode_vec(&self.packed_state(i))
    }

    /// Materialises state `i` as a [`Marking`] (for reward evaluation).
    /// Phase counters are not part of the marking.
    pub fn marking(&self, i: usize) -> Marking {
        let tokens = self.tokens(i);
        self.model.marking_from(&tokens[..self.base])
    }

    /// Detaches the model-independent payload of this space so it can
    /// outlive the model borrow (e.g. in a [`crate::cache::GraphCache`]
    /// between campaign grid points).
    pub fn into_parts(self) -> GraphParts {
        GraphParts {
            base: self.base,
            phase_slots: self.phase_slots,
            ph_order: self.ph_order,
            layout: self.layout,
            packed: self.packed,
            trans: self.trans,
            row_locs: self.row_locs,
            total_trans: self.total_trans,
            initial: self.initial,
            absorbing: self.absorbing,
            shape: self.shape,
        }
    }

    /// Re-attaches cached [`GraphParts`] to a model. The model must
    /// have the same net dimensions the graph was explored with (full
    /// structural equality is the caller's contract — campaign drivers
    /// key caches by the structural parameters that generated the
    /// model); call [`StateSpace::rebuild_rates`] afterwards if the
    /// model's timing parameters changed.
    pub fn from_parts(model: &'m SanModel, parts: GraphParts) -> Result<Self, SolveError> {
        if model.num_places() != parts.base || model.num_activities() != parts.shape.activities {
            return Err(SolveError::StructureMismatch {
                reason: format!(
                    "model has {} places / {} activities, cached graph was explored with {} / {}",
                    model.num_places(),
                    model.num_activities(),
                    parts.base,
                    parts.shape.activities
                ),
            });
        }
        Ok(Self {
            model,
            base: parts.base,
            phase_slots: parts.phase_slots,
            layout: parts.layout,
            packed: parts.packed,
            trans: parts.trans,
            row_locs: parts.row_locs,
            total_trans: parts.total_trans,
            initial: parts.initial,
            absorbing: parts.absorbing,
            ph_order: parts.ph_order,
            shape: parts.shape,
        })
    }

    /// Re-evaluates every transition's stage rate from the (possibly
    /// re-parameterised) model, in place, without re-exploring — the
    /// rate-only rebuild of the campaign engine. When two grid points
    /// share structure (same net, same `ph_order`, same expansion
    /// shape) but differ in timing parameters, the reachability graph
    /// and its CSR sparsity are identical; only rate values change.
    ///
    /// Stage rates are a pure function of `(activity, source state)`
    /// and the duplicate fold in `merge_outgoing` never mixes them, so
    /// the rewritten transitions — and a CSR rebuilt from them via
    /// [`Ctmc::rebuild_values`] — are bit-identical to a fresh
    /// exploration of the new model. The initial distribution and
    /// absorbing marks are rate-independent and stay valid as-is.
    ///
    /// Fails with [`SolveError::StructureMismatch`] when the new
    /// model's expansion shape differs (e.g. a distribution change
    /// moved the moment-matching fit to a different branch structure);
    /// the caller should fall back to a cold exploration. On error the
    /// space may hold partially rewritten rates — discard it.
    pub fn rebuild_rates(&mut self) -> Result<(), SolveError> {
        crate::catch_spill(|| self.rebuild_rates_inner())
    }

    fn rebuild_rates_inner(&mut self) -> Result<(), SolveError> {
        let expansion = Expansion::build(self.model, self.ph_order)?;
        let shape = expansion.shape(self.model);
        if shape != self.shape {
            return Err(SolveError::StructureMismatch {
                reason: "phase-type expansion shape changed between grid points".to_string(),
            });
        }
        // Base rate of each unexpanded activity (NaN for
        // non-exponential ones — surfaces as `NonMarkovian` at the CTMC
        // build, exactly like a cold exploration).
        let unexpanded: Vec<f64> = self
            .model
            .activity_ids()
            .map(|a| match self.model.timing(a) {
                Timing::Timed(Dist::Exp { mean }) => 1.0 / mean,
                _ => f64::NAN,
            })
            .collect();
        let layout = &self.layout;
        let packed = &self.packed;
        let words = layout.words();
        let mut key = vec![0u64; words];
        self.trans.update_rows(&self.row_locs, |i, row| {
            if row.is_empty() {
                return;
            }
            packed.read_into(words, i, &mut key);
            for t in row {
                let idx = t.activity.index();
                t.rate = match expansion.plans[idx].as_ref() {
                    Some(plan) => {
                        // A transition of an expanded activity exists
                        // only while its phase counter is active.
                        let phase = layout.get(&key, expansion.slots[idx]);
                        debug_assert!(phase >= 1, "active expanded activity has phase 0");
                        plan.rates[(phase - 1) as usize]
                    }
                    None => unexpanded[idx],
                };
            }
        });
        if ctsim_obs::enabled() {
            ctsim_obs::counter_add("graph_cache.rate_rebuilds", 1);
        }
        Ok(())
    }
}

/// Sorts and merges one source state's transitions in place: duplicate
/// `(activity, target, completes)` outcomes within each activity's
/// contiguous run are folded by summing `prob` in sorted order, so the
/// floating-point result is independent of discovery interleaving.
/// Duplicates always share the same stage `rate` — one activity's row
/// transitions all come from one `completions` call with one base rate
/// — so the fold keeps `rate` untouched, which is what makes a
/// rate-only rebuild bit-identical to a fresh exploration. Must be
/// called with canonical target ids.
fn merge_outgoing(outs: &mut Vec<Transition>) {
    let mut i = 0;
    while i < outs.len() {
        let mut j = i + 1;
        while j < outs.len() && outs[j].activity == outs[i].activity {
            j += 1;
        }
        if j - i > 1 {
            outs[i..j].sort_unstable_by_key(|t| (t.target, t.completes));
        }
        i = j;
    }
    // In-place fold of adjacent duplicates (`prev` is the retained
    // element), so the common no-duplicate case allocates nothing.
    outs.dedup_by(|cur, prev| {
        if prev.activity == cur.activity
            && prev.target == cur.target
            && prev.completes == cur.completes
        {
            debug_assert_eq!(prev.rate.to_bits(), cur.rate.to_bits());
            prev.prob += cur.prob;
            true
        } else {
            false
        }
    });
}

impl Explorer<'_, '_> {
    /// Distributes the probability mass of a possibly-vanishing marking
    /// over the tangible markings its instantaneous chains lead to.
    /// Iterative (explicit worklist) so deep instantaneous cascades
    /// cannot overflow the call stack. The worklist carries `Marking`s
    /// end to end — no token-vector round-trips on this hot path — and
    /// the worklist/race buffers are caller-provided scratch, reused
    /// across every resolution a worker performs.
    ///
    /// With `from_tangible`, `marking` was assigned a tangible state's
    /// places and then fired, so its write log holds every place that
    /// can differ from that state. No instantaneous activity is enabled
    /// in a tangible state, so along the chain only those depending on
    /// a place written since can be: each worklist entry carries that
    /// written set (its parent's plus its own firing's log), and only
    /// those activities are checked, in declaration order — the race
    /// and its floating-point sums are the same as with a scan of all
    /// of them. Without a tangible origin (the initial marking) every
    /// instantaneous activity is checked. Each tangible result in `out`
    /// gets its written set appended to `out_written`.
    #[allow(clippy::too_many_arguments)]
    fn resolve_vanishing(
        &self,
        marking: Marking,
        prob: f64,
        from_tangible: bool,
        out: &mut Vec<(Marking, f64)>,
        out_written: &mut Vec<u64>,
        vanish: &mut Vanish,
        mpool: &mut Vec<Marking>,
    ) -> Result<(), SolveError> {
        let model = self.model;
        let words = self.place_words;
        let Vanish {
            work,
            written,
            cur,
            level,
            cand,
        } = vanish;
        written.clear();
        written.resize(words, 0);
        mark_written(written, marking.changed());
        if self.instantaneous.is_empty() {
            // No instantaneous activities anywhere: every marking is
            // tangible, skip the worklist entirely.
            out.push((marking, prob));
            out_written.extend_from_slice(written);
            return Ok(());
        }
        work.clear();
        work.push((marking, prob, 0));
        while let Some((marking, prob, depth)) = work.pop() {
            cur.clear();
            cur.extend_from_slice(&written[written.len() - words..]);
            written.truncate(written.len() - words);
            if depth > self.opts.max_vanishing_depth {
                return Err(SolveError::VanishingLoop {
                    depth: self.opts.max_vanishing_depth,
                });
            }
            self.inst_deps.of(from_tangible.then_some(&cur[..]), cand);
            // The enabled instantaneous activities at the highest
            // priority.
            let mut best_prio = 0u32;
            level.clear();
            for i in set_bits(cand) {
                let (a, priority, weight) = self.instantaneous[i];
                if !model.is_enabled(a, &marking) {
                    continue;
                }
                if level.is_empty() || priority > best_prio {
                    best_prio = priority;
                    level.clear();
                    level.push((a, weight));
                } else if priority == best_prio {
                    level.push((a, weight));
                }
            }
            #[cfg(debug_assertions)]
            for (i, &(a, ..)) in self.instantaneous.iter().enumerate() {
                assert!(
                    has_bit(cand, i) || !model.is_enabled(a, &marking),
                    "instantaneous activity `{}` is enabled although none of its input \
                     places or declared gate reads changed: an input gate under-declares `reads`",
                    model.activity_name(a)
                );
            }
            if level.is_empty() {
                out.push((marking, prob));
                out_written.extend_from_slice(cur);
                continue;
            }
            let total_weight: f64 = level.iter().map(|&(_, w)| w).sum();
            for &(a, w) in level.iter() {
                let pick = prob * w / total_weight;
                for case in 0..model.num_cases(a) {
                    let case_p = model.case_prob(a, case);
                    if case_p <= 0.0 {
                        continue;
                    }
                    let mut after = match mpool.pop() {
                        Some(mut m) => {
                            m.assign(marking.tokens());
                            m
                        }
                        None => model.marking_from(marking.tokens()),
                    };
                    model.fire_case(&mut after, a, case);
                    written.extend_from_slice(cur);
                    let n = written.len();
                    mark_written(&mut written[n - words..], after.changed());
                    work.push((after, pick * case_p, depth + 1));
                }
            }
            // This vanishing marking's buffers are free for reuse.
            mpool.push(marking);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_san::{Activity, Case, SanBuilder};
    use ctsim_stoch::Dist;

    /// p --exp--> q: two states, one transition.
    #[test]
    fn two_state_chain() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 2.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        assert_eq!(ss.len(), 2);
        assert_eq!(ss.initial, vec![(0, 1.0)]);
        assert_eq!(ss.outgoing(0).len(), 1);
        assert_eq!(ss.outgoing(0)[0].target, 1);
        assert!((ss.outgoing(0)[0].rate - 0.5).abs() < 1e-12);
        assert!(ss.outgoing(0)[0].completes);
        assert!(ss.outgoing(1).is_empty(), "q-state is dead");
    }

    /// An instantaneous activity between two timed ones is eliminated:
    /// the intermediate marking never becomes a state.
    #[test]
    fn vanishing_markings_are_eliminated() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let v = b.place("v", 0);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(v, 1)),
        );
        b.add_activity(
            Activity::instantaneous("i")
                .input(v, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        assert_eq!(ss.len(), 2, "vanishing marking must not appear");
        let q_state = ss.tokens(ss.outgoing(0)[0].target);
        assert_eq!(q_state[q.index()], 1);
        assert_eq!(q_state[v.index()], 0);
    }

    /// The vanishing scan re-checks only instantaneous activities that
    /// depend on a changed place, so a gate predicate reading a place
    /// missing from its `reads` set would go unseen; debug builds catch
    /// the under-declared gate instead of exploring a wrong graph.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "instantaneous activity `i` is enabled")]
    fn under_declared_gate_reads_are_caught() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let v = b.place("v", 0);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(v, 1)),
        );
        // The predicate reads `v`, but the gate declares no reads.
        b.add_activity(
            Activity::instantaneous("i")
                .input_gate(
                    ctsim_san::InputGate::predicate(vec![], move |m| m.get(v) > 0)
                        .with_func(vec![v], move |m| m.set(v, 0)),
                )
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let _ = StateSpace::explore(&m, &ReachOptions::default(), None);
    }

    /// The same for phase counters: an expanded activity whose gate
    /// reads an undeclared place would keep a stale counter.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "timed activity `drain` changed enabling")]
    fn under_declared_timed_gate_reads_are_caught() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("move", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        // The predicate reads `q`, but the gate declares no reads.
        b.add_activity(
            Activity::timed("drain", Dist::Det(1.0)).input_gate(
                ctsim_san::InputGate::predicate(vec![], move |m| m.get(q) > 0)
                    .with_func(vec![q], move |m| m.set(q, 0)),
            ),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 2,
            ..ReachOptions::default()
        };
        let _ = StateSpace::explore(&m, &opts, None);
    }

    /// Instantaneous cases split the probability mass.
    #[test]
    fn instantaneous_cases_split_probability() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let v = b.place("v", 0);
        let l = b.place("l", 0);
        let r = b.place("r", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(v, 1)),
        );
        b.add_activity(
            Activity::instantaneous("i")
                .input(v, 1)
                .case(Case::with_prob(0.3).output(l, 1))
                .case(Case::with_prob(0.7).output(r, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        assert_eq!(ss.len(), 3);
        let mut probs: Vec<f64> = ss.outgoing(0).iter().map(|t| t.prob).collect();
        probs.sort_by(f64::total_cmp);
        assert!((probs[0] - 0.3).abs() < 1e-12 && (probs[1] - 0.7).abs() < 1e-12);
    }

    /// Equal-priority instantaneous races split by weight; higher
    /// priority pre-empts.
    #[test]
    fn priority_and_weight_resolution() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let v = b.place("v", 0);
        let hi = b.place("hi", 0);
        let wa = b.place("wa", 0);
        let wb = b.place("wb", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(v, 2)),
        );
        // One high-priority activity consumes the first token...
        b.add_activity(
            Activity::instantaneous("h")
                .priority(5)
                .input(v, 2)
                .case(Case::with_prob(1.0).output(hi, 1).output(v, 1)),
        );
        // ...then two weight-3/weight-1 rivals race for the second.
        b.add_activity(
            Activity::instantaneous("a")
                .weight(3.0)
                .input(v, 1)
                .case(Case::with_prob(1.0).output(wa, 1)),
        );
        b.add_activity(
            Activity::instantaneous("b")
                .weight(1.0)
                .input(v, 1)
                .case(Case::with_prob(1.0).output(wb, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        // Initial + two tangible outcomes {hi,wa} and {hi,wb}.
        assert_eq!(ss.len(), 3);
        for t in ss.outgoing(0).iter() {
            let st = ss.tokens(t.target);
            assert_eq!(st[hi.index()], 1, "priority 5 always fires first");
            if st[wa.index()] == 1 {
                assert!((t.prob - 0.75).abs() < 1e-12);
            } else {
                assert_eq!(st[wb.index()], 1);
                assert!((t.prob - 0.25).abs() < 1e-12);
            }
        }
    }

    /// The simulator's instantaneous livelock is a solver error.
    #[test]
    fn vanishing_loop_is_detected() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::instantaneous("pq")
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        b.add_activity(
            Activity::instantaneous("qp")
                .input(q, 1)
                .case(Case::with_prob(1.0).output(p, 1)),
        );
        let m = b.build().unwrap();
        let err = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap_err();
        assert!(matches!(err, SolveError::VanishingLoop { .. }), "{err}");
    }

    /// The state cap aborts exploration of unbounded nets.
    #[test]
    fn state_cap_is_enforced() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        // p self-loops while pumping tokens into q without bound.
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(p, 1).output(q, 1)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            max_states: 64,
            ..ReachOptions::default()
        };
        let err = StateSpace::explore(&m, &opts, None).unwrap_err();
        assert!(matches!(err, SolveError::StateSpaceTooLarge { limit: 64 }));
    }

    /// Token counts past every narrow ladder rung force the packed
    /// layout onto wider place fields without changing the result.
    #[test]
    fn wide_token_counts_widen_the_layout() {
        // One activity pumps 300 tokens into q at once: q's count
        // overflows a 4-bit and an 8-bit field, so exploration must
        // retry and land on the 16-bit rung.
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 300)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        assert_eq!(ss.len(), 2);
        assert_eq!(ss.tokens(1), vec![0, 300]);
    }

    /// Absorbing predicate suppresses outgoing transitions.
    #[test]
    fn absorbing_predicate_stops_expansion() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 2);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let goal = move |mk: &Marking| mk.get(q) >= 1;
        let ss = StateSpace::explore(&m, &ReachOptions::default(), Some(&goal)).unwrap();
        // Without absorption there would be 3 states; q>=1 stops at 2.
        assert_eq!(ss.len(), 2);
        let a = ss.outgoing(0)[0].target;
        assert!(ss.absorbing[a]);
        assert!(ss.outgoing(a).is_empty());
    }

    /// A deterministic activity expanded at order k becomes an Erlang
    /// chain: k phase states plus the absorbing end.
    #[test]
    fn det_activity_expands_to_erlang_chain() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Det(2.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        for order in [1u32, 3, 4] {
            let opts = ReachOptions {
                ph_order: order,
                ..ReachOptions::default()
            };
            let ss = StateSpace::explore(&m, &opts, None).unwrap();
            assert_eq!(ss.phase_slots, 1);
            assert_eq!(
                ss.len(),
                order as usize + 1,
                "order {order}: one state per stage plus the end"
            );
            // Every stage advances at rate k/mean; the last completes.
            let rate = order as f64 / 2.0;
            let mut completions = 0;
            for s in 0..ss.len() {
                for t in ss.outgoing(s).iter() {
                    assert!((t.rate - rate).abs() < 1e-12);
                    completions += usize::from(t.completes);
                }
            }
            assert_eq!(completions, 1, "exactly one completing transition");
        }
    }

    /// A bimodal activity expands to a two-branch hyper-Erlang: the
    /// initial distribution splits over the branch heads.
    #[test]
    fn bimodal_activity_splits_on_entry() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let dist = Dist::bimodal(0.8, (0.05, 0.08), (0.095, 0.3));
        b.add_activity(
            Activity::timed("t", dist.clone())
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 4,
            ..ReachOptions::default()
        };
        let ss = StateSpace::explore(&m, &opts, None).unwrap();
        // cv² ≈ 0.43 → mixed Erlang(2)/Erlang(3): two initial states.
        assert_eq!(ss.initial.len(), 2, "branch split at activation");
        let total: f64 = ss.initial.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // All rates are finite: the expanded graph is Markovian.
        for s in 0..ss.len() {
            for t in ss.outgoing(s).iter() {
                assert!(t.rate.is_finite() && t.rate > 0.0);
            }
        }
    }

    /// Without expansion, non-exponential transitions carry NaN rates
    /// (the CTMC build rejects them); with expansion they are finite.
    #[test]
    fn unexpanded_non_exponential_rates_are_nan() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("det", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        assert!(ss.outgoing(0)[0].rate.is_nan());
    }

    /// Phase counters freeze in absorbing states (canonical zero), so
    /// goal states reached in different phases merge.
    #[test]
    fn absorbing_states_have_canonical_phases() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 1);
        b.add_activity(
            Activity::timed("goal", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        // A background deterministic ticker that stays enabled forever.
        b.add_activity(
            Activity::timed("tick", Dist::Det(1.0))
                .input(r, 1)
                .case(Case::with_prob(1.0).output(r, 1)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 4,
            ..ReachOptions::default()
        };
        let goal = move |mk: &Marking| mk.get(q) >= 1;
        let ss = StateSpace::explore(&m, &opts, Some(&goal)).unwrap();
        let absorbed: Vec<usize> = (0..ss.len()).filter(|&s| ss.absorbing[s]).collect();
        assert_eq!(absorbed.len(), 1, "one canonical absorbing state");
        let a = absorbed[0];
        assert!(ss.tokens(a)[ss.num_places()..].iter().all(|&x| x == 0));
    }

    /// A disabled expanded activity loses its phase (restart policy);
    /// continuously enabled ones keep it.
    #[test]
    fn restart_policy_resets_phase_on_disable() {
        // `det` needs p; `drain` (exponential) consumes p first with
        // some probability, disabling `det` mid-phase. The state right
        // after draining must carry phase 0 for `det`.
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 0);
        b.add_activity(
            Activity::timed("det", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        b.add_activity(
            Activity::timed("drain", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(r, 1)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 4,
            ..ReachOptions::default()
        };
        let ss = StateSpace::explore(&m, &opts, None).unwrap();
        let det_slot = ss.num_places();
        for s in 0..ss.len() {
            let tokens = ss.tokens(s);
            if tokens[p.index()] == 0 {
                assert_eq!(tokens[det_slot], 0, "disabled activity keeps no phase");
            } else {
                assert!(tokens[det_slot] >= 1, "enabled activity holds a phase");
            }
        }
    }

    /// Exploration is identical for any thread count, including the
    /// exact state ordering and every transition field.
    #[test]
    fn parallel_exploration_is_deterministic() {
        // A branching model big enough to cross the parallel threshold:
        // several tokens walking independent deterministic pipelines.
        let mut b = SanBuilder::new("m");
        for lane in 0..4 {
            let mut prev = b.place(format!("l{lane}_0"), 1);
            for st in 1..5 {
                let next = b.place(format!("l{lane}_{st}"), 0);
                b.add_activity(
                    Activity::timed(
                        format!("t{lane}_{st}"),
                        if st % 2 == 0 {
                            Dist::Exp { mean: 1.0 }
                        } else {
                            Dist::Det(0.5)
                        },
                    )
                    .input(prev, 1)
                    .case(Case::with_prob(1.0).output(next, 1)),
                );
                prev = next;
            }
        }
        let m = b.build().unwrap();
        let explore = |threads: usize| {
            let opts = ReachOptions {
                ph_order: 3,
                threads,
                ..ReachOptions::default()
            };
            StateSpace::explore(&m, &opts, None).unwrap()
        };
        let seq = explore(1);
        assert!(seq.len() > PARALLEL_THRESHOLD, "model too small to test");
        for threads in [2, 8] {
            let par = explore(threads);
            assert_eq!(
                seq.packed_words(),
                par.packed_words(),
                "{threads} threads: states"
            );
            assert_eq!(seq.initial, par.initial);
            assert_eq!(seq.absorbing, par.absorbing);
            assert_eq!(seq.len(), par.len());
            for s in 0..seq.len() {
                let (a, b) = (seq.outgoing(s), par.outgoing(s));
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.activity, y.activity);
                    assert_eq!(x.target, y.target);
                    assert_eq!(x.completes, y.completes);
                    assert_eq!(x.prob.to_bits(), y.prob.to_bits());
                    assert_eq!(x.rate.to_bits(), y.rate.to_bits());
                }
            }
        }
    }
}
