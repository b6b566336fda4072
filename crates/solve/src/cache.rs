//! In-process cache of explored reachability graphs, keyed by the
//! *structural* parameters that determine the graph's shape.
//!
//! The campaign engine's observation: across a parameter grid, most
//! points differ only in timing parameters (service scales, network
//! delay scales), not in structure (number of hosts, phase-type order,
//! topology). All such points share one reachability graph and one CSR
//! sparsity pattern — exploration, the dominant cost, need only be paid
//! once per [`StructuralKey`]. A cached entry holds the model-detached
//! [`GraphParts`] (including its transition arena, whose segments may
//! live in the disk-spill file — the arena carries its spill backend,
//! so paged-out segments stay readable for as long as the entry lives)
//! plus the matching [`Ctmc`]; a grid point re-attaches it with
//! [`StateSpace::from_parts`](crate::StateSpace::from_parts), rewrites
//! rates with
//! [`StateSpace::rebuild_rates`](crate::StateSpace::rebuild_rates),
//! and refreshes the generator with
//! [`Ctmc::rebuild_values`](crate::Ctmc::rebuild_values) — a values-only
//! pass that is bit-identical to a fresh exploration at the new rates.
//!
//! Entries are checked out ([`GraphCache::take`]) rather than borrowed:
//! the rebuild mutates the arena in place, so at most one grid point
//! works on an entry at a time; [`GraphCache::put`] returns it when
//! done. The cache is `Mutex`-guarded and shared freely across worker
//! threads. Hit/miss totals are exposed both as accessors and as
//! `ctsim-obs` counters (`graph_cache.hits` / `graph_cache.misses`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::ctmc::Ctmc;
use crate::graph::GraphParts;

/// The structural identity of a reachability graph: grid points with
/// equal keys explore identical graphs and may share a cache entry.
/// Rate-like parameters (service times, network delay scales) must NOT
/// enter the key; anything that changes the reachable set or the
/// phase-type expansion shape MUST.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructuralKey {
    /// Number of hosts (the paper's `n`).
    pub n: usize,
    /// Phase-type expansion order (0 = no expansion).
    pub ph_order: u32,
    /// Free-form topology / model-family discriminator (e.g.
    /// `"paper"` vs `"exponential"`, crash scenarios, FD variants).
    pub topology: String,
}

impl StructuralKey {
    /// A key for the paper's consensus model family.
    pub fn new(n: usize, ph_order: u32, topology: impl Into<String>) -> Self {
        Self {
            n,
            ph_order,
            topology: topology.into(),
        }
    }
}

/// One cached exploration: the detached graph and its generator.
#[derive(Debug)]
pub struct CachedGraph {
    /// The model-independent reachability graph payload.
    pub parts: GraphParts,
    /// The CSR generator built from that graph (values are those of the
    /// grid point that last owned the entry — rebuild before solving).
    pub ctmc: Ctmc,
}

/// A thread-safe, in-process graph cache with checkout semantics; see
/// the module docs.
#[derive(Default)]
pub struct GraphCache {
    inner: Mutex<HashMap<StructuralKey, CachedGraph>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl GraphCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks the entry for `key` out of the cache (removing it), so
    /// the caller may rebuild its rates in place. Counts a hit or miss.
    pub fn take(&self, key: &StructuralKey) -> Option<CachedGraph> {
        let got = self.inner.lock().expect("graph cache poisoned").remove(key);
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ctsim_obs::counter_add("graph_cache.hits", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            ctsim_obs::counter_add("graph_cache.misses", 1);
        }
        got
    }

    /// Returns (or first inserts) an entry. Replaces any entry another
    /// thread put under the same key in the meantime — both are valid,
    /// keeping either is correct.
    pub fn put(&self, key: StructuralKey, graph: CachedGraph) {
        self.inner
            .lock()
            .expect("graph cache poisoned")
            .insert(key, graph);
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("graph cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total checkout hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total checkout misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for GraphCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ReachOptions, StateSpace};
    use ctsim_san::{Activity, Case, SanBuilder};
    use ctsim_stoch::Dist;

    fn chain_model(mean: f64) -> ctsim_san::SanModel {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        b.build().unwrap()
    }

    #[test]
    fn take_put_round_trip_counts_hits() {
        let cache = GraphCache::new();
        let key = StructuralKey::new(2, 0, "chain");
        assert!(cache.take(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let m1 = chain_model(2.0);
        let (ss, ctmc) = StateSpace::explore_ctmc(&m1, &ReachOptions::default(), None).unwrap();
        cache.put(
            key.clone(),
            CachedGraph {
                parts: ss.into_parts(),
                ctmc,
            },
        );
        assert_eq!(cache.len(), 1);

        let entry = cache.take(&key).expect("hit");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(cache.is_empty());

        // Re-attach to a re-parameterised model and rebuild: the rates
        // must match a fresh exploration bit for bit.
        let m2 = chain_model(5.0);
        let mut ss = StateSpace::from_parts(&m2, entry.parts).unwrap();
        ss.rebuild_rates().unwrap();
        let mut ctmc = entry.ctmc;
        ctmc.rebuild_values(&ss).unwrap();
        let (fresh_ss, fresh_ctmc) =
            StateSpace::explore_ctmc(&m2, &ReachOptions::default(), None).unwrap();
        assert_eq!(
            ss.outgoing(0)[0].rate.to_bits(),
            fresh_ss.outgoing(0)[0].rate.to_bits()
        );
        let (rp_a, col_a, rate_a, diag_a) = ctmc.csr();
        let (rp_b, col_b, rate_b, diag_b) = fresh_ctmc.csr();
        assert_eq!(rp_a, rp_b);
        assert_eq!(col_a, col_b);
        assert_eq!(
            rate_a.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            rate_b.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            diag_a.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            diag_b.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let m1 = chain_model(2.0);
        let (ss, _) = StateSpace::explore_ctmc(&m1, &ReachOptions::default(), None).unwrap();
        let parts = ss.into_parts();
        let mut b = SanBuilder::new("bigger");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1).output(r, 1)),
        );
        let m2 = b.build().unwrap();
        assert!(matches!(
            StateSpace::from_parts(&m2, parts),
            Err(crate::SolveError::StructureMismatch { .. })
        ));
    }
}
