//! Layer 3a: transient solution by uniformization.
//!
//! `π(t) = π(0) · e^{Qt}` is evaluated as the Poisson mixture
//! `Σ_k Pois(Λt; k) · π(0) P^k` with `P = I + Q/Λ` and `Λ ≥ max_i |q_ii|`
//! (Jensen 1953). The Poisson weights are computed Fox–Glynn style: from
//! the mode outward in linear space with a late normalization, so no
//! exponentials under- or overflow even for large `Λt`, and the series
//! is truncated once the missing mass is below the requested tolerance.
//!
//! Two consumers share one copy of the `v ← v P` recurrence
//! (`uniformization_step`):
//!
//! * [`transient()`] returns the whole vector `π(t)`, running the
//!   recurrence from `t = 0` on every call.
//! * `AbsorbedMass` backs `AnalyticRun::cdf`. It keeps the scalar
//!   sequence `a_k = Σ_{s ∈ goal} (π(0) P^k)_s` and the current `v_K`,
//!   so a CDF point costs only the terms no earlier point needed, and
//!   the point itself is the dot product `Σ_k w_k a_k`. The sequence
//!   depends only on the generator, so every point on one run shares
//!   it, and each value is a pure function of `(run, t, opts)`:
//!   call order, a cold or warm cache, and `threads` never change a bit.
//!
//! Out-of-core caveat: the `π(0) P^k` recurrence is a row-vector
//! product (`x · Q`), which on a CSR generator runs over the cached
//! *incoming* (transposed) view — and that view is always materialized
//! resident, even when the forward CSR entries are paged to disk under
//! a spill budget. A transient solve on a spilled generator therefore
//! temporarily pays the full `O(rates)` transpose in RAM; the
//! absorption-mean path (Krylov) is the one that stays out-of-core.

use crate::ctmc::Ctmc;
use crate::SolveError;

/// Poisson terms per telemetry batch span in the uniformization loop.
const TRACE_BATCH: usize = 256;

/// Options for the transient solver.
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Truncation tolerance: the Poisson mass left out of the sum.
    pub epsilon: f64,
    /// Hard cap on the number of Poisson terms (guards against absurd
    /// `Λt`; one term costs one sparse matrix-vector product).
    pub max_terms: usize,
    /// Worker threads for the sharded `v·Q` product inside the
    /// uniformization loop (`0` = one per core, `1` = inline) — the
    /// same SpMV kernel the Jacobi/Krylov steady-state backends use.
    /// The result is bit-identical for every value.
    pub threads: usize,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-10,
            max_terms: 2_000_000,
            threads: 1,
        }
    }
}

/// A transient probability vector with solver diagnostics.
#[derive(Debug, Clone)]
pub struct Transient {
    /// `π(t)`, indexed by state.
    pub probs: Vec<f64>,
    /// The time the vector is for (ms).
    pub t: f64,
    /// Uniformization rate Λ used (1/ms).
    pub lambda: f64,
    /// Number of Poisson terms summed.
    pub terms: usize,
}

/// Computes `π(t)` for the chain started from its initial
/// distribution.
///
/// # Errors
/// [`SolveError::InvalidTime`] if `t_ms` is negative or not finite;
/// [`SolveError::TruncationTooLong`] if `Λt` needs more than
/// `max_terms` Poisson terms at the requested tolerance.
pub fn transient(op: &Ctmc, t_ms: f64, opts: &TransientOptions) -> Result<Transient, SolveError> {
    // Boundary for the typed spill-failure channel: a disk-paged
    // generator whose read-back exhausts its retries surfaces here as
    // `Err(SolveError::SpillFailed)` instead of a panic.
    crate::catch_spill(|| transient_inner(op, t_ms, opts))
}

fn transient_inner(op: &Ctmc, t_ms: f64, opts: &TransientOptions) -> Result<Transient, SolveError> {
    check_time(t_ms)?;
    let n = op.num_states();
    let lambda = op.max_exit_rate();
    let lt = lambda * t_ms;
    if lt == 0.0 {
        return Ok(Transient {
            probs: op.initial().to_vec(),
            t: t_ms,
            lambda,
            terms: 0,
        });
    }
    let weights = poisson_weights(lt, opts)?;
    let _span = ctsim_obs::span("solver", "transient")
        .arg("t_ms", t_ms)
        .arg("lambda_t", lt)
        .arg("terms", weights.len())
        .arg("states", n);
    // v_k = π(0) P^k, accumulated into out with weight w_k.
    let mut v = op.initial().to_vec();
    let mut qv = vec![0.0; n];
    let mut out = vec![0.0; n];
    let last = weights.len() - 1;
    let mut batches = BatchSpans::start(weights.len());
    for (k, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            for (o, &x) in out.iter_mut().zip(&v) {
                *o += w * x;
            }
        }
        if k < last {
            uniformization_step(op, &mut v, &mut qv, lambda, opts.threads);
        }
        batches.term_done(k);
    }
    Ok(Transient {
        probs: out,
        t: t_ms,
        lambda,
        terms: weights.len(),
    })
}

/// Rejects times the Poisson mixture is not defined for.
fn check_time(t_ms: f64) -> Result<(), SolveError> {
    if t_ms >= 0.0 && t_ms.is_finite() {
        Ok(())
    } else {
        Err(SolveError::InvalidTime { t_ms })
    }
}

/// One uniformization step `v ← v P = v + (v Q)/Λ` through the sharded
/// gather product, with `qv` as scratch. If the product unwinds (a
/// failed spill read-back), `v` is untouched: only `qv` was written.
fn uniformization_step(op: &Ctmc, v: &mut [f64], qv: &mut [f64], lambda: f64, threads: usize) {
    op.vec_mul(v, qv, threads);
    for (x, &q) in v.iter_mut().zip(qv.iter()) {
        *x += q / lambda;
    }
}

/// Emits one `solver/uniformization_batch` span per [`TRACE_BATCH`]
/// terms (and one for the final partial batch) when telemetry is on.
struct BatchSpans {
    total: usize,
    t0: u64,
}

impl BatchSpans {
    /// Starts timing the terms `..total` of one pass.
    fn start(total: usize) -> Self {
        let t0 = if ctsim_obs::enabled() {
            ctsim_obs::now_us()
        } else {
            0
        };
        Self { total, t0 }
    }

    /// Records that term `k` is done.
    fn term_done(&mut self, k: usize) {
        if ctsim_obs::enabled() && ((k + 1) % TRACE_BATCH == 0 || k + 1 == self.total) {
            ctsim_obs::record_span(
                "solver",
                "uniformization_batch",
                self.t0,
                vec![
                    ("through_term", (k + 1).into()),
                    ("terms", self.total.into()),
                ],
            );
            self.t0 = ctsim_obs::now_us();
        }
    }
}

/// The absorbed-mass sequence `a_k = Σ_{s ∈ goal} (π(0) P^k)_s` of one
/// chain, extended on demand. It holds `v_K = π(0) P^K`, one scratch
/// vector and `a_0..=a_K`: two `n`-vectors once the first point is
/// evaluated, plus one `f64` per term.
///
/// The sequence depends only on the generator, not on `epsilon`,
/// `max_terms` or `threads`, so one instance serves every CDF point of
/// a run. Each extension step commits `v_{K+1}` and `a_{K+1}` together
/// after the product has returned, so a product that unwinds (a failed
/// spill read-back) leaves a valid, shorter prefix behind.
#[derive(Debug, Default)]
pub(crate) struct AbsorbedMass {
    v: Vec<f64>,
    qv: Vec<f64>,
    mass: Vec<f64>,
}

impl AbsorbedMass {
    /// `P(absorbed in goal by t)`: the Fox–Glynn weights of `Λt` applied
    /// to the cached sequence, `Σ_k w_k a_k` summed in `k` order. Extends
    /// the sequence first if `t` needs more terms than are cached.
    ///
    /// `goal[s]` marks the absorbing goal states; it must stay the same
    /// across calls on one instance, as must `op`.
    ///
    /// # Errors
    /// [`SolveError::InvalidTime`] and [`SolveError::TruncationTooLong`]
    /// as for [`transient()`]; a spill read-back failure unwinds out of
    /// the product (callers run this under `catch_spill`).
    pub(crate) fn cdf(
        &mut self,
        op: &Ctmc,
        goal: &[bool],
        t_ms: f64,
        opts: &TransientOptions,
    ) -> Result<f64, SolveError> {
        check_time(t_ms)?;
        let lambda = op.max_exit_rate();
        let lt = lambda * t_ms;
        let weights = poisson_weights(lt, opts)?;
        let terms = weights.len();
        let cached = self.mass.len();
        let _span = ctsim_obs::span("solver", "cdf")
            .arg("t_ms", t_ms)
            .arg("lambda_t", lt)
            .arg("terms", terms)
            .arg("reused_terms", terms.min(cached))
            .arg("new_terms", terms.saturating_sub(cached))
            .arg("states", op.num_states());
        self.extend(op, goal, terms, lambda, opts.threads);
        Ok(weights.iter().zip(&self.mass).map(|(w, a)| w * a).sum())
    }

    /// Grows the sequence to at least `terms` entries.
    fn extend(&mut self, op: &Ctmc, goal: &[bool], terms: usize, lambda: f64, threads: usize) {
        if self.mass.is_empty() {
            self.v = op.initial().to_vec();
            self.qv = vec![0.0; self.v.len()];
            self.mass.push(goal_mass(&self.v, goal));
        }
        let have = self.mass.len();
        if have >= terms {
            return;
        }
        let mut batches = BatchSpans::start(terms);
        for k in have..terms {
            uniformization_step(op, &mut self.v, &mut self.qv, lambda, threads);
            self.mass.push(goal_mass(&self.v, goal));
            batches.term_done(k);
        }
    }
}

/// `Σ_{s ∈ goal} v_s`, summed in state order.
fn goal_mass(v: &[f64], goal: &[bool]) -> f64 {
    debug_assert_eq!(v.len(), goal.len());
    v.iter()
        .zip(goal)
        .filter(|&(_, &g)| g)
        .map(|(&x, _)| x)
        .sum()
}

/// Normalized Poisson(lt) weights for `k = 0..=R`, with entries below
/// the left truncation point zeroed. Computed outward from the mode so
/// the unnormalized values stay in floating range.
fn poisson_weights(lt: f64, opts: &TransientOptions) -> Result<Vec<f64>, SolveError> {
    let mode = lt.floor() as usize;
    if mode + 1 > opts.max_terms {
        return Err(SolveError::TruncationTooLong {
            terms: opts.max_terms,
        });
    }
    // Unnormalized pmf relative to the mode value (= 1.0). The ratio
    // test keeps both tails until they are negligible at tolerance.
    let tail_cut = opts.epsilon * 1e-3;
    let mut left = vec![]; // mode-1 downto L
    let mut w = 1.0;
    let mut k = mode;
    while k > 0 {
        w *= k as f64 / lt;
        if w < tail_cut {
            break;
        }
        left.push(w);
        k -= 1;
    }
    let mut right = vec![]; // mode+1 upto R
    let mut w = 1.0;
    let mut k = mode;
    loop {
        k += 1;
        if k > opts.max_terms + mode {
            return Err(SolveError::TruncationTooLong {
                terms: opts.max_terms,
            });
        }
        w *= lt / k as f64;
        // Past the mode the ratios shrink monotonically; stop once the
        // remaining geometric tail is below tolerance.
        if w < tail_cut && k as f64 > lt {
            break;
        }
        right.push(w);
    }
    let first = mode - left.len();
    let mut weights = vec![0.0; first];
    weights.extend(left.iter().rev());
    weights.push(1.0);
    weights.extend(right.iter());
    if weights.len() > opts.max_terms {
        return Err(SolveError::TruncationTooLong {
            terms: opts.max_terms,
        });
    }
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ReachOptions, StateSpace};
    use crate::Ctmc;
    use ctsim_san::{Activity, Case, SanBuilder, SanModel};
    use ctsim_stoch::Dist;

    fn two_state(up_mean: f64, down_mean: f64) -> SanModel {
        let mut b = SanBuilder::new("bd");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.add_activity(
            Activity::timed("fail", Dist::Exp { mean: up_mean })
                .input(up, 1)
                .case(Case::with_prob(1.0).output(down, 1)),
        );
        b.add_activity(
            Activity::timed("repair", Dist::Exp { mean: down_mean })
                .input(down, 1)
                .case(Case::with_prob(1.0).output(up, 1)),
        );
        b.build().unwrap()
    }

    fn solve_two_state(t: f64, up_mean: f64, down_mean: f64) -> Vec<f64> {
        let m = two_state(up_mean, down_mean);
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        transient(&q, t, &TransientOptions::default())
            .unwrap()
            .probs
    }

    /// Closed form for the two-state chain started in state 0:
    /// p0(t) = μ/(λ+μ) + λ/(λ+μ) e^{-(λ+μ)t}.
    #[test]
    fn matches_two_state_closed_form() {
        let (lam, mu) = (1.0 / 4.0, 1.0 / 0.5); // means 4 and 0.5
        for t in [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0] {
            let p = solve_two_state(t, 4.0, 0.5);
            let expect = mu / (lam + mu) + lam / (lam + mu) * (-(lam + mu) * t).exp();
            assert!(
                (p[0] - expect).abs() < 1e-9,
                "t={t}: p0 {} vs closed form {expect}",
                p[0]
            );
            assert!((p[0] + p[1] - 1.0).abs() < 1e-9, "mass at t={t}");
        }
    }

    /// Large Λt exercises the Fox–Glynn style mode-relative weights.
    #[test]
    fn large_time_stays_normalized_and_stationary() {
        let p = solve_two_state(2000.0, 1.0, 1.0);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
        assert!((p[0] - 0.5).abs() < 1e-9, "stationary split, got {}", p[0]);
    }

    /// Poisson weights are a proper distribution around the mode.
    #[test]
    fn poisson_weights_are_normalized() {
        for lt in [0.3, 1.0, 7.5, 300.0, 12_345.6] {
            let w = poisson_weights(lt, &TransientOptions::default()).unwrap();
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "lt={lt}: sum {sum}");
            // The mode has the largest weight.
            let mode = lt.floor() as usize;
            let max = w.iter().cloned().fold(0.0, f64::max);
            assert_eq!(w[mode], max, "lt={lt}");
        }
    }

    /// The term cap errors instead of looping.
    #[test]
    fn term_cap_is_enforced() {
        let opts = TransientOptions {
            max_terms: 100,
            ..TransientOptions::default()
        };
        let err = poisson_weights(1e6, &opts).unwrap_err();
        assert!(matches!(err, SolveError::TruncationTooLong { .. }));
    }

    /// Negative and non-finite times are typed errors, not panics.
    #[test]
    fn invalid_times_are_rejected() {
        let m = two_state(1.0, 1.0);
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let err = transient(&q, t, &TransientOptions::default()).unwrap_err();
            assert!(
                matches!(err, SolveError::InvalidTime { t_ms } if t_ms.to_bits() == t.to_bits()),
                "t={t}: {err:?}"
            );
        }
    }

    /// An absorbing chain funnels all mass into the absorbing state.
    #[test]
    fn absorbing_chain_accumulates_mass() {
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
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        // P(absorbed by t) = 1 - e^{-t/2}.
        for t in [0.5, 2.0, 8.0] {
            let sol = transient(&ctmc, t, &TransientOptions::default()).unwrap();
            let expect = 1.0 - (-t / 2.0f64).exp();
            assert!((sol.probs[1] - expect).abs() < 1e-9, "t={t}");
        }
    }
}
