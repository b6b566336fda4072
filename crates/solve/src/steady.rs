//! Layer 3b: steady-state and absorption-time solvers, pluggable over
//! [`SolverBackend`].
//!
//! * [`steady_state`] solves the global balance equations `πQ = 0`,
//!   `Σπ = 1` for an irreducible chain;
//! * [`mean_time_to_absorption`] solves `Q_TT τ = -1` for the expected
//!   time each transient state needs to reach an absorbing state — the
//!   analytic counterpart of the simulator's mean-latency estimate.
//!
//! Both dispatch on [`IterOptions::backend`]:
//! [`SolverBackend::GaussSeidel`] runs the original in-place sweeps
//! (the reference), [`SolverBackend::Jacobi`] double-buffered
//! Jacobi/uniformized-power steps whose updates are one sharded SpMV
//! over [`IterOptions::threads`] workers, and [`SolverBackend::Krylov`]
//! restarted GMRES (see the `krylov` module docs).
//! Every backend converges on the same sup-norm residual to the same
//! [`IterOptions::tolerance`], so a converged answer is
//! backend-independent down to round-off; backends that cannot make the
//! tolerance return [`SolveError::NotConverged`] with finite
//! diagnostics — never NaNs, never a hang.

use crate::backend::SolverBackend;
use crate::ctmc::Ctmc;
use crate::{krylov, SolveError};

/// Iterations per telemetry batch span in the stationary loops.
const TRACE_BATCH: usize = 64;

/// Per-iteration telemetry for a stationary solver loop: one point on
/// the residual trace, plus an `iter_batch` span closed every
/// [`TRACE_BATCH`] iterations or at convergence. Callers guard on
/// [`ctsim_obs::enabled`], so the disabled cost of a sweep stays one
/// atomic load and branch.
fn trace_iteration(
    backend: &'static str,
    iter: usize,
    residual: f64,
    done: bool,
    batch_t0: &mut u64,
) {
    ctsim_obs::series_push(&format!("solver.residual/{backend}"), iter as f64, residual);
    if done || iter % TRACE_BATCH == 0 {
        ctsim_obs::record_span(
            "solver",
            "iter_batch",
            *batch_t0,
            vec![
                ("backend", backend.into()),
                ("through_iter", iter.into()),
                ("residual", residual.into()),
            ],
        );
        *batch_t0 = ctsim_obs::now_us();
    }
}

/// Iteration limits, tolerance, and backend selection for the
/// steady-state/absorption solvers.
#[derive(Debug, Clone)]
pub struct IterOptions {
    /// Convergence threshold on the sup-norm residual.
    pub tolerance: f64,
    /// Iteration budget: sweeps (Gauss–Seidel), steps (Jacobi), or
    /// matrix–vector products (Krylov) before giving up.
    pub max_iterations: usize,
    /// Which linear-algebra backend iterates.
    pub backend: SolverBackend,
    /// Worker threads for the sharded SpMV of the Jacobi and Krylov
    /// backends (`0` = one per core, `1` = inline). Results are
    /// bit-identical for every value; Gauss–Seidel is sequential by
    /// construction and ignores this.
    pub threads: usize,
    /// Krylov restart dimension (Arnoldi steps per GMRES cycle).
    /// Trimmed automatically on multi-million-state systems to bound
    /// basis memory; ignored by the stationary backends.
    pub restart: usize,
    /// Optional warm-start iterate from a previous solve on a chain
    /// with the *same state numbering* (e.g. the previous grid point of
    /// a rate-only campaign sweep): for [`steady_state`] a (possibly
    /// unnormalized) probability vector, for
    /// [`mean_time_to_absorption`] the previous
    /// [`AbsorptionTimes::per_state`] times. Ignored unless its length
    /// matches the state count and every entry is finite.
    ///
    /// Warm starting changes the iteration trajectory, so a converged
    /// answer agrees with the cold one only to the residual tolerance,
    /// not bit-for-bit — campaign drivers that promise bit-identical
    /// Gauss–Seidel means leave this `None` for that backend.
    pub warm_start: Option<Vec<f64>>,
    /// Opt-in graceful degradation: when the selected backend fails
    /// recoverably, walk the fallback chain
    /// ([`SolverBackend::fallback_after`]) — `Krylov NotConverged →
    /// Gauss-Seidel`, `Gauss-Seidel ResidentOnly → Jacobi` — instead
    /// of surfacing the error. The result records which backend
    /// actually produced the answer in
    /// [`SteadyState::solved_by`] / [`AbsorptionTimes::solved_by`].
    /// Off by default: agreement gates and bit-identity tests want the
    /// backend they asked for or a loud error.
    pub fallback: bool,
}

impl Default for IterOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-12,
            max_iterations: 100_000,
            backend: SolverBackend::default(),
            threads: 1,
            restart: 30,
            warm_start: None,
            fallback: false,
        }
    }
}

impl IterOptions {
    /// Default tolerances with the given backend and SpMV thread count.
    pub fn with_backend(backend: SolverBackend, threads: usize) -> Self {
        Self {
            backend,
            threads,
            ..Self::default()
        }
    }
}

/// The validated warm-start vector, if one is usable for an `n`-state
/// chain: right length, all entries finite. Anything else falls back to
/// the backend's cold initial iterate.
fn warm_vec(opts: &IterOptions, n: usize) -> Option<&[f64]> {
    opts.warm_start
        .as_deref()
        .filter(|w| w.len() == n && w.iter().all(|x| x.is_finite()))
}

/// Initial π iterate for the stationary solvers: the warm start
/// clamped non-negative and renormalized, or the uniform distribution.
pub(crate) fn initial_pi(n: usize, opts: &IterOptions) -> Vec<f64> {
    if let Some(w) = warm_vec(opts, n) {
        let mut pi: Vec<f64> = w.iter().map(|&x| x.max(0.0)).collect();
        let total: f64 = pi.iter().sum();
        if total.is_finite() && total > 0.0 {
            for p in &mut pi {
                *p /= total;
            }
            if ctsim_obs::enabled() {
                ctsim_obs::counter_add("solver.warm_starts", 1);
            }
            return pi;
        }
    }
    vec![1.0 / n as f64; n]
}

/// Initial τ iterate for the absorption solvers: the warm start with
/// absorbing entries scrubbed to their exact value 0, or all zeros.
pub(crate) fn initial_tau(op: &Ctmc, opts: &IterOptions) -> Option<Vec<f64>> {
    let n = op.num_states();
    let w = warm_vec(opts, n)?;
    let mut tau = w.to_vec();
    for (i, t) in tau.iter_mut().enumerate() {
        if op.is_absorbing(i) {
            *t = 0.0;
        }
    }
    if ctsim_obs::enabled() {
        ctsim_obs::counter_add("solver.warm_starts", 1);
    }
    Some(tau)
}

/// A steady-state distribution with convergence diagnostics.
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// The stationary distribution π.
    pub probs: Vec<f64>,
    /// Iterations performed (sweeps / steps / matvecs by backend).
    pub iterations: usize,
    /// Final sup-norm of `πQ` (the balance residual).
    pub residual: f64,
    /// The backend that actually produced this answer — differs from
    /// [`IterOptions::backend`] only when a fallback chain
    /// ([`IterOptions::fallback`]) stepped in.
    pub solved_by: SolverBackend,
}

/// Solves `πQ = 0`, `Σπ = 1` for the generator `op` with the backend
/// named in `opts`.
///
/// # Errors
/// * [`SolveError::SteadyStateUndefined`] if the chain has an absorbing
///   (zero-exit-rate) state but more than one state — the stationary
///   distribution is then a question about absorption, not balance.
/// * [`SolveError::NotConverged`] if the residual does not fall below
///   the tolerance within the iteration budget (e.g. the chain is
///   reducible, or a stiff chain outruns a stationary backend's
///   budget).
pub fn steady_state(op: &Ctmc, opts: &IterOptions) -> Result<SteadyState, SolveError> {
    let n = op.num_states();
    if n == 0 {
        return Err(SolveError::EmptyStateSpace);
    }
    if n == 1 {
        return Ok(SteadyState {
            probs: vec![1.0],
            iterations: 0,
            residual: 0.0,
            solved_by: opts.backend,
        });
    }
    if (0..n).any(|i| op.is_absorbing(i)) {
        return Err(SolveError::SteadyStateUndefined);
    }
    let _span = ctsim_obs::span("solver", "steady_state")
        .arg("backend", opts.backend.to_string())
        .arg("states", n);
    crate::catch_spill(|| {
        let mut backend = opts.backend;
        loop {
            let result = match backend {
                SolverBackend::GaussSeidel => steady_gauss_seidel(op, opts),
                SolverBackend::Jacobi => steady_jacobi(op, opts),
                SolverBackend::Krylov => krylov::steady(op, opts),
            };
            match result {
                Err(e) if opts.fallback => match backend.fallback_after(&e) {
                    Some(next) => {
                        note_fallback("steady_state", backend, next, &e);
                        backend = next;
                    }
                    None => return Err(e),
                },
                other => return other,
            }
        }
    })
}

/// Records one fallback-chain step: the `resilience.fallbacks` counter
/// and a trace instant naming the edge taken, so a `--fallback` answer
/// is auditable after the fact.
fn note_fallback(what: &'static str, from: SolverBackend, to: SolverBackend, err: &SolveError) {
    if ctsim_obs::enabled() {
        ctsim_obs::counter_add("resilience.fallbacks", 1);
        ctsim_obs::instant(
            "resilience",
            format!("fallback.{what}"),
            vec![
                ("from", from.name().into()),
                ("to", to.name().into()),
                ("cause", err.to_string().into()),
            ],
        );
    }
}

/// The reference backend: in-place Gauss–Seidel sweeps over the
/// operator's (cached) incoming-column view.
///
/// Resident-only: the sweeps materialise the full incoming transpose
/// and update π in place, so running them against a generator whose
/// rows were paged to disk would silently re-acquire the entire
/// `O(rates)` footprint the spill budget was meant to cap. A streamed
/// generator is refused up front with [`SolveError::ResidentOnly`] —
/// the Jacobi and Krylov backends handle that case.
fn steady_gauss_seidel(op: &Ctmc, opts: &IterOptions) -> Result<SteadyState, SolveError> {
    if op.is_streamed() {
        return Err(SolveError::ResidentOnly {
            backend: "gauss-seidel".into(),
        });
    }
    let n = op.num_states();
    let mut pi = initial_pi(n, opts);
    let mut qv = vec![0.0; n];
    let mut residual = f64::INFINITY;
    let mut batch_t0 = if ctsim_obs::enabled() {
        ctsim_obs::now_us()
    } else {
        0
    };
    for sweep in 1..=opts.max_iterations {
        // π_j ← (Σ_{i≠j} π_i q_ij) / |q_jj|, in place (Gauss–Seidel).
        for j in 0..n {
            let inflow: f64 = op.column(j).iter().map(|&(i, r)| pi[i] * r).sum();
            pi[j] = inflow / -op.diag(j);
        }
        let total: f64 = pi.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(SolveError::NotConverged {
                iterations: sweep,
                residual: f64::INFINITY,
            });
        }
        for p in &mut pi {
            *p /= total;
        }
        // Residual: sup-norm of the balance equations πQ.
        op.vec_mul(&pi, &mut qv, 1);
        residual = qv.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if ctsim_obs::enabled() {
            let done = residual <= opts.tolerance;
            trace_iteration("steady_gauss_seidel", sweep, residual, done, &mut batch_t0);
        }
        if residual <= opts.tolerance {
            return Ok(SteadyState {
                probs: pi,
                iterations: sweep,
                residual,
                solved_by: SolverBackend::GaussSeidel,
            });
        }
        if !residual.is_finite() {
            return Err(SolveError::NotConverged {
                iterations: sweep,
                residual,
            });
        }
    }
    Err(SolveError::NotConverged {
        iterations: opts.max_iterations,
        residual,
    })
}

/// The parallel stationary backend: damped Jacobi — equivalently, the
/// power method on the uniformized chain `P = I + Q/Λ̂` with
/// `Λ̂ = 1.05·max_i|q_ii|`. The slack above the uniformization rate
/// keeps a positive self-loop on every state, so `P` is aperiodic and
/// the iteration converges for every irreducible chain (a plain jump-
/// chain Jacobi split would cycle on periodic chains). Each step is one
/// sharded `π·Q` product over [`IterOptions::threads`] workers plus two
/// `O(n)` passes.
fn steady_jacobi(op: &Ctmc, opts: &IterOptions) -> Result<SteadyState, SolveError> {
    let n = op.num_states();
    let lambda = op.max_exit_rate() * 1.05;
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(SolveError::NotConverged {
            iterations: 0,
            residual: f64::INFINITY,
        });
    }
    let mut pi = initial_pi(n, opts);
    let mut qv = vec![0.0; n];
    let mut residual = f64::INFINITY;
    let mut batch_t0 = if ctsim_obs::enabled() {
        ctsim_obs::now_us()
    } else {
        0
    };
    for step in 1..=opts.max_iterations {
        op.vec_mul(&pi, &mut qv, opts.threads);
        // The product is the residual of the *current* normalized
        // iterate — free, exactly like the Gauss–Seidel check.
        residual = qv.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if ctsim_obs::enabled() {
            let done = residual <= opts.tolerance;
            trace_iteration("steady_jacobi", step, residual, done, &mut batch_t0);
        }
        if residual <= opts.tolerance {
            return Ok(SteadyState {
                probs: pi,
                iterations: step,
                residual,
                solved_by: SolverBackend::Jacobi,
            });
        }
        if !residual.is_finite() {
            return Err(SolveError::NotConverged {
                iterations: step,
                residual,
            });
        }
        // π ← π + (πQ)/Λ̂ = π·P, then renormalize to stem drift.
        for (p, &q) in pi.iter_mut().zip(&qv) {
            *p += q / lambda;
        }
        let total: f64 = pi.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(SolveError::NotConverged {
                iterations: step,
                residual: f64::INFINITY,
            });
        }
        for p in &mut pi {
            *p /= total;
        }
    }
    Err(SolveError::NotConverged {
        iterations: opts.max_iterations,
        residual,
    })
}

/// Expected absorption times with convergence diagnostics.
#[derive(Debug, Clone)]
pub struct AbsorptionTimes {
    /// `τ_i`: expected time (ms) to reach an absorbing state from state
    /// `i` (0 for absorbing states).
    pub per_state: Vec<f64>,
    /// `Σ_i π0_i τ_i`: expected absorption time from the initial
    /// distribution (ms).
    pub mean: f64,
    /// Iterations performed (sweeps / steps / matvecs by backend).
    pub iterations: usize,
    /// Final sup-norm residual of `Q_TT τ + 1`.
    pub residual: f64,
    /// The backend that actually produced this answer — differs from
    /// [`IterOptions::backend`] only when a fallback chain
    /// ([`IterOptions::fallback`]) stepped in.
    pub solved_by: SolverBackend,
}

/// Solves the expected time to absorption from every state of the
/// generator `op` with the backend named in `opts`.
///
/// # Errors
/// * [`SolveError::NoAbsorbingStates`] if the chain has none.
/// * [`SolveError::NotConverged`] if absorption is not certain from
///   some reachable state (the expected time is then infinite) or the
///   iteration budget is exhausted.
pub fn mean_time_to_absorption(
    op: &Ctmc,
    opts: &IterOptions,
) -> Result<AbsorptionTimes, SolveError> {
    let n = op.num_states();
    if n == 0 {
        return Err(SolveError::EmptyStateSpace);
    }
    if !(0..n).any(|i| op.is_absorbing(i)) {
        return Err(SolveError::NoAbsorbingStates);
    }
    let _span = ctsim_obs::span("solver", "mean_time_to_absorption")
        .arg("backend", opts.backend.to_string())
        .arg("states", n);
    crate::catch_spill(|| {
        let mut backend = opts.backend;
        loop {
            let result = match backend {
                SolverBackend::GaussSeidel => absorption_gauss_seidel(op, opts),
                SolverBackend::Jacobi => absorption_jacobi(op, opts),
                SolverBackend::Krylov => krylov::absorption(op, opts),
            };
            match result {
                Err(e) if opts.fallback => match backend.fallback_after(&e) {
                    Some(next) => {
                        note_fallback("mean_time_to_absorption", backend, next, &e);
                        backend = next;
                    }
                    None => return Err(e),
                },
                other => return other,
            }
        }
    })
}

/// The reference backend: in-place Gauss–Seidel sweeps on `Q_TT τ = -1`.
///
/// Resident-only, like [`steady_gauss_seidel`]: each sweep reads every
/// row while writing τ in place, an access pattern the disk pager
/// cannot serve without thrashing. Streamed generators are refused
/// with [`SolveError::ResidentOnly`]; use Jacobi or Krylov (the
/// default first-passage path), which sweep rows in shard order.
fn absorption_gauss_seidel(op: &Ctmc, opts: &IterOptions) -> Result<AbsorptionTimes, SolveError> {
    if op.is_streamed() {
        return Err(SolveError::ResidentOnly {
            backend: "gauss-seidel".into(),
        });
    }
    let n = op.num_states();
    let mut tau = initial_tau(op, opts).unwrap_or_else(|| vec![0.0; n]);
    let mut residual = f64::INFINITY;
    let mut batch_t0 = if ctsim_obs::enabled() {
        ctsim_obs::now_us()
    } else {
        0
    };
    for sweep in 1..=opts.max_iterations {
        // τ_j ← (1 + Σ_k q_jk τ_k) / |q_jj| over transient states, in
        // place (Gauss–Seidel on Q_TT τ = -1; absorbing τ stay 0). The
        // pre-update defect |q_jj·τ_j + flow + 1| is a free by-product
        // of the same flow sum and serves as the convergence residual:
        // it vanishes exactly at the fixed point.
        residual = 0.0;
        for j in 0..n {
            if op.is_absorbing(j) {
                continue;
            }
            // Same fold as `op.row(j).map(..).sum()` (the row is
            // non-empty on a non-absorbing state), resolved through
            // the once-per-row entry walk.
            let mut flow = 0.0;
            op.for_each_in_row(j, |k, r| flow += r * tau[k]);
            residual = residual.max((op.diag(j) * tau[j] + flow + 1.0).abs());
            tau[j] = (1.0 + flow) / -op.diag(j);
        }
        if ctsim_obs::enabled() {
            let done = residual <= opts.tolerance;
            trace_iteration(
                "absorption_gauss_seidel",
                sweep,
                residual,
                done,
                &mut batch_t0,
            );
        }
        if residual <= opts.tolerance {
            let mean = op.initial().iter().zip(&tau).map(|(&p, &t)| p * t).sum();
            return Ok(AbsorptionTimes {
                per_state: tau,
                mean,
                iterations: sweep,
                residual,
                solved_by: SolverBackend::GaussSeidel,
            });
        }
        if !residual.is_finite() {
            return Err(SolveError::NotConverged {
                iterations: sweep,
                residual,
            });
        }
    }
    Err(SolveError::NotConverged {
        iterations: opts.max_iterations,
        residual,
    })
}

/// The parallel stationary backend: double-buffered Jacobi on
/// `Q_TT τ = -1`. The flow gather `Σ_k q_jk τ_k` is one sharded
/// row-oriented SpMV; since every update reads only the previous
/// iterate, the buffers swap and no write order matters.
fn absorption_jacobi(op: &Ctmc, opts: &IterOptions) -> Result<AbsorptionTimes, SolveError> {
    let n = op.num_states();
    let mut tau = initial_tau(op, opts).unwrap_or_else(|| vec![0.0; n]);
    let mut flow = vec![0.0; n];
    let mut residual = f64::INFINITY;
    let mut batch_t0 = if ctsim_obs::enabled() {
        ctsim_obs::now_us()
    } else {
        0
    };
    for step in 1..=opts.max_iterations {
        op.flow_mul(&tau, &mut flow, opts.threads);
        residual = 0.0;
        for j in 0..n {
            if op.is_absorbing(j) {
                flow[j] = 0.0;
                continue;
            }
            residual = residual.max((op.diag(j) * tau[j] + flow[j] + 1.0).abs());
            flow[j] = (1.0 + flow[j]) / -op.diag(j);
        }
        std::mem::swap(&mut tau, &mut flow);
        if ctsim_obs::enabled() {
            let done = residual <= opts.tolerance;
            trace_iteration("absorption_jacobi", step, residual, done, &mut batch_t0);
        }
        if residual <= opts.tolerance {
            let mean = op.initial().iter().zip(&tau).map(|(&p, &t)| p * t).sum();
            return Ok(AbsorptionTimes {
                per_state: tau,
                mean,
                iterations: step,
                residual,
                solved_by: SolverBackend::Jacobi,
            });
        }
        if !residual.is_finite() {
            return Err(SolveError::NotConverged {
                iterations: step,
                residual,
            });
        }
    }
    Err(SolveError::NotConverged {
        iterations: opts.max_iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ReachOptions, StateSpace};
    use crate::Ctmc;
    use ctsim_san::{Activity, Case, SanBuilder, SanModel};
    use ctsim_stoch::Dist;

    fn cyclic(n_stations: usize, means: &[f64]) -> SanModel {
        let mut b = SanBuilder::new("cycle");
        let places: Vec<_> = (0..n_stations)
            .map(|i| b.place(format!("p{i}"), u32::from(i == 0)))
            .collect();
        for i in 0..n_stations {
            b.add_activity(
                Activity::timed(
                    format!("t{i}"),
                    Dist::Exp {
                        mean: means[i % means.len()],
                    },
                )
                .input(places[i], 1)
                .case(Case::with_prob(1.0).output(places[(i + 1) % n_stations], 1)),
            );
        }
        b.build().unwrap()
    }

    /// In a cyclic chain the stationary probability of each state is
    /// proportional to its mean holding time — for every backend.
    #[test]
    fn cycle_stationary_probabilities_follow_holding_times() {
        let means = [1.0, 3.0, 6.0];
        let m = cyclic(3, &means);
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        let total: f64 = means.iter().sum();
        for backend in SolverBackend::ALL {
            let sol = steady_state(&q, &IterOptions::with_backend(backend, 1)).unwrap();
            for (i, &p) in sol.probs.iter().enumerate() {
                // State i of the exploration holds the token at station i.
                let hold = ss
                    .tokens(i)
                    .iter()
                    .position(|&t| t > 0)
                    .map(|st| means[st])
                    .unwrap();
                assert!(
                    (p - hold / total).abs() < 1e-9,
                    "{backend}: state {i}: π {p} vs {}",
                    hold / total
                );
            }
            assert!(sol.residual <= 1e-12, "{backend}: {}", sol.residual);
            assert!(sol.iterations > 0, "{backend}");
        }
    }

    #[test]
    fn absorbing_chain_rejects_steady_state() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        for backend in SolverBackend::ALL {
            assert!(matches!(
                steady_state(&ctmc, &IterOptions::with_backend(backend, 1)),
                Err(SolveError::SteadyStateUndefined)
            ));
        }
    }

    /// A 3-stage Erlang-like pipeline: mean absorption time is the sum
    /// of the stage means — for every backend.
    #[test]
    fn pipeline_absorption_time_adds_stage_means() {
        let mut b = SanBuilder::new("m");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let p2 = b.place("p2", 0);
        let p3 = b.place("p3", 0);
        for (i, (from, to, mean)) in [(p0, p1, 2.0), (p1, p2, 5.0), (p2, p3, 1.0)]
            .into_iter()
            .enumerate()
        {
            b.add_activity(
                Activity::timed(format!("t{i}"), Dist::Exp { mean })
                    .input(from, 1)
                    .case(Case::with_prob(1.0).output(to, 1)),
            );
        }
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        for backend in SolverBackend::ALL {
            let sol =
                mean_time_to_absorption(&ctmc, &IterOptions::with_backend(backend, 1)).unwrap();
            assert!(
                (sol.mean - 8.0).abs() < 1e-9,
                "{backend}: mean {}",
                sol.mean
            );
        }
    }

    /// A chain with no absorbing state cannot have absorption times.
    #[test]
    fn recurrent_chain_rejects_absorption_times() {
        let m = cyclic(3, &[1.0]);
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        for backend in SolverBackend::ALL {
            assert!(matches!(
                mean_time_to_absorption(&ctmc, &IterOptions::with_backend(backend, 1)),
                Err(SolveError::NoAbsorbingStates)
            ));
        }
    }

    /// Competing absorption with a branch: closed-form check.
    /// From s0: rate a to absorb, rate b to s1; s1 absorbs at rate c.
    #[test]
    fn branching_absorption_closed_form() {
        let mut b = SanBuilder::new("m");
        let s0 = b.place("s0", 1);
        let s1 = b.place("s1", 0);
        let done = b.place("done", 0);
        b.add_activity(
            Activity::timed("direct", Dist::Exp { mean: 2.0 }) // rate a = 0.5
                .input(s0, 1)
                .case(Case::with_prob(1.0).output(done, 1)),
        );
        b.add_activity(
            Activity::timed("detour", Dist::Exp { mean: 1.0 }) // rate b = 1.0
                .input(s0, 1)
                .case(Case::with_prob(1.0).output(s1, 1)),
        );
        b.add_activity(
            Activity::timed("finish", Dist::Exp { mean: 4.0 }) // rate c = 0.25
                .input(s1, 1)
                .case(Case::with_prob(1.0).output(done, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        // τ(s0) = 1/(a+b) + b/(a+b) · 1/c = 2/3 + (2/3)·4 = 10/3.
        for backend in SolverBackend::ALL {
            let sol =
                mean_time_to_absorption(&ctmc, &IterOptions::with_backend(backend, 1)).unwrap();
            assert!(
                (sol.mean - 10.0 / 3.0).abs() < 1e-9,
                "{backend}: mean {}",
                sol.mean
            );
        }
    }

    /// All backends land on the same stationary vector of an irregular
    /// chain, across SpMV thread counts.
    #[test]
    fn backends_agree_on_irregular_cycle() {
        let means = [0.3, 2.0, 0.7, 5.0, 1.1];
        let m = cyclic(5, &means);
        let ss = StateSpace::explore(&m, &ReachOptions::default(), None).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        let reference = steady_state(&q, &IterOptions::default()).unwrap();
        for backend in [SolverBackend::Jacobi, SolverBackend::Krylov] {
            for threads in [1usize, 2, 8] {
                let sol = steady_state(&q, &IterOptions::with_backend(backend, threads)).unwrap();
                for (s, (&a, &b)) in reference.probs.iter().zip(&sol.probs).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-10,
                        "{backend}/{threads}t state {s}: {a} vs {b}"
                    );
                }
            }
        }
    }
}
