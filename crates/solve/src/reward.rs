//! Layer 4: reward evaluation over solved distributions.
//!
//! The simulator accumulates rate rewards by integrating a marking
//! function along one trajectory ([`ctsim_san::Simulator::set_rate_reward`])
//! and impulse rewards by counting completions. The analytic path
//! evaluates the *same closures* against a probability vector instead:
//! `E[f(M(t))] = Σ_s π_s(t) · f(marking_s)`, and the completion
//! frequency of an activity is its enabled rate weighted by the state
//! probabilities. [`AnalyticRun`] packages the common first-passage
//! workflow ("time until a predicate holds") into a `RunOutcome`-style
//! result comparable against [`ctsim_san::replicate`] statistics.

use std::sync::{Mutex, PoisonError};

use ctsim_san::{ActivityId, Marking, SanModel};

use crate::ctmc::Ctmc;
use crate::graph::{ReachOptions, StateSpace};
use crate::steady::{mean_time_to_absorption, IterOptions};
use crate::transient::{AbsorbedMass, TransientOptions};
use crate::{SolveError, SolveOptions};

/// Expected value of a rate reward (a function of the marking) under a
/// probability vector over the state space.
pub fn expected_rate_reward(
    space: &StateSpace<'_>,
    probs: &[f64],
    reward: impl Fn(&Marking) -> f64,
) -> f64 {
    assert_eq!(probs.len(), space.len());
    probs
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p > 0.0)
        .map(|(s, &p)| p * reward(&space.marking(s)))
        .sum()
}

/// Probability that a marking predicate holds under a probability
/// vector (a {0,1}-valued rate reward).
pub fn probability(space: &StateSpace<'_>, probs: &[f64], pred: impl Fn(&Marking) -> bool) -> f64 {
    expected_rate_reward(space, probs, |m| f64::from(pred(m)))
}

/// Expected completion frequency (1/ms) of impulse-rewarded activities:
/// `Σ_s π_s Σ_t completing(t) · r(activity_t) · rate_t`. With `r = 1`
/// for one activity this is its long-run firing rate, the analytic
/// counterpart of [`ctsim_san::Simulator::firing_counts`] per unit
/// time. Internal phase advances of expanded activities do not count as
/// completions; transitions of unexpanded non-exponential activities
/// (NaN rate) are skipped, as before the phase-type layer.
pub fn expected_impulse_rate(
    space: &StateSpace<'_>,
    probs: &[f64],
    reward: impl Fn(ActivityId) -> f64,
) -> f64 {
    assert_eq!(probs.len(), space.len());
    let mut total = 0.0;
    for (s, &p_s) in probs.iter().enumerate() {
        if p_s <= 0.0 {
            continue;
        }
        // Flat row-slice access: no per-state clone, and under spill
        // the sequential sweep streams each arena segment exactly once.
        let outs = space.outgoing(s);
        for t in outs.iter() {
            if !t.completes || !t.rate.is_finite() {
                continue;
            }
            let r = reward(t.activity);
            if r == 0.0 {
                continue;
            }
            total += p_s * t.q() * r;
        }
    }
    total
}

/// A solved first-passage problem: the state space explored with the
/// goal predicate absorbing, plus its CSR generator.
///
/// This is the analytic replacement for the replication loop "run until
/// the predicate holds, record the time": the absorbed probability mass
/// at `t` is the latency CDF, and the mean absorption time is the mean
/// latency the paper tabulates.
///
/// CDF points share one uniformization sequence: the run caches the
/// absorbed mass of every Poisson term computed so far (see
/// [`AnalyticRun::cdf`]).
pub struct AnalyticRun<'m> {
    space: StateSpace<'m>,
    ctmc: Ctmc,
    absorbed: Mutex<AbsorbedMass>,
}

// The sequence cache sits behind a `Mutex` so a run stays shareable
// across threads, as it was before the cache existed.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<AnalyticRun<'static>>();
};

impl std::fmt::Debug for AnalyticRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyticRun")
            .field("states", &self.space.len())
            .field("rates", &self.ctmc.num_rates())
            .finish()
    }
}

/// Mean first-passage result in the shape of a replication summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticOutcome {
    /// Expected time until the predicate first holds (ms).
    pub mean_ms: f64,
    /// Number of tangible states explored.
    pub states: usize,
    /// Number of generator-matrix rates.
    pub rates: usize,
    /// Gauss–Seidel sweeps used for the mean.
    pub iterations: usize,
    /// The backend that actually produced the mean — differs from
    /// [`IterOptions::backend`] only when a fallback chain
    /// ([`IterOptions::fallback`]) stepped in.
    pub solved_by: crate::SolverBackend,
}

impl<'m> AnalyticRun<'m> {
    /// Explores `model` with `goal` absorbing and builds the CTMC. The
    /// streaming pipeline assembles generator rows per BFS level while
    /// later levels are still being explored, so explore → generator
    /// is one overlapped pass, not two serial ones.
    ///
    /// # Errors
    /// Exploration errors ([`SolveError::StateSpaceTooLarge`],
    /// [`SolveError::VanishingLoop`]) or [`SolveError::NonMarkovian`]
    /// when a reachable timed activity is not exponential and
    /// [`ReachOptions::ph_order`] is 0 (no phase-type expansion).
    pub fn first_passage(
        model: &'m SanModel,
        opts: &ReachOptions,
        goal: impl Fn(&Marking) -> bool + Sync,
    ) -> Result<Self, SolveError> {
        let (space, ctmc) = StateSpace::explore_ctmc(model, opts, Some(&goal))?;
        Ok(Self {
            space,
            ctmc,
            absorbed: Mutex::default(),
        })
    }

    /// [`AnalyticRun::first_passage`] with the top-level
    /// [`SolveOptions`] bundle — the entry point experiment code uses
    /// to dial phase-type order and exploration threads.
    pub fn first_passage_with(
        model: &'m SanModel,
        opts: &SolveOptions,
        goal: impl Fn(&Marking) -> bool + Sync,
    ) -> Result<Self, SolveError> {
        Self::first_passage(model, &opts.reach, goal)
    }

    /// The explored state space.
    pub fn space(&self) -> &StateSpace<'m> {
        &self.space
    }

    /// The CSR generator matrix.
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// `P(T ≤ t)`: probability the predicate holds by time `t` (ms) —
    /// one point of the latency CDF the paper plots.
    ///
    /// Points read from one lazily extended uniformization sequence per
    /// run, so a grid of points costs about as many products as its
    /// largest point alone. The value is a pure function of the run,
    /// `t_ms` and `opts`: it is bit-identical whatever the call order,
    /// and across `threads`. It can differ from summing
    /// [`transient()`](crate::transient())'s goal states by rounding
    /// only (the two sum the same terms in a different order).
    ///
    /// # Errors
    /// [`SolveError::InvalidTime`] for a negative or non-finite `t_ms`,
    /// [`SolveError::TruncationTooLong`] past `opts.max_terms`, and
    /// [`SolveError::SpillFailed`] if a paged generator cannot be read
    /// back; the terms cached before the failure stay valid.
    pub fn cdf(&self, t_ms: f64, opts: &TransientOptions) -> Result<f64, SolveError> {
        // A panic inside an extension cannot leave a torn prefix (see
        // `AbsorbedMass`), so a poisoned lock is safe to reuse.
        let mut absorbed = self.absorbed.lock().unwrap_or_else(PoisonError::into_inner);
        crate::catch_spill(|| absorbed.cdf(&self.ctmc, &self.space.absorbing, t_ms, opts))
    }

    /// The expected first-passage time, solved exactly from
    /// `Q_TT τ = -1` — no replications, no confidence interval.
    ///
    /// # Errors
    /// [`SolveError::GoalUnreachable`] if the model can deadlock in a
    /// state the predicate does not accept: the goal is then reached
    /// with probability < 1 and the mean is infinite (the [`cdf`]
    /// plateau shows the reachable mass).
    ///
    /// [`cdf`]: AnalyticRun::cdf
    pub fn mean(&self, opts: &IterOptions) -> Result<AnalyticOutcome, SolveError> {
        // Every state is reachable by construction, so a rate-absorbing
        // state outside the goal set traps probability mass forever.
        if let Some(state) =
            (0..self.space.len()).find(|&s| self.ctmc.is_absorbing(s) && !self.space.absorbing[s])
        {
            return Err(SolveError::GoalUnreachable { state });
        }
        let sol = mean_time_to_absorption(&self.ctmc, opts)?;
        Ok(AnalyticOutcome {
            mean_ms: sol.mean,
            states: self.space.len(),
            rates: self.ctmc.num_rates(),
            iterations: sol.iterations,
            solved_by: sol.solved_by,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steady::steady_state;
    use crate::transient::transient;
    use ctsim_san::{Activity, Case, SanBuilder, SanModel};
    use ctsim_stoch::Dist;

    /// The paper's two-state FD submodel solved analytically: the
    /// steady-state suspicion probability must be T_M / T_MR — the same
    /// quantity the simulator's rate reward recovers by integration.
    #[test]
    fn fd_suspicion_rate_reward_matches_qos_ratio() {
        let (t_mr, t_m) = (40.0, 8.0);
        let mut b = SanBuilder::new("fd");
        let trust = b.place("trust", 1);
        let susp = b.place("susp", 0);
        b.add_activity(
            Activity::timed("ts", Dist::Exp { mean: t_mr - t_m })
                .input(trust, 1)
                .case(Case::with_prob(1.0).output(susp, 1)),
        );
        b.add_activity(
            Activity::timed("st", Dist::Exp { mean: t_m })
                .input(susp, 1)
                .case(Case::with_prob(1.0).output(trust, 1)),
        );
        let model = b.build().unwrap();
        let ss = StateSpace::explore(&model, &ReachOptions::default(), None).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        let pi = steady_state(&ctmc, &IterOptions::default()).unwrap();
        let p_susp = expected_rate_reward(&ss, &pi.probs, |m| m.get(susp) as f64);
        assert!((p_susp - t_m / t_mr).abs() < 1e-9, "P(susp) {p_susp}");
        // Impulse view: mistakes occur at rate 1/T_MR (each trust→susp
        // completion is one mistake).
        let ts = model.activity("ts").unwrap();
        let mistakes = expected_impulse_rate(&ss, &pi.probs, |a| f64::from(a == ts));
        assert!((mistakes - 1.0 / t_mr).abs() < 1e-9, "rate {mistakes}");
    }

    fn chain(means: &[f64]) -> SanModel {
        let mut b = SanBuilder::new("chain");
        let places: Vec<_> = (0..=means.len())
            .map(|i| b.place(format!("p{i}"), u32::from(i == 0)))
            .collect();
        for (i, &mean) in means.iter().enumerate() {
            b.add_activity(
                Activity::timed(format!("t{i}"), Dist::Exp { mean })
                    .input(places[i], 1)
                    .case(Case::with_prob(1.0).output(places[i + 1], 1)),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn first_passage_mean_and_cdf_match_hypoexponential() {
        let model = chain(&[1.0, 3.0]);
        let goal = model.place("p2").unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let out = run.mean(&IterOptions::default()).unwrap();
        assert!((out.mean_ms - 4.0).abs() < 1e-9, "mean {}", out.mean_ms);
        assert_eq!(out.states, 3);
        // Hypoexponential CDF with rates 1 and 1/3:
        // F(t) = 1 - (r2 e^{-r1 t} - r1 e^{-r2 t}) / (r2 - r1).
        let (r1, r2) = (1.0f64, 1.0 / 3.0);
        for t in [0.5, 2.0, 6.0] {
            let f = run.cdf(t, &TransientOptions::default()).unwrap();
            let expect = 1.0 - (r2 * (-r1 * t).exp() - r1 * (-r2 * t).exp()) / (r2 - r1);
            assert!((f - expect).abs() < 1e-9, "t={t}: {f} vs {expect}");
        }
    }

    /// A model that can deadlock outside the goal set must refuse to
    /// report a (meaningless, finite) mean — while the CDF still shows
    /// where the reachable probability mass plateaus.
    #[test]
    fn dead_end_outside_goal_rejects_mean_but_cdf_plateaus() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let goal = b.place("goal", 0);
        let stuck = b.place("stuck", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(0.6).output(goal, 1))
                .case(Case::with_prob(0.4).output(stuck, 1)),
        );
        let model = b.build().unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let err = run.mean(&IterOptions::default()).unwrap_err();
        assert!(
            matches!(err, SolveError::GoalUnreachable { .. }),
            "expected GoalUnreachable, got {err:?}"
        );
        // The CDF is still well-defined and plateaus at P(goal) = 0.6.
        let late = run.cdf(200.0, &TransientOptions::default()).unwrap();
        assert!((late - 0.6).abs() < 1e-9, "plateau {late}");
    }

    #[test]
    fn probability_reward_is_cdf_complement_on_transient_states() {
        let model = chain(&[2.0]);
        let goal = model.place("p1").unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let sol = transient(run.ctmc(), 2.0, &TransientOptions::default()).unwrap();
        let not_done = probability(run.space(), &sol.probs, move |m| m.get(goal) == 0);
        let done = run.cdf(2.0, &TransientOptions::default()).unwrap();
        assert!((not_done + done - 1.0).abs() < 1e-12);
    }

    /// `cdf` on the two-stage chain, summed from the cached sequence,
    /// agrees with summing the goal states of the full [`transient`]
    /// vector, and its value does not depend on what was cached before.
    #[test]
    fn cdf_matches_transient_goal_mass_in_any_order() {
        let model = chain(&[1.0, 3.0]);
        let goal = model.place("p2").unwrap();
        let fresh = || {
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap()
        };
        let opts = TransientOptions::default();
        let grid = [0.0, 0.5, 2.0, 6.0, 40.0];
        let warm = fresh();
        for &t in grid.iter().rev() {
            let f = warm.cdf(t, &opts).unwrap();
            let sol = transient(warm.ctmc(), t, &opts).unwrap();
            let direct: f64 = (0..warm.space().len())
                .filter(|&s| warm.space().absorbing[s])
                .map(|s| sol.probs[s])
                .sum();
            assert!((f - direct).abs() < 1e-12, "t={t}: {f} vs {direct}");
            assert_eq!(
                f.to_bits(),
                fresh().cdf(t, &opts).unwrap().to_bits(),
                "t={t}"
            );
        }
    }

    /// Bad times and a too-small term cap are typed errors at the
    /// `cdf` level, and neither disturbs later points.
    #[test]
    fn cdf_rejects_bad_times_and_enforces_the_term_cap() {
        let model = chain(&[1.0, 3.0]);
        let goal = model.place("p2").unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let opts = TransientOptions::default();
        let before = run.cdf(2.0, &opts).unwrap();
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let err = run.cdf(t, &opts).unwrap_err();
            assert!(
                matches!(err, SolveError::InvalidTime { .. }),
                "t={t}: {err:?}"
            );
        }
        let capped = TransientOptions {
            max_terms: 5,
            ..TransientOptions::default()
        };
        let err = run.cdf(50.0, &capped).unwrap_err();
        assert!(
            matches!(err, SolveError::TruncationTooLong { terms: 5 }),
            "{err:?}"
        );
        assert_eq!(run.cdf(2.0, &opts).unwrap().to_bits(), before.to_bits());
    }

    /// A panic while the sequence lock is held poisons it; the next
    /// `cdf` recovers the lock and still returns the fresh-run value.
    #[test]
    fn poisoned_sequence_lock_is_recovered() {
        let model = chain(&[2.0]);
        let goal = model.place("p1").unwrap();
        let fresh = || {
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap()
        };
        let opts = TransientOptions::default();
        let run = fresh();
        run.cdf(1.0, &opts).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _held = run.absorbed.lock().unwrap();
                panic!("poison the sequence lock");
            })
            .join()
            .unwrap_err();
        });
        assert!(run.absorbed.is_poisoned());
        assert_eq!(
            run.cdf(3.0, &opts).unwrap().to_bits(),
            fresh().cdf(3.0, &opts).unwrap().to_bits()
        );
    }
}
