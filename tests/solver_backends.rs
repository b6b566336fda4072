//! Ill-conditioned inputs across every solver backend: reducible
//! chains, near-zero exit rates, and stiff two-timescale chains where
//! stationary sweeps crawl. The contract under test is the one the
//! backend layer documents: every backend either **converges** (finite
//! probabilities/times, residual at tolerance) or returns
//! [`SolveError::NotConverged`] with finite diagnostics — no NaNs, no
//! hangs — for every SpMV thread count; and backends that converge on
//! the same system agree.

use ct_consensus_repro::san::{Activity, Case, SanBuilder, SanModel};
use ct_consensus_repro::solve::{
    mean_time_to_absorption, steady_state, Ctmc, IterOptions, ReachOptions, SolveError,
    SolverBackend, StateSpace,
};
use ct_consensus_repro::stoch::Dist;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn ctmc_of(model: &SanModel) -> Ctmc {
    let ss = StateSpace::explore(model, &ReachOptions::default(), None).expect("explore");
    Ctmc::from_state_space(&ss).expect("all-exponential")
}

fn opts(backend: SolverBackend, threads: usize, tolerance: f64, budget: usize) -> IterOptions {
    IterOptions {
        tolerance,
        max_iterations: budget,
        ..IterOptions::with_backend(backend, threads)
    }
}

/// Asserts the converge-or-`NotConverged` contract on a steady-state
/// result and returns the distribution when it converged.
fn check_steady(
    label: &str,
    result: Result<ct_consensus_repro::solve::SteadyState, SolveError>,
    tolerance: f64,
) -> Option<Vec<f64>> {
    match result {
        Ok(sol) => {
            assert!(
                sol.probs.iter().all(|p| p.is_finite() && *p >= 0.0),
                "{label}: non-finite/negative probability"
            );
            let mass: f64 = sol.probs.iter().sum();
            assert!((mass - 1.0).abs() < 1e-9, "{label}: mass {mass}");
            assert!(
                sol.residual.is_finite() && sol.residual <= tolerance,
                "{label}: residual {}",
                sol.residual
            );
            Some(sol.probs)
        }
        Err(SolveError::NotConverged {
            iterations,
            residual,
        }) => {
            assert!(
                !residual.is_nan(),
                "{label}: NotConverged must carry a non-NaN residual"
            );
            assert!(iterations > 0, "{label}: zero iterations");
            None
        }
        Err(other) => panic!("{label}: unexpected error {other:?}"),
    }
}

/// Same contract for an absorption-time result.
fn check_absorption(
    label: &str,
    result: Result<ct_consensus_repro::solve::AbsorptionTimes, SolveError>,
    tolerance: f64,
) -> Option<f64> {
    match result {
        Ok(sol) => {
            assert!(
                sol.per_state.iter().all(|t| t.is_finite() && *t >= 0.0),
                "{label}: non-finite/negative absorption time"
            );
            assert!(sol.mean.is_finite(), "{label}: mean {}", sol.mean);
            assert!(
                sol.residual.is_finite() && sol.residual <= tolerance,
                "{label}: residual {}",
                sol.residual
            );
            Some(sol.mean)
        }
        Err(SolveError::NotConverged {
            iterations,
            residual,
        }) => {
            assert!(
                !residual.is_nan(),
                "{label}: NotConverged must carry a non-NaN residual"
            );
            assert!(iterations > 0, "{label}: zero iterations");
            None
        }
        Err(other) => panic!("{label}: unexpected error {other:?}"),
    }
}

/// A stiff two-timescale absorption problem: a fast A↔B cycle (mean
/// `fast` ms per hop) that leaks into the absorbing state only from B,
/// at mean `slow` ms. One Gauss–Seidel or Jacobi sweep contracts the
/// error by just `1 − fast/slow`, so `slow/fast = 10⁶` needs ~10⁷
/// sweeps — while GMRES solves the 3-state system exactly in a couple
/// of Arnoldi steps.
fn stiff_absorbing(fast: f64, slow: f64) -> SanModel {
    let mut b = SanBuilder::new("stiff-abs");
    let a = b.place("a", 1);
    let bb = b.place("b", 0);
    let done = b.place("done", 0);
    b.add_activity(
        Activity::timed("ab", Dist::Exp { mean: fast })
            .input(a, 1)
            .case(Case::with_prob(1.0).output(bb, 1)),
    );
    b.add_activity(
        Activity::timed("ba", Dist::Exp { mean: fast })
            .input(bb, 1)
            .case(Case::with_prob(1.0).output(a, 1)),
    );
    b.add_activity(
        Activity::timed("leak", Dist::Exp { mean: slow })
            .input(bb, 1)
            .case(Case::with_prob(1.0).output(done, 1)),
    );
    b.build().unwrap()
}

/// Two nearly-uncoupled 2-cycles bridged by mean-`1/eps`-ms hops: the
/// mass split between the clusters is the `1 − O(eps)` mode stationary
/// sweeps cannot contract within any reasonable budget.
fn stiff_steady(eps: f64) -> SanModel {
    let mut b = SanBuilder::new("stiff-steady");
    let c0a = b.place("c0a", 1);
    let c0b = b.place("c0b", 0);
    let c1a = b.place("c1a", 0);
    let c1b = b.place("c1b", 0);
    for (name, from, to, mean) in [
        ("f0", c0a, c0b, 1.0),
        ("b0", c0b, c0a, 0.7),
        ("f1", c1a, c1b, 0.3),
        ("b1", c1b, c1a, 2.0),
        ("x01", c0a, c1a, 1.0 / eps),
        ("x10", c1a, c0a, 1.0 / eps),
    ] {
        b.add_activity(
            Activity::timed(name, Dist::Exp { mean })
                .input(from, 1)
                .case(Case::with_prob(1.0).output(to, 1)),
        );
    }
    b.build().unwrap()
}

/// A reducible chain: a branch state feeds two disjoint recurrent
/// cycles, so `πQ = 0` has a two-dimensional solution space and the
/// Krylov system matrix is singular.
fn reducible() -> SanModel {
    let mut b = SanBuilder::new("reducible");
    let start = b.place("start", 1);
    let a0 = b.place("a0", 0);
    let a1 = b.place("a1", 0);
    let b0 = b.place("b0", 0);
    let b1 = b.place("b1", 0);
    b.add_activity(
        Activity::timed("split", Dist::Exp { mean: 1.0 })
            .input(start, 1)
            .case(Case::with_prob(0.5).output(a0, 1))
            .case(Case::with_prob(0.5).output(b0, 1)),
    );
    for (name, from, to, mean) in [
        ("a01", a0, a1, 0.5),
        ("a10", a1, a0, 2.0),
        ("b01", b0, b1, 3.0),
        ("b10", b1, b0, 0.25),
    ] {
        b.add_activity(
            Activity::timed(name, Dist::Exp { mean })
                .input(from, 1)
                .case(Case::with_prob(1.0).output(to, 1)),
        );
    }
    b.build().unwrap()
}

/// The headline stiffness scenario of the satellite task: the
/// stationary backends exhaust a 10⁴-sweep budget on a `slow/fast =
/// 10⁶` two-timescale chain, Krylov converges — and where two
/// backends converge they agree.
#[test]
fn stiff_two_timescale_absorption_defeats_sweeps_not_krylov() {
    let model = stiff_absorbing(1e-3, 1e3);
    let q = ctmc_of(&model);
    let tol = 1e-8;
    let budget = 10_000;
    for threads in THREADS {
        let gs =
            mean_time_to_absorption(&q, &opts(SolverBackend::GaussSeidel, threads, tol, budget));
        assert!(
            matches!(gs, Err(SolveError::NotConverged { iterations, residual })
                if iterations == budget && residual.is_finite()),
            "Gauss–Seidel should exhaust the 10^4-sweep budget, got {gs:?}"
        );
        let jac = mean_time_to_absorption(&q, &opts(SolverBackend::Jacobi, threads, tol, budget));
        check_absorption("jacobi/stiff", jac, tol);
        let kr = mean_time_to_absorption(&q, &opts(SolverBackend::Krylov, threads, tol, budget))
            .expect("Krylov must converge on the stiff chain");
        // Closed form: with rates r_f = 1/fast, r_s = 1/slow,
        // τ(A) = 2/r_s + 1/r_f = 2·slow + fast.
        let (fast, slow) = (1e-3, 1e3);
        let expect = 2.0 * slow + fast;
        assert!(
            (kr.mean - expect).abs() < 1e-6 * expect,
            "Krylov mean {} vs closed form {expect} ({threads} threads)",
            kr.mean
        );
        assert!(
            kr.iterations < 100,
            "Krylov needed {} matvecs",
            kr.iterations
        );
    }
}

/// Steady-state flavor of the same stiffness: the inter-cluster mass
/// mode contracts at `1 − O(eps)` per sweep, so Gauss–Seidel and
/// Jacobi report `NotConverged` inside a 10⁴ budget while GMRES
/// resolves the 4-state system exactly.
#[test]
fn stiff_two_timescale_steady_state_defeats_sweeps_not_krylov() {
    let model = stiff_steady(1e-6);
    let ss = StateSpace::explore(&model, &ReachOptions::default(), None).expect("explore");
    let q = Ctmc::from_state_space(&ss).expect("all-exponential");
    let tol = 1e-9;
    let budget = 10_000;
    for threads in THREADS {
        for backend in [SolverBackend::GaussSeidel, SolverBackend::Jacobi] {
            let sol = steady_state(&q, &opts(backend, threads, tol, budget));
            check_steady(&format!("{backend}/stiff-steady"), sol, tol);
        }
        let kr = steady_state(&q, &opts(SolverBackend::Krylov, threads, tol, budget))
            .expect("Krylov must converge on the stiff steady chain");
        // Closed form in the eps → 0 limit: the equal bridge rates pin
        // π(c0a) = π(c1a) = a, detailed balance inside each cluster
        // gives π(c0b) = 0.7a and π(c1b) = (1/0.3)/0.5 · a, so cluster
        // 0 carries 1.7 / (2 + 0.7 + 20/3) of the mass. Places are
        // (c0a, c0b, c1a, c1b) in declaration order.
        let expect0 = 1.7 / (2.0 + 0.7 + 20.0 / 3.0);
        let mass0: f64 = (0..ss.len())
            .filter(|&i| {
                let t = ss.tokens(i);
                t[0] + t[1] > 0
            })
            .map(|i| kr.probs[i])
            .sum();
        assert!(
            (mass0 - expect0).abs() < 1e-3,
            "cluster mass {mass0} vs {expect0} ({threads} threads)"
        );
    }
}

/// Reducible chains must not hang or emit NaNs: the stationary
/// backends may legitimately converge (any mixture of the component
/// stationary vectors satisfies `πQ = 0`), the singular Krylov system
/// must be caught by the stagnation guard — either way the contract
/// holds on every thread count.
#[test]
fn reducible_chain_converges_or_reports_not_converged() {
    let model = reducible();
    let q = ctmc_of(&model);
    let tol = 1e-10;
    for threads in THREADS {
        for backend in SolverBackend::ALL {
            let label = format!("{backend}/reducible/{threads}t");
            let sol = steady_state(&q, &opts(backend, threads, tol, 20_000));
            if let Some(probs) = check_steady(&label, sol, tol) {
                // Whatever mixture a backend lands on, the transient
                // branch state must carry no stationary mass.
                assert!(probs[0] < 1e-9, "{label}: transient mass {}", probs[0]);
            }
        }
    }
}

/// Near-zero exit rates: a cycle dominated by a mean-10⁹-ms stage and
/// a pipeline containing one. The huge holding time skews every scale
/// in the system; backends must stay finite and, when they converge,
/// agree with the closed forms.
#[test]
fn near_zero_exit_rates_stay_finite() {
    // Steady state: π of the slow state → 1.
    let mut b = SanBuilder::new("slow-cycle");
    let p0 = b.place("p0", 1);
    let p1 = b.place("p1", 0);
    let p2 = b.place("p2", 0);
    for (name, from, to, mean) in [
        ("t0", p0, p1, 1e9),
        ("t1", p1, p2, 0.5),
        ("t2", p2, p0, 2.0),
    ] {
        b.add_activity(
            Activity::timed(name, Dist::Exp { mean })
                .input(from, 1)
                .case(Case::with_prob(1.0).output(to, 1)),
        );
    }
    let q = ctmc_of(&b.build().unwrap());
    let tol = 1e-12;
    for threads in THREADS {
        for backend in SolverBackend::ALL {
            let label = format!("{backend}/slow-cycle/{threads}t");
            if let Some(probs) = check_steady(
                &label,
                steady_state(&q, &opts(backend, threads, tol, 100_000)),
                tol,
            ) {
                assert!(probs[0] > 1.0 - 1e-8, "{label}: π_slow {}", probs[0]);
            }
        }
    }

    // Absorption: the mean is dominated by the slow stage.
    let mut b = SanBuilder::new("slow-pipe");
    let s0 = b.place("s0", 1);
    let s1 = b.place("s1", 0);
    let s2 = b.place("s2", 0);
    for (name, from, to, mean) in [("u0", s0, s1, 1e9), ("u1", s1, s2, 0.25)] {
        b.add_activity(
            Activity::timed(name, Dist::Exp { mean })
                .input(from, 1)
                .case(Case::with_prob(1.0).output(to, 1)),
        );
    }
    let q = ctmc_of(&b.build().unwrap());
    for threads in THREADS {
        for backend in SolverBackend::ALL {
            let label = format!("{backend}/slow-pipe/{threads}t");
            let mean = check_absorption(
                &label,
                mean_time_to_absorption(&q, &opts(backend, threads, tol, 100_000)),
                tol,
            )
            .unwrap_or_else(|| panic!("{label}: the pipeline is feed-forward, must converge"));
            assert!((mean - (1e9 + 0.25)).abs() < 1.0, "{label}: mean {mean}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, .. ProptestConfig::default()
    })]

    /// Random two-timescale absorption chains over random stiffness
    /// exponents: the converge-or-`NotConverged` contract holds for
    /// every backend × thread count, and all converging backends agree
    /// on the mean.
    #[test]
    fn random_stiff_chains_honour_the_contract(
        fast in 1e-4f64..1e-2,
        ratio_exp in 1u32..7,
        budget in 2_000usize..20_000,
    ) {
        let slow = fast * 10f64.powi(ratio_exp as i32);
        let model = stiff_absorbing(fast, slow);
        let q = ctmc_of(&model);
        let tol = 1e-8;
        let mut means: Vec<(String, f64)> = Vec::new();
        for threads in THREADS {
            for backend in SolverBackend::ALL {
                let label = format!("{backend}/{threads}t fast={fast} slow={slow}");
                let sol = mean_time_to_absorption(&q, &opts(backend, threads, tol, budget));
                if let Some(mean) = check_absorption(&label, sol, tol) {
                    means.push((label, mean));
                }
            }
        }
        // Krylov always converges on these 3-state systems, so the
        // agreement set is never empty.
        prop_assert!(!means.is_empty(), "no backend converged");
        let (ref_label, ref_mean) = means[0].clone();
        for (label, mean) in &means {
            prop_assert!(
                (mean - ref_mean).abs() <= 1e-6 * ref_mean.abs(),
                "{label}: {mean} vs {ref_label}: {ref_mean}"
            );
        }
    }
}
