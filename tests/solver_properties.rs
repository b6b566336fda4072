//! Property-based tests of the analytic SAN solver on randomly
//! generated Markovian models: structural invariants that must hold
//! regardless of topology, rates, or evaluation times.

use std::sync::OnceLock;

use ct_consensus_repro::models::{build_model, SanParams};
use ct_consensus_repro::san::{Activity, Case, SanBuilder, SanModel};
use ct_consensus_repro::solve::{
    steady_state, transient, Ctmc, IterOptions, ReachOptions, SolverBackend, StateSpace,
    TransientOptions,
};
use ct_consensus_repro::stoch::{Dist, PhaseType};
use proptest::prelude::*;

/// A birth–death chain over `means.len() + 1` levels: one token walks
/// up with the forward means and down with the backward means. Always
/// irreducible, so both solvers apply.
fn birth_death(means: &[(f64, f64)]) -> SanModel {
    let mut b = SanBuilder::new("bd");
    let levels: Vec<_> = (0..=means.len())
        .map(|i| b.place(format!("l{i}"), u32::from(i == 0)))
        .collect();
    for (i, &(fwd, bwd)) in means.iter().enumerate() {
        b.add_activity(
            Activity::timed(format!("up{i}"), Dist::Exp { mean: fwd })
                .input(levels[i], 1)
                .case(Case::with_prob(1.0).output(levels[i + 1], 1)),
        );
        b.add_activity(
            Activity::timed(format!("down{i}"), Dist::Exp { mean: bwd })
                .input(levels[i + 1], 1)
                .case(Case::with_prob(1.0).output(levels[i], 1)),
        );
    }
    b.build().expect("birth-death chain is valid")
}

fn solve_chain(means: &[(f64, f64)]) -> (usize, Ctmc) {
    let model = birth_death(means);
    let ss = StateSpace::explore(&model, &ReachOptions::default(), None).expect("explore");
    let ctmc = Ctmc::from_state_space(&ss).expect("all-exponential");
    (ss.len(), ctmc)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32, .. ProptestConfig::default()
    })]

    /// Uniformization preserves probability mass: π(t) sums to 1
    /// within 1e-9 for any rates and any horizon.
    #[test]
    fn transient_vectors_sum_to_one(
        means in proptest::collection::vec((0.05f64..5.0, 0.05f64..5.0), 1..5),
        t in 0.0f64..50.0,
    ) {
        let (n, ctmc) = solve_chain(&means);
        let sol = transient(&ctmc, t, &TransientOptions::default()).expect("transient");
        prop_assert_eq!(sol.probs.len(), n);
        let total: f64 = sol.probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass {total} at t={t}");
        for (s, &p) in sol.probs.iter().enumerate() {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p), "π[{s}] = {p}");
        }
    }

    /// The Gauss–Seidel fixed point satisfies the balance equations:
    /// ‖πQ‖∞ ≈ 0 and Σπ = 1.
    #[test]
    fn steady_state_satisfies_balance(
        means in proptest::collection::vec((0.05f64..5.0, 0.05f64..5.0), 1..5),
    ) {
        let (n, ctmc) = solve_chain(&means);
        let sol = steady_state(&ctmc, &IterOptions::default()).expect("irreducible");
        prop_assert!((sol.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut residual = vec![0.0; n];
        ctmc.vec_mul(&sol.probs, &mut residual, 1);
        for (s, &r) in residual.iter().enumerate() {
            prop_assert!(r.abs() < 1e-9, "(πQ)[{s}] = {r}");
        }
        prop_assert!(sol.residual < 1e-9, "reported residual {}", sol.residual);
    }

    /// A two-state birth–death chain matches its closed-form transient
    /// solution p₀(t) = μ/(λ+μ) + λ/(λ+μ)·e^{-(λ+μ)t}.
    #[test]
    fn two_state_matches_closed_form(
        up_mean in 0.1f64..10.0,
        down_mean in 0.1f64..10.0,
        t in 0.0f64..20.0,
    ) {
        let (_, ctmc) = solve_chain(&[(up_mean, down_mean)]);
        let sol = transient(&ctmc, t, &TransientOptions::default()).expect("transient");
        let (lam, mu) = (1.0 / up_mean, 1.0 / down_mean);
        let expect = mu / (lam + mu) + lam / (lam + mu) * (-(lam + mu) * t).exp();
        prop_assert!(
            (sol.probs[0] - expect).abs() < 1e-9,
            "p0(t={t}) = {} vs closed form {expect}",
            sol.probs[0]
        );
        // And the long-run limit matches the steady state.
        let pi = steady_state(&ctmc, &IterOptions::default()).expect("steady");
        prop_assert!((pi.probs[0] - mu / (lam + mu)).abs() < 1e-9);
    }

    /// Every solver backend lands on the same stationary vector of a
    /// random birth–death chain, for every SpMV thread count — the
    /// backends are exact drop-in replacements for one another.
    #[test]
    fn steady_state_backends_agree(
        means in proptest::collection::vec((0.05f64..5.0, 0.05f64..5.0), 1..5),
    ) {
        let (n, ctmc) = solve_chain(&means);
        let reference = steady_state(&ctmc, &IterOptions::default()).expect("gauss-seidel");
        for backend in [SolverBackend::Jacobi, SolverBackend::Krylov] {
            for threads in [1usize, 2, 4, 8] {
                let sol = steady_state(&ctmc, &IterOptions::with_backend(backend, threads))
                    .expect("parallel backends converge on birth-death chains");
                for s in 0..n {
                    prop_assert!(
                        (sol.probs[s] - reference.probs[s]).abs() < 1e-9,
                        "{backend}/{threads}t state {s}: {} vs {}",
                        sol.probs[s],
                        reference.probs[s]
                    );
                }
            }
        }
    }

    /// Transient solutions converge to the steady state as t grows
    /// (uniformization and Gauss–Seidel agree with each other).
    #[test]
    fn transient_converges_to_steady_state(
        means in proptest::collection::vec((0.2f64..2.0, 0.2f64..2.0), 1..4),
    ) {
        let (n, ctmc) = solve_chain(&means);
        // Slowest relaxation is bounded by the largest mean; 500 ms of
        // sub-5ms stages is deep in the stationary regime.
        let sol = transient(&ctmc, 500.0, &TransientOptions::default()).expect("transient");
        let pi = steady_state(&ctmc, &IterOptions::default()).expect("steady");
        for s in 0..n {
            prop_assert!(
                (sol.probs[s] - pi.probs[s]).abs() < 1e-6,
                "state {s}: transient {} vs steady {}",
                sol.probs[s],
                pi.probs[s]
            );
        }
    }
}

/// A random fittable target distribution: positive mean, and its
/// squared coefficient of variation bounded away from the regimes a
/// small-order fit cannot match (the test picks the order from cv²).
fn arb_fittable() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (0.05f64..5.0).prop_map(|m| Dist::Exp { mean: m }),
        (1u32..8, 0.05f64..5.0).prop_map(|(k, m)| Dist::Erlang { k, mean: m }),
        (0.05f64..2.0, 0.05f64..3.0).prop_map(|(lo, w)| Dist::Uniform { lo, hi: lo + w }),
        // Weibull spans both cv² < 1 (shape > 1) and cv² > 1 (shape < 1).
        (0.6f64..3.0, 0.1f64..2.0).prop_map(|(shape, scale)| Dist::Weibull { shape, scale }),
        (
            0.1f64..0.9,
            0.05f64..1.0,
            0.01f64..0.5,
            0.05f64..1.0,
            0.01f64..0.8
        )
            .prop_map(|(p1, lo1, w1, gap, w2)| {
                let hi1 = lo1 + w1;
                Dist::bimodal(p1, (lo1, hi1), (hi1 + gap, hi1 + gap + w2))
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96, .. ProptestConfig::default()
    })]

    /// `PhaseType::fit` matches the target's first two moments within
    /// 1e-9 whenever the order is large enough (`⌈1/cv²⌉` stages), for
    /// every fittable `Dist` variant.
    #[test]
    fn phase_fit_matches_first_two_moments(dist in arb_fittable()) {
        let cv2 = dist.scv();
        // The mixed-Erlang rule needs k = ⌈1/cv²⌉ stages; cap the test
        // at 64 to keep degenerate near-deterministic draws bounded.
        let needed = if cv2 >= 1.0 { 2.0 } else { (1.0 / cv2).ceil() };
        if !(needed.is_finite() && needed <= 64.0) {
            return Ok(()); // cv² ≈ 0: only mean-matchable, skip
        }
        let ph = PhaseType::fit(&dist, needed as u32);
        prop_assert!(
            (ph.mean() - dist.mean()).abs() < 1e-9,
            "mean {} vs {} for {dist:?}",
            ph.mean(),
            dist.mean()
        );
        prop_assert!(
            (ph.variance() - dist.variance()).abs() < 1e-9,
            "variance {} vs {} for {dist:?} (cv² {cv2})",
            ph.variance(),
            dist.variance()
        );
        // Branch probabilities form a distribution.
        let total: f64 = ph.branches().iter().map(|b| b.prob).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "branch mass {total}");
    }

    /// Whatever the order budget, the fitted mean is always exact —
    /// even when the variance cannot be matched.
    #[test]
    fn phase_fit_mean_is_always_exact(dist in arb_fittable(), order in 1u32..8) {
        let ph = PhaseType::fit(&dist, order);
        prop_assert!(
            (ph.mean() - dist.mean()).abs() < 1e-9,
            "mean {} vs {} at order {order} for {dist:?}",
            ph.mean(),
            dist.mean()
        );
    }
}

/// A randomized mix of deterministic, bimodal, and exponential lanes
/// whose expanded exploration is large enough to exercise the parallel
/// fan-out.
fn lane_model(lanes: &[(f64, u32)]) -> SanModel {
    let mut b = SanBuilder::new("lanes");
    for (lane, &(mean, kind)) in lanes.iter().enumerate() {
        let mut prev = b.place(format!("l{lane}_0"), 1);
        for st in 0..4 {
            let next = b.place(format!("l{lane}_{}", st + 1), 0);
            let dist = match (st as u32 + kind) % 3 {
                0 => Dist::Det(mean),
                1 => Dist::bimodal(0.7, (0.5 * mean, 0.8 * mean), (mean, 2.0 * mean)),
                _ => Dist::Exp { mean },
            };
            b.add_activity(
                Activity::timed(format!("t{lane}_{st}"), dist)
                    .input(prev, 1)
                    .case(Case::with_prob(1.0).output(next, 1)),
            );
            prev = next;
        }
    }
    b.build().expect("lane model is valid")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, .. ProptestConfig::default()
    })]

    /// The concurrent intern is a pure wall-clock knob: exploration at
    /// 1, 4, and 16 threads (plus 2 and 8 for odd shard splits) yields
    /// the identical canonical state numbering and a bit-identical CSR
    /// generator, for random models and expansion orders.
    #[test]
    fn parallel_exploration_matches_sequential(
        lanes in proptest::collection::vec((0.2f64..2.0, 0u32..3), 2..4),
        ph_order in 1u32..4,
    ) {
        let model = lane_model(&lanes);
        let explore = |threads: usize| {
            let opts = ReachOptions {
                ph_order,
                threads,
                ..ReachOptions::default()
            };
            let ss = StateSpace::explore(&model, &opts, None).expect("explore");
            let ctmc = Ctmc::from_state_space(&ss).expect("expanded model is Markovian");
            (ss, ctmc)
        };
        let (ss1, q1) = explore(1);
        for threads in [2usize, 4, 8, 16] {
            let (ssn, qn) = explore(threads);
            prop_assert_eq!(
                ss1.packed_words(),
                ssn.packed_words(),
                "states at {} threads",
                threads
            );
            prop_assert_eq!(&ss1.initial, &ssn.initial);
            prop_assert_eq!(ss1.len(), ssn.len());
            for s in 0..ss1.len() {
                let (a, b) = (ss1.outgoing(s), ssn.outgoing(s));
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(x.target, y.target);
                    prop_assert_eq!(x.prob.to_bits(), y.prob.to_bits());
                    prop_assert_eq!(x.rate.to_bits(), y.rate.to_bits());
                    prop_assert_eq!(x.completes, y.completes);
                }
            }
            // The CSR generator is byte-identical.
            let (rp1, c1, r1, d1) = q1.csr();
            let (rpn, cn, rn, dn) = qn.csr();
            prop_assert_eq!(rp1, rpn);
            prop_assert_eq!(c1, cn);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(r1), bits(rn));
            prop_assert_eq!(bits(d1), bits(dn));
        }
    }
}

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The consensus generators the sharded products are pinned on: the
/// paper's real (phase-type) parameters at n = 2 and the exponential
/// crash model at n = 3, each under expansion orders 1 and 2.
fn consensus_fixtures() -> &'static [(String, Ctmc)] {
    static FIXTURES: OnceLock<Vec<(String, Ctmc)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut out = Vec::new();
        for ph_order in [1u32, 2] {
            for (name, params) in [
                ("paper_n2", SanParams::paper_baseline(2)),
                (
                    "exp_crash_n3",
                    SanParams::exponential_baseline(3).with_crash(1),
                ),
            ] {
                let model = build_model(&params);
                let opts = ReachOptions {
                    ph_order,
                    max_states: params.recommended_max_states(ph_order),
                    threads: 1,
                    ..ReachOptions::default()
                };
                let (_, ctmc) = StateSpace::explore_ctmc(&model, &opts, None)
                    .expect("consensus model explores");
                out.push((format!("{name}_ph{ph_order}"), ctmc));
            }
        }
        out
    })
}

/// A reproducible dense vector with entries in `(lo, hi)`: SplitMix64
/// expanded from a sampled seed, so each case draws a fresh vector
/// without the strategy needing to know the fixture's dimension.
fn dense_vector(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let unit = ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            lo + (hi - lo) * unit
        })
        .collect()
}

/// Runs `product` at every thread count and asserts each result is
/// bit-identical to the single-thread one.
fn assert_thread_invariant(
    label: &str,
    n: usize,
    product: impl Fn(&mut [f64], usize),
) -> Result<(), TestCaseError> {
    let mut base = vec![0.0; n];
    product(&mut base, 1);
    for &threads in &THREAD_COUNTS[1..] {
        let mut y = vec![0.0; n];
        product(&mut y, threads);
        for (i, (a, b)) in base.iter().zip(&y).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}[{}] at {} threads: {} vs {}",
                label,
                i,
                threads,
                b,
                a
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The forward flow product `Q v` on the consensus generators is
    /// bit-identical at 1, 2, 4 and 8 SpMV threads.
    #[test]
    fn consensus_flow_mul_is_thread_invariant(fix_idx in 0usize..4, seed in 0u64..u64::MAX) {
        let (label, q) = &consensus_fixtures()[fix_idx];
        let n = q.num_states();
        let v = dense_vector(seed, n, 0.05, 5.0);
        assert_thread_invariant(label, n, |out, threads| q.flow_mul(&v, out, threads))?;
    }

    /// The row-vector product `x Q` (the solver-side product, gathered
    /// over the incoming view) on the consensus generators is
    /// bit-identical at 1, 2, 4 and 8 SpMV threads.
    #[test]
    fn consensus_vec_mul_is_thread_invariant(fix_idx in 0usize..4, seed in 0u64..u64::MAX) {
        let (label, q) = &consensus_fixtures()[fix_idx];
        let n = q.num_states();
        let x = dense_vector(seed, n, 0.05, 5.0);
        assert_thread_invariant(label, n, |out, threads| q.vec_mul(&x, out, threads))?;
    }
}
