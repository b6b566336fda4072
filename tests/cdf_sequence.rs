//! Determinism of `AnalyticRun::cdf`, whose points share one lazily
//! extended uniformization sequence per run: every point must be a pure
//! function of (run, t, options) — bit-identical whatever the call
//! order, whether the sequence cache is cold or warm, and across
//! `TransientOptions::threads` — and must agree with summing the goal
//! states of the full `transient()` vector.

use ct_consensus_repro::models::{build_model, SanParams};
use ct_consensus_repro::san::{Activity, Case, Marking, SanBuilder, SanModel};
use ct_consensus_repro::solve::{
    transient, AnalyticRun, IterOptions, ReachOptions, TransientOptions,
};
use ct_consensus_repro::stoch::Dist;

/// The grid `repro analytic` evaluates, as multiples of the mean.
const GRID: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
/// Forward, reversed and one fixed shuffle of the grid indices.
const ORDERS: [[usize; 7]; 3] = [
    [0, 1, 2, 3, 4, 5, 6],
    [6, 5, 4, 3, 2, 1, 0],
    [3, 6, 0, 5, 1, 4, 2],
];

fn decided(model: &SanModel, n: usize) -> impl Fn(&Marking) -> bool + Sync {
    let places: Vec<_> = (0..n)
        .map(|i| model.place(&format!("decided_{i}")).unwrap())
        .collect();
    move |m| places.iter().any(|&d| m.get(d) > 0)
}

/// Three independent pools of `k` tokens drained one at a time, done
/// when two pools are empty: `(k+1)^3` states, enough for the sharded
/// product to actually split across workers.
fn pools(k: u32) -> (SanModel, impl Fn(&Marking) -> bool + Sync) {
    let mut b = SanBuilder::new("pools");
    let mut drained = vec![];
    for (i, mean) in [1.0, 1.5, 2.5].into_iter().enumerate() {
        let src = b.place(format!("src{i}"), k);
        let dst = b.place(format!("dst{i}"), 0);
        b.add_activity(
            Activity::timed(format!("t{i}"), Dist::Exp { mean })
                .input(src, 1)
                .case(Case::with_prob(1.0).output(dst, 1)),
        );
        drained.push(dst);
    }
    let model = b.build().unwrap();
    let goal = move |m: &Marking| drained.iter().filter(|&&d| m.get(d) == k).count() >= 2;
    (model, goal)
}

fn grid_of(run: &AnalyticRun<'_>) -> [f64; 7] {
    let mean = run.mean(&IterOptions::default()).unwrap().mean_ms;
    GRID.map(|f| f * mean)
}

/// Evaluates `ts` in `order`, returning the values in grid order.
fn eval(
    run: &AnalyticRun<'_>,
    ts: &[f64; 7],
    order: &[usize; 7],
    opts: &TransientOptions,
) -> [u64; 7] {
    let mut out = [0u64; 7];
    for &i in order {
        out[i] = run.cdf(ts[i], opts).unwrap().to_bits();
    }
    out
}

#[test]
fn grid_is_bit_identical_in_any_order_cold_or_warm() {
    let params = SanParams::exponential_baseline(2);
    let model = build_model(&params);
    let fresh = || {
        AnalyticRun::first_passage(&model, &ReachOptions::default(), decided(&model, 2)).unwrap()
    };
    let opts = TransientOptions::default();
    let ts = grid_of(&fresh());
    let reference = eval(&fresh(), &ts, &ORDERS[0], &opts);
    let warm = fresh();
    for order in &ORDERS {
        assert_eq!(
            eval(&fresh(), &ts, order, &opts),
            reference,
            "fresh run, order {order:?}"
        );
        assert_eq!(
            eval(&warm, &ts, order, &opts),
            reference,
            "warm run, order {order:?}"
        );
    }
    // Single points on fresh runs: the cache never holds more than the
    // point needs.
    for (i, &t) in ts.iter().enumerate() {
        assert_eq!(
            fresh().cdf(t, &opts).unwrap().to_bits(),
            reference[i],
            "t={t}"
        );
    }
}

#[test]
fn grid_agrees_with_the_full_transient_vector() {
    let params = SanParams::exponential_baseline(2);
    let model = build_model(&params);
    let run =
        AnalyticRun::first_passage(&model, &ReachOptions::default(), decided(&model, 2)).unwrap();
    let opts = TransientOptions::default();
    for t in grid_of(&run) {
        let f = run.cdf(t, &opts).unwrap();
        let sol = transient(run.ctmc(), t, &opts).unwrap();
        let direct: f64 = (0..run.space().len())
            .filter(|&s| run.space().absorbing[s])
            .map(|s| sol.probs[s])
            .sum();
        assert!((f - direct).abs() < 1e-12, "t={t}: {f} vs {direct}");
    }
}

#[test]
fn grid_is_bit_identical_across_threads() {
    let (model, goal) = pools(21);
    let run = AnalyticRun::first_passage(&model, &ReachOptions::default(), &goal).unwrap();
    assert!(
        run.space().len() > 1 << 13,
        "too small to shard: {}",
        run.space().len()
    );
    let ts = grid_of(&run);
    let with = |threads| TransientOptions {
        threads,
        ..TransientOptions::default()
    };
    let reference = eval(&run, &ts, &ORDERS[0], &with(1));
    for threads in [2, 8] {
        let cold = AnalyticRun::first_passage(&model, &ReachOptions::default(), &goal).unwrap();
        assert_eq!(
            eval(&cold, &ts, &ORDERS[2], &with(threads)),
            reference,
            "{threads} threads"
        );
    }
}
