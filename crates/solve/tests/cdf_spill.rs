//! Failure atomicity of the per-run CDF sequence: a spill read-back
//! failure inside an extension surfaces from `AnalyticRun::cdf` as the
//! typed `SpillFailed`, and the run stays usable — once the fault is
//! gone, the next point is bit-identical to the same point on a fresh
//! run.
//!
//! Arming `csr.page_in` affects every paged read in the process, so the
//! test holds `fail::test_lock` for its whole body and lives in its own
//! integration binary.

use ctsim_resilience::fail;
use ctsim_san::{Activity, Case, SanBuilder, SanModel};
use ctsim_solve::{AnalyticRun, ReachOptions, SolveError, SpillOptions, TransientOptions};
use ctsim_stoch::Dist;

/// A four-stage exponential pipeline ending in the goal place `p4`.
fn pipeline() -> SanModel {
    let mut b = SanBuilder::new("pipeline");
    let mut prev = b.place("p0", 1);
    for (i, mean) in [2.0, 5.0, 1.0, 3.0].into_iter().enumerate() {
        let next = b.place(format!("p{}", i + 1), 0);
        b.add_activity(
            Activity::timed(format!("t{i}"), Dist::Exp { mean })
                .input(prev, 1)
                .case(Case::with_prob(1.0).output(next, 1)),
        );
        prev = next;
    }
    b.build().unwrap()
}

/// Explores under a zero spill budget, so every sealed CSR segment is
/// paged to disk and the first product must read it back.
fn paged_run(model: &SanModel) -> AnalyticRun<'_> {
    let goal = model.place("p4").unwrap();
    let opts = ReachOptions {
        spill: Some(SpillOptions::with_budget(0)),
        ..ReachOptions::default()
    };
    let run = AnalyticRun::first_passage(model, &opts, move |m| m.get(goal) > 0).unwrap();
    assert!(run.ctmc().is_streamed(), "the generator must be paged");
    run
}

#[test]
fn spill_failure_in_an_extension_leaves_the_sequence_valid() {
    let _guard = fail::test_lock();
    ctsim_resilience::retry::reset_budgets();
    let model = pipeline();
    let opts = TransientOptions::default();
    let run = paged_run(&model);

    fail::configure("csr.page_in=always", 0).unwrap();
    let failed = run.cdf(8.0, &opts);
    fail::disarm();
    assert!(
        matches!(
            failed,
            Err(SolveError::SpillFailed {
                op: "csr.page_in",
                ..
            })
        ),
        "{failed:?}"
    );

    for t in [8.0, 3.0, 20.0] {
        let after = run.cdf(t, &opts).unwrap();
        let fresh = paged_run(&model).cdf(t, &opts).unwrap();
        assert_eq!(
            after.to_bits(),
            fresh.to_bits(),
            "t={t}: {after} vs {fresh}"
        );
    }
}
