//! Analytic solver vs Monte-Carlo engine: wall-clock of one exact
//! uniformization/absorption solve against the replication campaign the
//! simulator needs for a comparable confidence-interval half-width.
//!
//! The solver's answer is exact, so "comparable" is pinned at a 1 %
//! relative 90 % CI — already far looser than the solve. The campaign
//! size is calibrated from a pilot run (CI half-width scales as
//! 1/√reps) and printed with the bench name.
//!
//! The `ph_expansion` group measures the phase-type path on the
//! paper's *real* parameters: solve time vs expansion order (n = 2).
//! The `concurrent_intern` group sweeps exploration threads over the
//! lock-free intern table at n = 2 (order-4 expansion, latency-scale)
//! and n = 3 (exponential ≈ 1.35 × 10⁵ states, order-2 ≈ 5.3 × 10⁵) —
//! its rows are timed directly (best of a fixed repeat count, so even
//! the smoke run yields a stable number) and carry the state count in
//! the name, making each row a throughput measurement. The
//! `csr_matvec` group times the forward `Q v` product of the CSR
//! generator on the n = 3 space, recording peak live-heap. The
//! `campaign` group times the scenario-campaign engine's cached+warm
//! grid path against the same grid solved cold, plus its deterministic
//! cache hit-rate. Every measurement is appended to
//! `BENCH_solver.json` at the workspace root; `ci/bench_baseline.json`
//! pins the committed baseline that the `bench_check` binary gates
//! against in CI.

use criterion::{criterion_group, criterion_main, BenchResult, Criterion};
use ctsim_bench::alloc_counter::{self, CountingAlloc};
use ctsim_bench::BENCH_SEED;
use ctsim_models::{build_model, decided_place_ids, latency_replications, SanParams};
use ctsim_san::Marking;
use ctsim_solve::{
    transient, AnalyticRun, DedupMode, IterOptions, ReachOptions, SolveOptions, SolverBackend,
    SpillOptions, StateSpace, TransientOptions,
};
use std::hint::black_box;
use std::time::Instant;

/// Exact live-heap accounting for the self-timed rows: the explore
/// rows carry their peak bytes so `bench_check` can gate peak-memory
/// regressions alongside throughput.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bench(c: &mut Criterion) {
    let params = SanParams::exponential_baseline(2);
    let model = build_model(&params);
    let decided: Vec<_> = (0..2)
        .map(|i| model.place(&format!("decided_{i}")).unwrap())
        .collect();
    let goal = move |m: &Marking| decided.iter().any(|&d| m.get(d) > 0);

    let mut g = c.benchmark_group("solver_vs_sim");
    g.sample_size(10);

    // One full analytic pass: explore → CTMC → exact mean.
    g.bench_function("analytic_n2_explore_and_mean", |b| {
        b.iter(|| {
            let run = AnalyticRun::first_passage(&model, &ReachOptions::default(), &goal).unwrap();
            black_box(run.mean(&IterOptions::default()).unwrap().mean_ms)
        })
    });

    // One cold transient CDF point on the prebuilt CTMC: uniformization
    // from t = 0 plus the goal-mass sum. `AnalyticRun::cdf` would reuse
    // its cached sequence after the first iteration and time only a dot
    // product, so this row drives the uncached `transient` directly.
    let run = AnalyticRun::first_passage(&model, &ReachOptions::default(), &goal).unwrap();
    let exact = run.mean(&IterOptions::default()).unwrap().mean_ms;
    let absorbing = &run.space().absorbing;
    g.bench_function("analytic_n2_transient_cdf_point", |b| {
        b.iter(|| {
            let sol = transient(run.ctmc(), exact, &TransientOptions::default()).unwrap();
            let p: f64 = sol
                .probs
                .iter()
                .zip(absorbing)
                .filter(|&(_, &g)| g)
                .map(|(&x, _)| x)
                .sum();
            black_box(p)
        })
    });

    // Calibrate the replication count for a 1% relative 90% CI from a
    // pilot campaign, then benchmark a campaign of that size.
    let pilot = latency_replications(&params, 400, BENCH_SEED, 1e4);
    let target_ci = 0.01 * exact;
    let reps_needed = ((400.0 * (pilot.ci90() / target_ci).powi(2)).ceil() as usize).max(400);
    g.bench_function(
        format!("simulator_n2_replications_for_1pct_ci_x{reps_needed}"),
        |b| {
            b.iter(|| black_box(latency_replications(&params, reps_needed, BENCH_SEED, 1e4).mean()))
        },
    );
    g.finish();

    ph_expansion(c);
    let mut extra = concurrent_intern();
    extra.extend(out_of_core());
    extra.extend(solver_backends());
    extra.extend(csr_matvec());
    extra.extend(campaign_grid());
    write_results_json(c, &extra);
}

/// The scenario-campaign engine on a dense rate-only grid: the paper's
/// n = 2 order-8 model (267 states) swept over 16 service scales with
/// the Krylov backend, once through the campaign path (cached
/// reachability + rate-only CSR rebuild + warm-started solves) and once
/// cold (fresh exploration + cold solve per point, from the same
/// `--verify-cold` run). Three gated rows:
///
/// * `campaign/grid_warm_..._states<total>` — campaign-path wall-clock
///   over the grid; `<total>` is the summed state count over all
///   points, so the row is a states-per-nanosecond throughput metric
///   like the exploration gates;
/// * `campaign/grid_cold_..._states<total>` — the same grid cold;
/// * `campaign/cache_hit_rate_per1000_states<hits>` — cache hits per
///   1000 points with `ns_per_iter` pinned at 1000, making the
///   "throughput" exactly the hit rate: a deterministic, machine-free
///   metric `bench_check` gates raw (no calibration row).
fn campaign_grid() -> Vec<BenchResult> {
    use ctsim_experiments::campaign::{run_with, CampaignOptions};
    let points = 16usize;
    let opts = CampaignOptions {
        ns: vec![2],
        ph_orders: vec![8],
        service_scales: (0..points).map(|i| 0.70 + 0.05 * i as f64).collect(),
        backends: vec![SolverBackend::Krylov],
        threads: 1,
        verify_cold: true,
        ..CampaignOptions::default()
    };
    let c = run_with(BENCH_SEED, &opts).expect("campaign grid");
    assert_eq!(c.rows.len(), points);
    let total_states: usize = c.rows.iter().map(|r| r.states).sum();
    let label = format!("paper_n2_order8_points{points}_states{total_states}");
    let hits_per_1000 = c.cache_hits * 1000 / c.rows.len() as u64;
    let rows = vec![
        BenchResult {
            name: format!("campaign/grid_warm_{label}"),
            ns_per_iter: c.campaign_point_ms() * 1e6,
            iters: points as u64,
            peak_bytes: None,
            meta: None,
        },
        BenchResult {
            name: format!("campaign/grid_cold_{label}"),
            ns_per_iter: c.cold_point_ms().expect("verify-cold run") * 1e6,
            iters: points as u64,
            peak_bytes: None,
            meta: None,
        },
        BenchResult {
            name: format!("campaign/cache_hit_rate_per1000_states{hits_per_1000}"),
            ns_per_iter: 1000.0,
            iters: points as u64,
            peak_bytes: None,
            meta: None,
        },
    ];
    for r in &rows {
        println!("timed {:<68} {:>14.0} ns/iter", r.name, r.ns_per_iter);
    }
    rows
}

/// Phase-type expansion: solve time vs order on the paper's real
/// (deterministic/bi-modal) n = 2 parameters.
fn ph_expansion(c: &mut Criterion) {
    let mut g = c.benchmark_group("ph_expansion");
    g.sample_size(10);

    let params = SanParams::paper_baseline(2);
    let model = build_model(&params);
    let decided: Vec<_> = (0..2)
        .map(|i| model.place(&format!("decided_{i}")).unwrap())
        .collect();
    let goal = move |m: &Marking| decided.iter().any(|&d| m.get(d) > 0);

    for order in [1u32, 2, 4, 8] {
        let opts = SolveOptions::ph(order, 1);
        // Record the state count in the name so BENCH_solver.json
        // doubles as the growth table's data source.
        let states = AnalyticRun::first_passage_with(&model, &opts, &goal)
            .unwrap()
            .space()
            .len();
        g.bench_function(format!("paper_n2_order{order}_states{states}"), |b| {
            b.iter(|| {
                let run = AnalyticRun::first_passage_with(&model, &opts, &goal).unwrap();
                black_box(run.mean(&IterOptions::default()).unwrap().mean_ms)
            })
        });
    }
    g.finish();
}

/// Thread sweep over the lock-free concurrent intern table: full
/// exploration wall-clock at n = 2 and n = 3, self-timed (best of
/// `repeats` runs) so every mode — including the CI smoke run the
/// bench-regression gate consumes — yields a stable number. The state
/// count rides in the row name, turning each row into a throughput
/// metric (states per nanosecond) for `bench_check`.
fn concurrent_intern() -> Vec<BenchResult> {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut rows = Vec::new();
    let mut sweep =
        |label: &str, params: SanParams, ph_order: u32, mut threads: Vec<usize>, repeats: u32| {
            threads.sort_unstable();
            threads.dedup();
            let model = build_model(&params);
            // The first-passage space of the latency workflow — the same
            // exploration `repro analytic` and the CI scalability gate run.
            let decided = decided_place_ids(&model, params.n);
            let goal = |m: &Marking| decided.iter().any(|&d| m.get(d) > 0);
            for t in threads {
                let opts = ReachOptions {
                    ph_order,
                    threads: t,
                    max_states: 4 << 20,
                    ..ReachOptions::default()
                };
                let mut best = f64::INFINITY;
                let mut peak = u64::MAX;
                let mut states = 0usize;
                for _ in 0..repeats {
                    alloc_counter::reset_peak();
                    let start = Instant::now();
                    let ss = StateSpace::explore(&model, &opts, Some(&goal)).unwrap();
                    states = black_box(ss.len());
                    best = best.min(start.elapsed().as_nanos() as f64);
                    // The workload is deterministic, so min-of-N peaks
                    // just sheds cross-run allocator noise.
                    peak = peak.min(alloc_counter::peak_bytes() as u64);
                }
                let name = format!("concurrent_intern/explore_{label}_threads{t}_states{states}");
                println!(
                    "timed {name:<68} {best:>14.0} ns/iter, peak {:.1} MB (best of {repeats})",
                    peak as f64 / (1 << 20) as f64
                );
                rows.push(BenchResult {
                    name,
                    ns_per_iter: best,
                    iters: u64::from(repeats),
                    peak_bytes: Some(peak),
                    meta: None,
                });
            }
        };
    // n = 2 order 4: a hundred-state space — measures the engine's
    // fixed costs (table setup, canonical renumber) at latency scale.
    sweep(
        "paper_n2_order4",
        SanParams::paper_baseline(2),
        4,
        vec![1, 8],
        50,
    );
    // n = 3 exponential (≈ 1.35 × 10⁵ states): the gated throughput
    // metric, plus the full 1/2/4/8 thread-scaling sweep of the
    // streaming exploration pipeline (`sweep` dedups the list).
    sweep(
        "exp_n3",
        SanParams::exponential_n3(),
        0,
        vec![1, 2, 4, 8, cores],
        2,
    );
    // n = 3 order 2 (≈ 5.3 × 10⁵ states): the scalability-gate
    // workload itself.
    sweep(
        "paper_n3_order2",
        SanParams::paper_n3(),
        2,
        vec![1, cores],
        1,
    );
    rows
}

/// The out-of-core pipeline on the n = 3 exponential first-passage
/// space (≈ 1.35 × 10⁵ states): full explore → CSR → Krylov mean,
/// once resident and once under an 8 MB spill budget with forced
/// external-memory dedup (delayed duplicate detection + the paged CSR
/// streamed through the sharded SpMV). Self-timed best-of-N like the
/// intern sweep. Both rows carry `peak_bytes`, so `bench_check` gates
/// two things at once: the spilled pipeline's throughput (the
/// sort-merge and pager overhead must stay bounded relative to the
/// resident leg) and — via the budgeted row's live-heap peak — that
/// the budget actually holds the bulk arrays out of RAM.
fn out_of_core() -> Vec<BenchResult> {
    let params = SanParams::exponential_n3();
    let model = build_model(&params);
    let decided = decided_place_ids(&model, params.n);
    let goal = |m: &Marking| decided.iter().any(|&d| m.get(d) > 0);
    let iter = IterOptions {
        backend: SolverBackend::Krylov,
        ..IterOptions::default()
    };
    let legs: [(&str, Option<SpillOptions>); 2] = [
        ("resident", None),
        (
            "ddd_spill8M",
            Some(SpillOptions::with_budget(8 << 20).dedup(DedupMode::External)),
        ),
    ];
    let repeats = 2u32;
    let mut rows = Vec::new();
    for (label, spill) in legs {
        let opts = ReachOptions {
            threads: 4,
            max_states: 4 << 20,
            spill: spill.clone(),
            ..ReachOptions::default()
        };
        let mut best = f64::INFINITY;
        let mut peak = u64::MAX;
        let mut states = 0usize;
        for _ in 0..repeats {
            alloc_counter::reset_peak();
            let start = Instant::now();
            let run = AnalyticRun::first_passage(&model, &opts, goal).unwrap();
            black_box(run.mean(&iter).unwrap().mean_ms);
            states = run.space().len();
            best = best.min(start.elapsed().as_nanos() as f64);
            peak = peak.min(alloc_counter::peak_bytes() as u64);
        }
        let name = format!("out_of_core/analytic_exp_n3_{label}_states{states}");
        println!(
            "timed {name:<68} {best:>14.0} ns/iter, peak {:.1} MB (best of {repeats})",
            peak as f64 / (1 << 20) as f64
        );
        rows.push(BenchResult {
            name,
            ns_per_iter: best,
            iters: u64::from(repeats),
            peak_bytes: Some(peak),
            meta: None,
        });
    }
    rows
}

/// Generator SpMV throughput: the forward `Q v` product — the hot
/// loop of every absorption solve — on the n = 3 exponential
/// first-passage space (≈ 1.35 × 10⁵ states). Self-timed best-of-N
/// like the intern sweep, state count in the row name so each row is a
/// states-per-nanosecond throughput metric. The single-thread row
/// carries `peak_bytes` — the live-heap peak of the *whole*
/// explore-and-build-then-multiply pass. Each row also carries a nested
/// `op` object in the results JSON (generator/product/threads), which
/// doubles as the regression fixture for `bench_check`'s
/// unknown-key-tolerant parser.
fn csr_matvec() -> Vec<BenchResult> {
    let params = SanParams::exponential_n3();
    let model = build_model(&params);
    let decided = decided_place_ids(&model, params.n);
    let opts = ReachOptions {
        ph_order: 0,
        threads: 0,
        max_states: 4 << 20,
        ..ReachOptions::default()
    };
    let mut rows = Vec::new();
    alloc_counter::reset_peak();
    let goal = |m: &Marking| decided.iter().any(|&d| m.get(d) > 0);
    let (ss, q) = StateSpace::explore_ctmc(&model, &opts, Some(&goal)).unwrap();
    let states = ss.len();
    drop(ss);
    let n = q.num_states();
    // A fixed, structured input so the product is deterministic.
    let v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let mut y = vec![0.0; n];
    let repeats = 20u32;
    for t in [1usize, 8] {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let start = Instant::now();
            q.flow_mul(&v, &mut y, t);
            black_box(&y[0]);
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        // Peak rides on the threads-1 row only: it covers the explore +
        // generator build + first products high-water mark, which the
        // thread count does not change.
        let peak = (t == 1).then(|| alloc_counter::peak_bytes() as u64);
        let name = format!("csr_matvec/flow_mul_exp_n3_threads{t}_states{states}");
        match peak {
            Some(p) => println!(
                "timed {name:<68} {best:>14.0} ns/iter, peak {:.1} MB (best of {repeats})",
                p as f64 / (1 << 20) as f64
            ),
            None => println!("timed {name:<68} {best:>14.0} ns/iter (best of {repeats})"),
        }
        rows.push(BenchResult {
            name,
            ns_per_iter: best,
            iters: u64::from(repeats),
            peak_bytes: peak,
            meta: Some(format!(
                "{{ \"generator\": \"csr\", \"product\": \"flow\", \"threads\": {t} }}"
            )),
        });
    }
    rows
}

/// Solve-phase wall-clock per linear-algebra backend: the
/// `Q_TT τ = -1` mean solve on the prebuilt n = 2 order-4 and n = 3
/// exponential first-passage CTMCs (exploration excluded — the
/// `concurrent_intern` group owns that). Self-timed best-of-N like the
/// intern sweep, with the state count in the row name so each row is a
/// solve-throughput metric; `bench_check` gates the n = 3 single-thread
/// rows of every backend against `ci/bench_baseline.json`.
fn solver_backends() -> Vec<BenchResult> {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut rows = Vec::new();
    let mut sweep = |label: &str, params: SanParams, ph_order: u32, repeats: u32| {
        let model = build_model(&params);
        let decided = decided_place_ids(&model, params.n);
        let opts = ReachOptions {
            ph_order,
            threads: 0,
            max_states: 4 << 20,
            ..ReachOptions::default()
        };
        // One exploration, shared by every backend timing.
        let run =
            AnalyticRun::first_passage(&model, &opts, |m| decided.iter().any(|&d| m.get(d) > 0))
                .unwrap();
        let states = run.space().len();
        let mut reference = f64::NAN;
        for backend in SolverBackend::ALL {
            // Gauss–Seidel is sequential by construction; sweep the
            // SpMV shard count only for the parallel backends.
            let mut threads = if backend == SolverBackend::GaussSeidel {
                vec![1]
            } else {
                vec![1, cores]
            };
            threads.dedup();
            for &t in &threads {
                let iter = IterOptions::with_backend(backend, t);
                let mut best = f64::INFINITY;
                let mut mean = f64::NAN;
                for _ in 0..repeats {
                    let start = Instant::now();
                    mean = black_box(run.mean(&iter).unwrap().mean_ms);
                    best = best.min(start.elapsed().as_nanos() as f64);
                }
                if reference.is_nan() {
                    reference = mean;
                }
                // The documented cross-backend contract (and the CI
                // agreement matrix) gate at 1e-6 relative; assert the
                // same bound here, not a tighter one.
                assert!(
                    (mean - reference).abs() <= 1e-6 * reference.abs(),
                    "{backend} diverges from the reference mean: {mean} vs {reference}"
                );
                let name = format!(
                    "solver_backends/solve_{label}_{}_threads{t}_states{states}",
                    backend.slug()
                );
                println!("timed {name:<68} {best:>14.0} ns/iter (best of {repeats})");
                rows.push(BenchResult {
                    name,
                    ns_per_iter: best,
                    iters: u64::from(repeats),
                    peak_bytes: None,
                    meta: None,
                });
            }
        }
    };
    // n = 2 order 4: backend fixed costs at latency scale.
    sweep("paper_n2_order4", SanParams::paper_baseline(2), 4, 20);
    // n = 3 exponential (≈ 1.35 × 10⁵ states): the gated solve-phase
    // throughput metric, one row per backend.
    sweep("exp_n3", SanParams::exponential_n3(), 0, 2);
    rows
}

/// Appends every measurement of this run — the criterion-driven groups
/// plus the self-timed `concurrent_intern` and `solver_backends` rows
/// — to
/// `BENCH_solver.json` at the workspace root (overwritten each run; CI
/// uploads it as an artifact and gates it with `bench_check`).
fn write_results_json(c: &Criterion, extra: &[BenchResult]) {
    let mut body = String::from("{\n  \"bench\": \"solver_vs_sim\",\n");
    body.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if c.is_full() { "bench" } else { "smoke" }
    ));
    // The host the numbers were taken on: throughput rows are only
    // comparable against a baseline from similar hardware, so the gate
    // artifacts carry the machine shape alongside the measurements.
    let host = ctsim_obs::host_info();
    body.push_str(&format!(
        "  \"host\": {{ \"logical_cores\": {}, \"page_size_bytes\": {}, \"total_ram_bytes\": {} }},\n",
        host.logical_cores, host.page_size_bytes, host.total_ram_bytes
    ));
    body.push_str("  \"results\": [\n");
    let rows: Vec<String> = c
        .results()
        .iter()
        .chain(extra)
        .map(|r| {
            let peak = r
                .peak_bytes
                .map_or(String::new(), |p| format!(", \"peak_bytes\": {p}"));
            match &r.meta {
                // Rows with structured context render multi-line with a
                // nested `op` object — consumers must parse the results
                // array structurally, not line by line.
                Some(meta) => format!(
                    "    {{\n      \"name\": \"{}\",\n      \"ns_per_iter\": {:.1},\n      \
                     \"iters\": {}{peak},\n      \"op\": {meta}\n    }}",
                    r.name, r.ns_per_iter, r.iters
                ),
                None => format!(
                    "    {{ \"name\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}{peak} }}",
                    r.name, r.ns_per_iter, r.iters
                ),
            }
        })
        .collect();
    body.push_str(&rows.join(",\n"));
    body.push_str("\n  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
