//! The four workloads. One job runs one workload once: it builds the
//! parameters and models (set-up), then calls the layers' public entry
//! points in the order the `repro` commands call them, timing each call
//! from outside and checking each result.
//!
//! Only entry points that survive the planned removals are driven:
//! `AnalyticRun::{first_passage_with, mean, cdf}`,
//! `latency_replications`, `extrapolated_mean` and `campaign::run_with`,
//! always on the CSR generator with the Krylov or Gauss–Seidel backend.

use std::collections::BTreeMap;
use std::path::Path;

use ctsim_experiments::campaign::{self, CampaignOptions, PointRow, PointSpec};
use ctsim_models::{build_model, latency_replications, SanParams};
use ctsim_san::{Marking, PlaceId, Replications, SanModel};
use ctsim_solve::{
    extrapolated_mean, AnalyticRun, DedupMode, SolveOptions, SolverBackend, SpillOptions,
};

use crate::checks::{sim_agrees, Refs};
use crate::json::Json;
use crate::ledger::{ratio, Layer, Recorder};

/// Replication horizon (ms), as in `repro analytic`.
const HORIZON_MS: f64 = 10_000.0;

/// The `repro analytic` CDF grid, as multiples of the mean.
const CDF_GRID: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n = 3 paper parameters, phase-type order 2 and 1, extrapolated.
    Overlay,
    /// n = 3 exponential baseline, three crash scenarios, CDF grid.
    Cdf,
    /// n = 3 order-1 service-scale sweep through the campaign engine.
    Campaign,
    /// The overlay job under a spill budget with external dedup.
    Ooc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Overlay,
        Workload::Cdf,
        Workload::Campaign,
        Workload::Ooc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Overlay => "overlay-n3-ph2",
            Workload::Cdf => "cdf-n3-exp",
            Workload::Campaign => "campaign-n3-sweep",
            Workload::Ooc => "ooc-n3-ph2",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The parameters of a workload's job.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workload: Workload,
    pub n: usize,
    /// Phase-type order of the (first) solve; 0 = exponential model.
    pub ph_order: u32,
    /// Exploration, solve and SpMV threads.
    pub threads: usize,
    /// Spill budget in bytes (external dedup) — `None` stays resident.
    pub spill_budget: Option<usize>,
    /// Simulator replications per simulated model.
    pub reps: usize,
    /// Campaign service-scale axis.
    pub service_scales: Vec<f64>,
}

impl Spec {
    /// The benchmark's settings for a workload.
    pub fn of(workload: Workload) -> Self {
        let base = Spec {
            workload,
            n: 3,
            ph_order: 2,
            threads: 2,
            spill_budget: None,
            reps: 2_000,
            service_scales: Vec::new(),
        };
        match workload {
            Workload::Overlay => base,
            Workload::Ooc => Spec {
                spill_budget: Some(64 << 20),
                ..base
            },
            Workload::Cdf => Spec {
                ph_order: 0,
                threads: 1,
                ..base
            },
            Workload::Campaign => Spec {
                ph_order: 1,
                reps: 0,
                // 0.70, 0.75, …, 1.45.
                service_scales: (0..16).map(|i| f64::from(70 + 5 * i) / 100.0).collect(),
                ..base
            },
        }
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("workload", self.workload.name());
        j.set("n", self.n);
        j.set("ph_order", u64::from(self.ph_order));
        j.set("threads", self.threads);
        j.set("spill_budget_bytes", self.spill_budget);
        j.set(
            "dedup",
            if self.spill_budget.is_some() {
                "external"
            } else {
                "resident"
            },
        );
        j.set("reps", self.reps);
        j.set(
            "service_scales",
            Json::Arr(self.service_scales.iter().map(|&s| s.into()).collect()),
        );
        j
    }

    fn solve_options(&self, params: &SanParams, order: u32, spill_dir: &Path) -> SolveOptions {
        let mut opts = SolveOptions::ph_with_backend(order, self.threads, SolverBackend::Krylov);
        opts.reach.max_states = params.recommended_max_states(order.max(1));
        opts.reach.spill = self.spill_budget.map(|b| SpillOptions {
            dir: Some(spill_dir.to_path_buf()),
            ..SpillOptions::with_budget(b).dedup(DedupMode::External)
        });
        opts
    }
}

/// One finished job: its ledger plus the values the calls returned
/// that per-layer metrics are computed from.
pub struct Job {
    pub spec: Spec,
    pub rec: Recorder,
    pub rows: Vec<PointRow>,
    pub sim_reps: u64,
    pub sim_discarded: u64,
    /// `(states, rates)` of each exploration, from returned values.
    pub explored: Vec<(usize, usize)>,
    /// Iterations of the analytic mean solves, from returned values.
    pub mean_iterations: u64,
}

/// What set-up builds: parameters, grid and models, ready for the
/// first timed layer call. Built once per process, so the variants'
/// size difference does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Overlay {
        params: SanParams,
        ph_params: SanParams,
        model: SanModel,
        decided: Vec<PlaceId>,
    },
    Cdf(Vec<Scenario>),
    Campaign {
        opts: CampaignOptions,
        points: Vec<PointSpec>,
    },
}

/// One crash scenario of the CDF workload.
pub struct Scenario {
    label: &'static str,
    params: SanParams,
    model: SanModel,
    decided: Vec<PlaceId>,
}

impl Job {
    pub fn new(spec: &Spec, traced: bool, op_id: u64) -> Self {
        Job {
            spec: spec.clone(),
            rec: Recorder::new(traced, op_id),
            rows: Vec::new(),
            sim_reps: 0,
            sim_discarded: 0,
            explored: Vec::new(),
            mean_iterations: 0,
        }
    }

    /// Set-up: builds the parameter sets or grid and the models.
    pub fn prepare(&mut self) -> Prepared {
        let spec = &self.spec;
        let rec = &mut self.rec;
        match spec.workload {
            Workload::Overlay | Workload::Ooc => {
                let params = SanParams::paper_baseline(spec.n);
                let (model, decided) = model_op(rec, &params);
                let k = spec.ph_order;
                let ph_params =
                    rec.call(Layer::Models, "ph_substituted", || params.ph_substituted(k));
                Prepared::Overlay {
                    params,
                    ph_params,
                    model,
                    decided,
                }
            }
            Workload::Cdf => {
                // Crash scenarios need n ≥ 3 to keep a correct majority.
                let all = [
                    ("none", None),
                    ("coordinator", Some(0)),
                    ("participant", Some(1)),
                ];
                let scenarios = all
                    .into_iter()
                    .filter(|(_, crash)| crash.is_none() || spec.n >= 3)
                    .map(|(label, crash)| {
                        let mut params = SanParams::exponential_baseline(spec.n);
                        if let Some(idx) = crash {
                            params = params.with_crash(idx);
                        }
                        let (model, decided) = model_op(rec, &params);
                        Scenario {
                            label,
                            params,
                            model,
                            decided,
                        }
                    })
                    .collect();
                Prepared::Cdf(scenarios)
            }
            Workload::Campaign => {
                let opts = campaign_options(spec);
                let points =
                    campaign::grid(&opts).expect("the benchmark's grid axes are non-empty");
                // The campaign builds each point's model itself; building
                // the first one here puts a model build into set-up, as on
                // the other workloads.
                model_op(rec, &points[0].params());
                Prepared::Campaign { opts, points }
            }
        }
    }

    /// The timed layer calls, each result checked.
    pub fn execute(&mut self, prepared: &Prepared, refs: &Refs, seed: u64, spill_dir: &Path) {
        match prepared {
            Prepared::Overlay {
                params,
                ph_params,
                model,
                decided,
            } => self.overlay(params, ph_params, model, decided, refs, seed, spill_dir),
            Prepared::Cdf(scenarios) => {
                for s in scenarios {
                    self.scenario(s, refs, seed, spill_dir);
                }
            }
            Prepared::Campaign { opts, points } => self.sweep(opts, points, refs, seed),
        }
        self.rec.finish();
    }

    #[allow(clippy::too_many_arguments)]
    fn overlay(
        &mut self,
        params: &SanParams,
        ph_params: &SanParams,
        model: &SanModel,
        decided: &[PlaceId],
        refs: &Refs,
        seed: u64,
        spill_dir: &Path,
    ) {
        let k = self.spec.ph_order;
        let goal = |m: &Marking| decided.iter().any(|&d| m.get(d) > 0);
        // Order K, then order K − 1 for the extrapolation, each explored,
        // solved and dropped before the next, as `repro analytic` does.
        let orders: Vec<u32> = if k >= 2 { vec![k, k - 1] } else { vec![k] };
        let mut means = Vec::new();
        for order in orders {
            let tag = format!("order{order}");
            let opts = self.spec.solve_options(params, order, spill_dir);
            let Some(run) = self.explore(refs, model, &goal, &opts, &tag) else {
                return;
            };
            let Some(mean) = self.mean(refs, &run, &opts, &tag) else {
                return;
            };
            means.push((order, mean));
        }
        if means.len() == 2 {
            let ex = self.rec.call(Layer::Steady, "extrapolated_mean", || {
                extrapolated_mean(&means)
            });
            let check = match ex {
                Some(m) => {
                    self.rec.value("extrapolated_ms", m);
                    refs.check("extrapolated_ms", m)
                }
                None => Err("no extrapolation from two orders".to_string()),
            };
            self.rec.op("steady.extrapolated_mean", check);
        }
        // Engine check: simulate the PH-substituted model — exactly the
        // chain the order-K solve expanded — against its raw mean.
        let reps = self.simulate(ph_params, seed);
        self.sim_check("sim.ph_substituted", &reps, means[0].1);
    }

    fn scenario(&mut self, s: &Scenario, refs: &Refs, seed: u64, spill_dir: &Path) {
        // `repro analytic` runs the replications first, then the solve;
        // the simulator check waits for the analytic mean.
        let reps = self.simulate(&s.params, seed);
        let goal = |m: &Marking| s.decided.iter().any(|&d| m.get(d) > 0);
        let opts = self
            .spec
            .solve_options(&s.params, self.spec.ph_order, spill_dir);
        let Some(run) = self.explore(refs, &s.model, &goal, &opts, s.label) else {
            return;
        };
        let Some(mean) = self.mean(refs, &run, &opts, s.label) else {
            return;
        };
        for (i, f) in CDF_GRID.iter().enumerate() {
            let t = f * mean;
            let name = format!("{}.cdf{i}", s.label);
            let p = self
                .rec
                .call(Layer::Transient, &format!("cdf.{}.{i}", s.label), || {
                    run.cdf(t, &opts.transient)
                });
            let check = p.map_err(|e| e.to_string()).and_then(|p| {
                self.rec.value(&name, p);
                refs.check(&name, p)
            });
            self.rec.op(&format!("transient.{name}"), check);
        }
        self.sim_check(&format!("sim.{}", s.label), &reps, mean);
    }

    /// Explores one first-passage model and checks its size.
    fn explore<'m>(
        &mut self,
        refs: &Refs,
        model: &'m SanModel,
        goal: &(impl Fn(&Marking) -> bool + Sync),
        opts: &SolveOptions,
        tag: &str,
    ) -> Option<AnalyticRun<'m>> {
        let explored = self
            .rec
            .call(Layer::Graph, &format!("first_passage_with.{tag}"), || {
                AnalyticRun::first_passage_with(model, opts, goal)
            });
        let run = match explored {
            Ok(run) => run,
            Err(e) => {
                self.rec.op(&format!("graph.{tag}"), Err(e.to_string()));
                return None;
            }
        };
        let (states, rates) = (run.space().len(), run.ctmc().num_rates());
        self.explored.push((states, rates));
        let (sn, rn) = (format!("{tag}.states"), format!("{tag}.rates"));
        self.rec.value(&sn, states as f64);
        self.rec.value(&rn, rates as f64);
        let check = refs
            .check(&sn, states as f64)
            .and(refs.check(&rn, rates as f64));
        self.rec.op(&format!("graph.{tag}"), check);
        Some(run)
    }

    /// Solves the mean first-passage time and checks it.
    fn mean(
        &mut self,
        refs: &Refs,
        run: &AnalyticRun<'_>,
        opts: &SolveOptions,
        tag: &str,
    ) -> Option<f64> {
        let solved = self.rec.call(Layer::Steady, &format!("mean.{tag}"), || {
            run.mean(&opts.iter)
        });
        let name = format!("{tag}.mean_ms");
        match solved {
            Ok(out) => {
                self.mean_iterations += out.iterations as u64;
                self.rec.value(&name, out.mean_ms);
                let check =
                    refs.check(&name, out.mean_ms)
                        .and(if out.solved_by == opts.iter.backend {
                            Ok(())
                        } else {
                            Err(format!("solved by {} instead", out.solved_by))
                        });
                self.rec.op(&format!("steady.{tag}"), check);
                Some(out.mean_ms)
            }
            Err(e) => {
                self.rec.op(&format!("steady.{tag}"), Err(e.to_string()));
                None
            }
        }
    }

    fn simulate(&mut self, params: &SanParams, seed: u64) -> Replications {
        let wanted = self.spec.reps;
        let reps = self.rec.call(Layer::Sim, "latency_replications", || {
            latency_replications(params, wanted, seed, HORIZON_MS)
        });
        self.sim_reps += reps.stats.count();
        self.sim_discarded += reps.discarded;
        reps
    }

    /// Checks replications against the analytic mean of the same model.
    fn sim_check(&mut self, what: &str, reps: &Replications, analytic: f64) {
        let check = sim_agrees(reps.mean(), reps.ci90(), analytic).and(if reps.discarded == 0 {
            Ok(())
        } else {
            Err(format!("{} replications hit the horizon", reps.discarded))
        });
        self.rec.op(what, check);
    }

    fn sweep(&mut self, opts: &CampaignOptions, points: &[PointSpec], refs: &Refs, seed: u64) {
        let result = self.rec.call(Layer::Campaign, "run_with", || {
            campaign::run_with(seed, opts)
        });
        let rows = match result {
            Ok(c) => c.rows,
            Err(e) => {
                for p in points {
                    let name = row_name(p);
                    self.rec.op(&format!("campaign.{name}"), Err(e.to_string()));
                }
                return;
            }
        };
        for p in points {
            let name = row_name(p);
            let check = match rows.iter().find(|r| r.spec == *p) {
                None => Err("point missing from the campaign rows".to_string()),
                Some(r) => {
                    let (sn, rn, mn) = (
                        format!("{name}.states"),
                        format!("{name}.rates"),
                        format!("{name}.mean_ms"),
                    );
                    self.rec.value(&sn, r.states as f64);
                    self.rec.value(&rn, r.transitions as f64);
                    self.rec.value(&mn, r.mean_ms);
                    refs.check(&sn, r.states as f64)
                        .and(refs.check(&rn, r.transitions as f64))
                        .and(refs.check(&mn, r.mean_ms))
                }
            };
            self.rec.op(&format!("campaign.{name}"), check);
        }
        self.rows = rows;
    }
}

/// Builds a model (a `models` op) and resolves its `decided_i` places.
fn model_op(rec: &mut Recorder, params: &SanParams) -> (SanModel, Vec<PlaceId>) {
    let model = rec.call(Layer::Models, "build_model", || build_model(params));
    let decided: Result<Vec<PlaceId>, String> = (0..params.n)
        .map(|i| {
            model
                .place(&format!("decided_{i}"))
                .ok_or_else(|| format!("model has no place decided_{i}"))
        })
        .collect();
    let (decided, check) = match decided {
        Ok(d) => (d, Ok(())),
        Err(e) => (Vec::new(), Err(e)),
    };
    rec.op("models.build_model", check);
    (model, decided)
}

/// The campaign's options for `spec`.
pub fn campaign_options(spec: &Spec) -> CampaignOptions {
    CampaignOptions {
        ns: vec![spec.n],
        ph_orders: vec![spec.ph_order],
        service_scales: spec.service_scales.clone(),
        net_scales: vec![1.0],
        backends: vec![SolverBackend::Krylov, SolverBackend::GaussSeidel],
        threads: spec.threads,
        ..CampaignOptions::default()
    }
}

fn row_name(p: &PointSpec) -> String {
    format!("{}.svc{:.2}", p.backend.slug(), p.service_scale)
}

impl Job {
    /// Per-layer metrics of this job, by name; `None` is absent (a
    /// counter the calls never recorded, or a ratio with a zero base).
    pub fn layer_metrics(&self) -> BTreeMap<&'static str, Option<f64>> {
        use Layer::*;
        let r = &self.rec;
        let mut m = BTreeMap::new();
        let campaign = self.spec.workload == Workload::Campaign;
        // Graph work sits in the first-passage calls, or inside the one
        // campaign call (whose only exploration is its cold point).
        let graph: &[Layer] = if campaign { &[Campaign] } else { &[Graph] };
        let cold: Vec<&PointRow> = self.rows.iter().filter(|p| !p.cache_hit).collect();
        let hot: Vec<&PointRow> = self.rows.iter().filter(|p| p.cache_hit).collect();
        let all: Vec<&PointRow> = self.rows.iter().collect();
        let ms_sum = |rows: &[&PointRow], f: fn(&PointRow) -> f64| -> f64 {
            rows.iter().map(|p| f(p)).sum::<f64>() / 1e3
        };

        m.insert("models.build_s", Some(r.time_in(Models)));

        let (explore_s, calls, states, rates) = if campaign {
            (
                ms_sum(&cold, |p| p.build_ms),
                cold.len(),
                cold.iter().map(|p| p.states).sum::<usize>(),
                cold.iter().map(|p| p.transitions).sum::<usize>(),
            )
        } else {
            (
                r.time_in(Graph),
                self.explored.len(),
                self.explored.iter().map(|e| e.0).sum(),
                self.explored.iter().map(|e| e.1).sum(),
            )
        };
        m.insert("graph.explore_s", Some(explore_s));
        m.insert("graph.explore_calls", Some(calls as f64));
        m.insert("graph.states", Some(states as f64));
        m.insert("graph.rates", Some(rates as f64));
        m.insert(
            "graph.states_per_s",
            ratio(Some(states as f64), Some(explore_s)),
        );
        // Parallel efficiency: CPU seconds ÷ (threads × wall seconds),
        // measurable only where exploration has calls of its own.
        let cpu = if campaign {
            None
        } else {
            r.calls_in(&[Graph]).map(|c| c.cpu_s).sum::<Option<f64>>()
        };
        m.insert(
            "graph.cpu_util",
            ratio(cpu, Some(self.spec.threads as f64 * explore_s)),
        );
        let hits = r.counter(graph, "explore.dedup_hits");
        m.insert("graph.dedup_hits", hits);
        // Base: every successor lookup that resolved, hit or new state.
        m.insert(
            "graph.dedup_ratio",
            ratio(hits, hits.map(|h| h + states as f64)),
        );
        m.insert("graph.levels", r.counter(graph, "explore.levels"));
        m.insert("graph.transitions", r.counter(graph, "explore.transitions"));
        let probe = r.hist(graph, "intern.probe_len");
        m.insert(
            "intern.probe_len.mean",
            probe.and_then(|(t, s, _)| ratio(Some(s), Some(t))),
        );
        m.insert("intern.probe_len.max", probe.map(|p| p.2));

        let io: &[Layer] = &[Graph, Steady, Transient, Campaign];
        m.insert(
            "spill.paged_out_bytes",
            r.counter(io, "spill.paged_out_bytes"),
        );
        let (ph, pm) = (
            r.counter(io, "spill.pager_hits"),
            r.counter(io, "spill.pager_misses"),
        );
        m.insert("spill.pager_hits", ph);
        m.insert("spill.pager_misses", pm);
        m.insert(
            "spill.pager_hit_ratio",
            ratio(ph, ph.zip(pm).map(|(h, x)| h + x)),
        );
        m.insert("ddd.sorted_runs", r.counter(graph, "ddd.sorted_runs"));
        m.insert("ddd.merge_bytes", r.counter(graph, "ddd.merge_bytes"));
        m.insert("resilience.retries", r.counter(io, "resilience.retries"));

        // The mean solves (and the extrapolation), or the campaign's.
        m.insert(
            "steady.mean_s",
            Some(if campaign {
                ms_sum(&all, |p| p.solve_ms)
            } else {
                r.time_in(Steady)
            }),
        );
        let steady: &[Layer] = if campaign { &[Campaign] } else { &[Steady] };
        m.insert("steady.spmv_products", r.counter(steady, "spmv.products"));

        let cdf: Vec<_> = r.calls_in(&[Transient]).collect();
        m.insert("transient.cdf_s", Some(r.time_in(Transient)));
        m.insert("transient.cdf_points", Some(cdf.len() as f64));
        m.insert(
            "transient.cdf_point_s.max",
            Some(cdf.iter().map(|c| c.dur_s()).fold(0.0, f64::max)),
        );
        m.insert(
            "transient.spmv_products",
            r.counter(&[Transient], "spmv.products"),
        );

        let sim_s = r.time_in(Sim);
        m.insert("sim.replicate_s", Some(sim_s));
        m.insert("sim.replications", Some(self.sim_reps as f64));
        m.insert(
            "sim.reps_per_s",
            ratio(Some(self.sim_reps as f64), Some(sim_s)),
        );
        m.insert("sim.discarded", Some(self.sim_discarded as f64));

        let points = self.rows.len() as f64;
        m.insert("campaign.points", Some(points));
        m.insert(
            "campaign.cache_hit_ratio",
            ratio(Some(hot.len() as f64), Some(points)),
        );
        m.insert("campaign.rebuild_s", Some(ms_sum(&hot, |p| p.build_ms)));
        m.insert("campaign.cold_build_s", Some(ms_sum(&cold, |p| p.build_ms)));
        m.insert("campaign.solve_s", Some(ms_sum(&all, |p| p.solve_ms)));
        m.insert(
            "campaign.iterations",
            Some(self.rows.iter().map(|p| p.iterations as f64).sum()),
        );
        m.insert(
            "campaign.warm_starts",
            Some(self.rows.iter().filter(|p| p.warm_start).count() as f64),
        );
        m.insert(
            "steady.iterations",
            Some(if campaign {
                self.rows.iter().map(|p| p.iterations as f64).sum()
            } else {
                self.mean_iterations as f64
            }),
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload) -> Spec {
        Spec {
            n: 2,
            reps: 200,
            service_scales: vec![0.9, 1.1],
            ..Spec::of(workload)
        }
    }

    fn run(spec: &Spec, seed: u64) -> Job {
        let mut job = Job::new(spec, false, seed);
        let prepared = job.prepare();
        let spill = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test-spill");
        std::fs::create_dir_all(&spill).unwrap();
        job.execute(&prepared, &Refs::default(), seed, &spill);
        job
    }

    /// The seed feeds only the simulator and the campaign: every
    /// analytic output is bit-identical across seeds.
    #[test]
    fn analytic_outputs_do_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let spec = small(w);
            let (a, b) = (run(&spec, 1), run(&spec, 2));
            assert!(!a.rec.values.is_empty(), "{}", w.name());
            assert_eq!(a.rec.values.len(), b.rec.values.len());
            for (k, v) in &a.rec.values {
                assert_eq!(v.to_bits(), b.rec.values[k].to_bits(), "{} {k}", w.name());
            }
        }
    }

    /// Without references every value-checked op fails; the errors and
    /// counts still come out, and the layer spans cover the job.
    #[test]
    fn unknown_outputs_count_as_failed_ops() {
        let job = run(&small(Workload::Overlay), 3);
        // build_model, two explorations, two means, the extrapolation
        // and the simulator check.
        assert_eq!(job.rec.attempted, 7);
        // The five reference-checked ops fail; the model build and the
        // simulator check (against the job's own analytic mean) pass.
        assert_eq!(job.rec.failed(), 5, "{:?}", job.rec.failures);
        assert!(job.rec.unattributed_ratio() < 0.5);
        let m = job.layer_metrics();
        assert_eq!(m["graph.explore_calls"], Some(2.0));
        assert_eq!(m["sim.replications"], Some(200.0));
        // Untraced: counters are absent, not zero.
        assert_eq!(m["graph.dedup_hits"], None);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("overlay"), None);
    }
}
