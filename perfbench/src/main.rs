//! The repository benchmark: batch jobs through the analytic pipeline.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! runs closed-loop jobs of one workload, each in a fresh process, for
//! about `S` seconds, checks every result, writes the run (manifest,
//! job records, spans) to `perfbench/out/`, and prints one JSON result
//! line. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. See `perfbench/README.md`.

mod checks;
mod jobs;
mod json;
mod ledger;
mod manifest;
mod refs;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use jobs::{Job, Spec, Workload};
use json::Json;
use ledger::median;
use manifest::Manifest;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_s", "s"),
    ("graph.explore_s", "s"),
    ("graph.explore_calls", "count"),
    ("graph.states", "count"),
    ("graph.rates", "count"),
    ("graph.states_per_s", "1/s"),
    ("graph.cpu_util", "ratio"),
    ("graph.dedup_hits", "count"),
    ("graph.dedup_ratio", "ratio"),
    ("graph.levels", "count"),
    ("graph.transitions", "count"),
    ("intern.probe_len.mean", "probes"),
    ("intern.probe_len.max", "probes"),
    ("spill.paged_out_bytes", "B"),
    ("spill.pager_hits", "count"),
    ("spill.pager_misses", "count"),
    ("spill.pager_hit_ratio", "ratio"),
    ("ddd.sorted_runs", "count"),
    ("ddd.merge_bytes", "B"),
    ("resilience.retries", "count"),
    ("steady.mean_s", "s"),
    ("steady.iterations", "count"),
    ("steady.spmv_products", "count"),
    ("transient.cdf_s", "s"),
    ("transient.cdf_points", "count"),
    ("transient.cdf_point_s.max", "s"),
    ("transient.spmv_products", "count"),
    ("sim.replicate_s", "s"),
    ("sim.replications", "count"),
    ("sim.reps_per_s", "1/s"),
    ("sim.discarded", "count"),
    ("campaign.points", "count"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.rebuild_s", "s"),
    ("campaign.cold_build_s", "s"),
    ("campaign.solve_s", "s"),
    ("campaign.iterations", "count"),
    ("campaign.warm_starts", "count"),
    ("trace.overhead_s", "s"),
    ("op.unattributed_ratio", "ratio"),
    ("trace.absent_metrics", "count"),
];

/// Set-up-only processes spawned before each job: a few milliseconds
/// each, and they steady the `setup_s` median.
const SETUP_SAMPLES_PER_JOB: u64 = 5;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: overlay-n3-ph2, cdf-n3-exp, campaign-n3-sweep, ooc-n3-ph2";

/// The benchmark package directory (`perfbench/`), fixed at build time
/// inside the checkout that built it.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Deterministic per-job seed (splitmix64 of the run seed and index).
fn job_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse().map_err(|_| format!("bad {name} `{v}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if let Some(w) = flag(&args, "--job") {
        child(w, &args)
    } else {
        drive(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One job in this process: `--job NAME --seed N [--traced]
/// [--setup-only] [--spawn-ns NS]`. Prints one JSON record line.
fn child(workload: &str, args: &[String]) -> Result<(), String> {
    let w = Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed: u64 = parse_num(args, "--seed")?;
    let traced = args.iter().any(|a| a == "--traced");
    // Process start as the client saw it just before spawning us.
    let spawned = match flag(args, "--spawn-ns") {
        Some(ns) => UNIX_EPOCH + Duration::from_nanos(ns.parse().map_err(|_| "bad --spawn-ns")?),
        None => SystemTime::now(),
    };
    let since_spawn = |t: SystemTime| t.duration_since(spawned).map_or(0.0, |d| d.as_secs_f64());

    let spec = Spec::of(w);
    let mut job = Job::new(&spec, traced, seed);
    let prepared = job.prepare();
    let mut rec = Json::obj();
    if args.iter().any(|a| a == "--setup-only") {
        rec.set("setup_s", since_spawn(SystemTime::now()));
        println!("{}", rec.render());
        return Ok(());
    }
    let spill_dir = bench_dir().join("out").join("spill");
    std::fs::create_dir_all(&spill_dir)
        .map_err(|e| format!("creating {}: {e}", spill_dir.display()))?;
    job.execute(&prepared, &refs::of(w), seed, &spill_dir);
    let setup_end = job.rec.first_timed.unwrap_or_else(SystemTime::now);
    rec.set("setup_s", since_spawn(setup_end));
    rec.set("wall_s", job.rec.wall_s());
    rec.set("peak_rss_mb", ctsim_experiments::peak_rss_mb());
    rec.set("seed", seed.to_string());
    rec.set("traced", traced);
    rec.set("attempted", job.rec.attempted);
    rec.set("failed", job.rec.failed());
    rec.set(
        "failures",
        Json::Arr(job.rec.failures.iter().map(|f| f.as_str().into()).collect()),
    );
    rec.set(
        "values",
        Json::Obj(
            job.rec
                .values
                .iter()
                .map(|(k, &v)| (k.clone(), v.into()))
                .collect(),
        ),
    );
    rec.set(
        "layers",
        Json::Obj(
            job.layer_metrics()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into()))
                .collect(),
        ),
    );
    rec.set("unattributed_ratio", job.rec.unattributed_ratio());
    rec.set("spans", job.rec.spans());
    println!("{}", rec.render());
    Ok(())
}

/// Spawns one job process and parses its record.
fn spawn(workload: &str, seed: u64, extra: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let spawn_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| e.to_string())?
        .as_nanos()
        .to_string();
    let out = Command::new(exe)
        .args([
            "--job",
            workload,
            "--seed",
            &seed.to_string(),
            "--spawn-ns",
            &spawn_ns,
        ])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a job: {e}"))?;
    if !out.status.success() {
        return Err(format!("job process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("job printed nothing")?;
    Json::parse(last).map_err(|e| format!("job record: {e}"))
}

/// The client: closed-loop jobs for about `--seconds`, then one result.
fn drive(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = parse_num(args, "--seed")?;
    let seconds: u64 = parse_num(args, "--seconds")?;
    let trace = match flag(args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace `{t}`")),
    };
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let spec = Spec::of(w);
    let manifest = Manifest::probe(
        name,
        seed,
        seconds,
        trace,
        spec.to_json(),
        &bench_dir().join(".."),
    );

    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut errors = Vec::new();
    let mut setups = Vec::new();
    // Closed loop: the next job starts when the previous one ends, and
    // none starts unless a typical (median) job still ends inside the
    // budget. Set-up-only processes run before each job, so set-up is
    // sampled across the whole run. A traced run alternates traced and
    // untraced jobs; the difference is the tracing overhead.
    let min_jobs = if trace { 2 } else { 1 };
    let mut records: Vec<Json> = Vec::new();
    let mut durations = Vec::new();
    while errors.is_empty() {
        let i = records.len() as u64;
        for _ in 0..SETUP_SAMPLES_PER_JOB {
            match spawn(name, seed, &["--setup-only"]) {
                Ok(r) => setups.extend(r.num("setup_s")),
                Err(e) => errors.push(e),
            }
        }
        let traced = trace && i % 2 == 0;
        let t0 = Instant::now();
        match spawn(
            name,
            job_seed(seed, i),
            if traced { &["--traced"] } else { &[] },
        ) {
            Ok(r) => records.push(r),
            Err(e) => errors.push(e),
        }
        durations.push(t0.elapsed().as_secs_f64());
        let typical = Duration::from_secs_f64(median(&durations));
        if records.len() >= min_jobs && start.elapsed() + typical > budget {
            break;
        }
    }

    let result = summarize(&records, &setups, trace, &errors);
    let mut doc = Json::obj();
    doc.set("manifest", manifest.to_json());
    doc.set(
        "setup_samples_s",
        Json::Arr(setups.iter().map(|&s| s.into()).collect()),
    );
    doc.set("jobs", Json::Arr(records));
    doc.set(
        "errors",
        Json::Arr(errors.iter().map(|e| e.as_str().into()).collect()),
    );
    doc.set("result", result.clone());
    let path = out_dir.join(format!("{name}-seed{seed}-trace{}.json", u8::from(trace)));
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", result.render());
    Ok(())
}

/// Medians across jobs, the op totals, and the correctness verdict.
fn summarize(records: &[Json], setups: &[f64], trace: bool, errors: &[String]) -> Json {
    let num = |r: &Json, k: &str| r.num(k).unwrap_or(f64::NAN);
    let attempted: f64 =
        records.iter().map(|r| num(r, "attempted")).sum::<f64>() + errors.len() as f64;
    let failed: f64 = records.iter().map(|r| num(r, "failed")).sum::<f64>() + errors.len() as f64;
    for r in records {
        for f in r.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            eprintln!("perfbench: failed op: {}", f.as_str().unwrap_or("?"));
        }
    }
    // Analytic outputs must be bit-identical across the jobs' seeds.
    let values: Vec<&Json> = records.iter().filter_map(|r| r.get("values")).collect();
    let seed_independent = values.windows(2).all(|w| w[0] == w[1]);
    if !seed_independent {
        eprintln!("perfbench: analytic outputs differ between job seeds");
    }
    let correct = errors.is_empty() && !records.is_empty() && failed == 0.0 && seed_independent;

    let mut metrics = Json::obj();
    let mut put = |name: &str, unit: &str, value: f64| {
        let mut m = Json::obj();
        m.set("value", value);
        m.set("unit", unit);
        metrics.set(name, m);
    };
    let col = |rs: &[&Json], k: &str| -> Vec<f64> { rs.iter().filter_map(|r| r.num(k)).collect() };
    let all: Vec<&Json> = records.iter().collect();
    if !trace {
        let mut setup = setups.to_vec();
        setup.extend(col(&all, "setup_s"));
        for &(name, unit) in END_TO_END {
            let v = if name == "setup_s" {
                median(&setup)
            } else {
                median(&col(&all, name))
            };
            put(name, unit, v);
        }
    } else {
        let traced: Vec<&Json> = all
            .iter()
            .copied()
            .filter(|r| r.get("traced") == Some(&Json::Bool(true)))
            .collect();
        let plain: Vec<&Json> = all
            .iter()
            .copied()
            .filter(|r| r.get("traced") != Some(&Json::Bool(true)))
            .collect();
        let mut layer: BTreeMap<&str, Option<f64>> = BTreeMap::new();
        for &(name, _) in PER_LAYER {
            let present: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.get("layers").and_then(|l| l.num(name)))
                .collect();
            layer.insert(name, (!present.is_empty()).then(|| median(&present)));
        }
        layer.insert(
            "trace.overhead_s",
            Some(median(&col(&traced, "wall_s")) - median(&col(&plain, "wall_s"))),
        );
        layer.insert(
            "op.unattributed_ratio",
            col(&traced, "unattributed_ratio")
                .into_iter()
                .reduce(f64::max),
        );
        let absent: Vec<&str> = layer
            .iter()
            .filter(|(k, v)| v.is_none() && **k != "trace.absent_metrics")
            .map(|(k, _)| *k)
            .collect();
        layer.insert("trace.absent_metrics", Some(absent.len() as f64));
        // The result line needs a number for every metric: absent ones
        // print as 0, are counted in `trace.absent_metrics`, and are
        // named here and as `null` in the job records.
        if !absent.is_empty() {
            println!(
                "absent per-layer metrics (reported as 0): {}",
                absent.join(", ")
            );
        }
        for &(name, unit) in PER_LAYER {
            put(name, unit, layer[name].unwrap_or(0.0));
        }
    }
    let mut out = Json::obj();
    out.set("correct", correct);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("metrics", metrics);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = bench_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn job_seeds_are_deterministic_and_distinct() {
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
        assert_ne!(job_seed(7, 3), job_seed(7, 4));
        assert_ne!(job_seed(7, 3), job_seed(8, 3));
    }

    fn record(traced: bool, wall: f64, layers: Json) -> Json {
        let mut r = Json::obj();
        r.set("traced", traced);
        r.set("wall_s", wall);
        r.set("setup_s", 0.01);
        r.set("peak_rss_mb", 100.0);
        r.set("attempted", 4.0);
        r.set("failed", 0.0);
        r.set("values", Json::obj());
        r.set("unattributed_ratio", 0.01);
        r.set("layers", layers);
        r
    }

    #[test]
    fn summary_reports_every_metric_and_flags_absent_ones() {
        let mut layers = Json::obj();
        layers.set("graph.states", 10.0);
        layers.set("graph.dedup_hits", Json::Null);
        let recs = vec![
            record(true, 2.0, layers.clone()),
            record(false, 1.5, layers),
        ];
        let out = summarize(&recs, &[0.01], true, &[]);
        assert_eq!(out.get("correct"), Some(&Json::Bool(true)));
        let m = out.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), PER_LAYER.len());
        let v = |k: &str| m.get(k).unwrap().num("value").unwrap();
        assert_eq!(v("graph.states"), 10.0);
        assert_eq!(v("trace.overhead_s"), 0.5);
        // Every per-layer name except the two present ones (and the
        // three the client computes) is absent.
        assert_eq!(v("trace.absent_metrics"), (PER_LAYER.len() - 4) as f64);

        let out = summarize(&recs, &[0.01, 0.03], false, &[]);
        let m = out.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(m.get("wall_s").unwrap().num("value"), Some(1.75));
        assert_eq!(m.get("setup_s").unwrap().num("value"), Some(0.01));
    }

    #[test]
    fn failed_ops_and_seed_dependence_are_not_correct() {
        let mut bad = record(false, 1.0, Json::obj());
        bad.set("failed", 1.0);
        let out = summarize(&[bad], &[], false, &[]);
        assert_eq!(out.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(out.num("failed"), Some(1.0));

        let mut a = record(false, 1.0, Json::obj());
        let mut b = a.clone();
        let mut va = Json::obj();
        va.set("x.mean_ms", 1.0);
        let mut vb = Json::obj();
        vb.set("x.mean_ms", 1.0 + 1e-15);
        a.set("values", va);
        b.set("values", vb);
        let out = summarize(&[a, b], &[], false, &[]);
        assert_eq!(out.get("correct"), Some(&Json::Bool(false)));
    }
}
