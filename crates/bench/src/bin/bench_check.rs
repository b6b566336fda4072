//! `bench_check` — the CI bench-regression gate.
//!
//! Compares the exploration- and solve-phase throughput metrics of a
//! fresh `BENCH_solver.json` (produced by the `solver_vs_sim` bench,
//! smoke mode included) against the committed baseline
//! `ci/bench_baseline.json`, and fails on a regression beyond the
//! allowed fraction (default 25 %).
//!
//! ```text
//! bench_check <current.json> <baseline.json> [--max-regression 0.25]
//! ```
//!
//! Raw nanoseconds are machine-bound, so every gate compares a
//! **normalised** throughput: the workload's states-per-nanosecond,
//! multiplied by the per-replication cost of the simulator campaign
//! from the same run. The simulator work is a fixed, allocation-light
//! workload whose wall-clock tracks the host's general speed, so the
//! ratio cancels runner-to-runner variation to first order and
//! isolates *relative* regressions of the gated phase. Gated metrics:
//!
//! * **exploration** — single-thread first-passage exploration of the
//!   n = 3 exponential model over the concurrent intern table (the
//!   PR 3 gate);
//! * **solve (per backend)** — the single-thread `Q_TT τ = -1` mean
//!   solve on the same n = 3 CTMC, one gate per linear-algebra
//!   backend, so a regression in any of Gauss–Seidel, Jacobi, or
//!   Krylov fails CI even while the others stay fast;
//! * **matvec** — the single-thread forward `Q v` product of the CSR
//!   generator on the same n = 3 space;
//! * **out-of-core analytic** — the full explore → CSR → Krylov-mean
//!   pipeline on the same n = 3 space under an 8 MB spill budget with
//!   external-memory dedup, plus a peak-heap gate on the spilled leg
//!   proving the budget keeps the bulk arrays out of RAM.
//!
//! Both files must come from the same bench code for names to line up.

use std::process::ExitCode;

/// The gated workloads: display label and row-name prefix (the state
/// count follows the prefix in the row name).
const GATES: &[(&str, &str)] = &[
    (
        "explore",
        "concurrent_intern/explore_exp_n3_threads1_states",
    ),
    (
        "solve/gauss-seidel",
        "solver_backends/solve_exp_n3_gauss_seidel_threads1_states",
    ),
    (
        "solve/jacobi",
        "solver_backends/solve_exp_n3_jacobi_threads1_states",
    ),
    (
        "solve/krylov",
        "solver_backends/solve_exp_n3_krylov_threads1_states",
    ),
    (
        "ooc/analytic-spilled",
        "out_of_core/analytic_exp_n3_ddd_spill8M_states",
    ),
    ("matvec/csr", "csr_matvec/flow_mul_exp_n3_threads1_states"),
    (
        "campaign/warm-grid",
        "campaign/grid_warm_paper_n2_order8_points16_states",
    ),
    (
        "campaign/cold-grid",
        "campaign/grid_cold_paper_n2_order8_points16_states",
    ),
];

/// Raw-throughput gates: workloads whose states-per-nanosecond figure
/// is machine-independent by construction (the `campaign` hit-rate row
/// pins `ns_per_iter` at 1000 and encodes hits-per-1000-points as its
/// state count), so they gate without the simulator calibration.
const RAW_GATES: &[(&str, &str)] = &[(
    "campaign hit-rate",
    "campaign/cache_hit_rate_per1000_states",
)];

/// The peak-memory gates: rows whose `peak_bytes` (exact live-heap
/// peak from the bench's counting allocator) must not regress beyond
/// the allowed fraction. Unlike wall-clock, peak bytes of a
/// deterministic workload are machine-independent, so the gate
/// compares raw bytes without the throughput normalisation.
const MEM_GATES: &[(&str, &str)] = &[
    (
        "explore peak-mem",
        "concurrent_intern/explore_exp_n3_threads1_states",
    ),
    (
        "ooc spilled peak-mem",
        "out_of_core/analytic_exp_n3_ddd_spill8M_states",
    ),
];

/// The calibration workload: the simulator replication campaign, whose
/// name carries its replication count as `..._x<reps>`.
const CALIBRATE_PREFIX: &str = "solver_vs_sim/simulator_n2_replications_for_1pct_ci_x";

struct Row {
    name: String,
    ns_per_iter: f64,
    peak_bytes: Option<f64>,
}

/// Index just past the closing quote of the string starting at `at`
/// (which must point at the opening `"`). `\"` escapes are honoured.
fn end_of_string(text: &str, at: usize) -> usize {
    let bytes = text.as_bytes();
    let mut i = at + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Index just past the bracket matching the `{` or `[` at `start`,
/// string-aware so braces inside quoted values don't count.
fn end_of_balanced(text: &str, start: usize) -> usize {
    let bytes = text.as_bytes();
    let (open, close) = if bytes[start] == b'{' {
        (b'{', b'}')
    } else {
        (b'[', b']')
    };
    let mut depth = 0usize;
    let mut i = start;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'"' {
            i = end_of_string(text, i);
            continue;
        }
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    bytes.len()
}

/// Index just past the JSON value starting at `at`: a string, a nested
/// object/array (skipped wholesale), or a bare scalar (read up to the
/// enclosing `,`/`}`/`]`).
fn end_of_value(text: &str, at: usize) -> usize {
    match text.as_bytes()[at] {
        b'"' => end_of_string(text, at),
        b'{' | b'[' => end_of_balanced(text, at),
        _ => text[at..]
            .find([',', '}', ']'])
            .map_or(text.len(), |off| at + off),
    }
}

/// One measurement row from the body of a results-array object
/// (`body` excludes the outer braces). Only the row's *own* `name` /
/// `ns_per_iter` / `peak_bytes` fields count — keys inside nested
/// objects (e.g. a row's `op` context) are skipped with their values,
/// and unknown keys of any shape are ignored.
fn row_from_object(body: &str) -> Option<Row> {
    let bytes = body.as_bytes();
    let (mut name, mut ns, mut peak) = (None, None, None);
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let key_end = end_of_string(body, i);
        let key = &body[i + 1..key_end - 1];
        let Some(colon_off) = body[key_end..].find(|c: char| !c.is_whitespace()) else {
            break;
        };
        if bytes[key_end + colon_off] != b':' {
            i = key_end;
            continue;
        }
        let Some(val_off) = body[key_end + colon_off + 1..].find(|c: char| !c.is_whitespace())
        else {
            break;
        };
        let val_at = key_end + colon_off + 1 + val_off;
        let val_end = end_of_value(body, val_at);
        let raw = body[val_at..val_end].trim();
        match key {
            "name" => name = raw.strip_prefix('"')?.strip_suffix('"').map(String::from),
            "ns_per_iter" => ns = raw.parse::<f64>().ok(),
            "peak_bytes" => peak = raw.parse::<f64>().ok(),
            _ => {}
        }
        i = val_end;
    }
    Some(Row {
        name: name?,
        ns_per_iter: ns?,
        peak_bytes: peak,
    })
}

/// Extracts the measurement rows from the `"results"` array of a bench
/// JSON document (the workspace builds offline — no JSON crate — and
/// the format is ours end to end). The scan is structural, not
/// line-based: rows may span lines, nest objects (the `op` context of
/// the `csr_matvec` rows), or carry unknown keys, and anything that
/// lacks a `name` + `ns_per_iter` of its own is skipped.
fn parse_rows(text: &str) -> Vec<Row> {
    let Some(results_at) = text.find("\"results\"") else {
        return Vec::new();
    };
    let Some(array_at) = text[results_at..].find('[').map(|off| results_at + off) else {
        return Vec::new();
    };
    let array_end = end_of_balanced(text, array_at);
    let mut rows = Vec::new();
    let bytes = text.as_bytes();
    let mut i = array_at + 1;
    while i < array_end {
        if bytes[i] == b'{' {
            let end = end_of_balanced(text, i);
            if let Some(row) = row_from_object(&text[i + 1..end - 1]) {
                rows.push(row);
            }
            i = end;
        } else {
            i += 1;
        }
    }
    rows
}

/// Peak live-heap bytes of the row matching `prefix`, if recorded.
fn peak_of(rows: &[Row], prefix: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.name.starts_with(prefix))
        .and_then(|r| r.peak_bytes)
}

/// States-per-nanosecond of the row matching `prefix` (state count is
/// embedded in the row name).
fn throughput(rows: &[Row], prefix: &str) -> Option<f64> {
    let row = rows.iter().find(|r| r.name.starts_with(prefix))?;
    let states: f64 = row.name[prefix.len()..].parse().ok()?;
    (row.ns_per_iter > 0.0).then(|| states / row.ns_per_iter)
}

/// Nanoseconds per simulator replication (the machine-speed yardstick).
fn ns_per_replication(rows: &[Row]) -> Option<f64> {
    let row = rows.iter().find(|r| r.name.starts_with(CALIBRATE_PREFIX))?;
    let reps: f64 = row.name[CALIBRATE_PREFIX.len()..].parse().ok()?;
    (reps > 0.0).then(|| row.ns_per_iter / reps)
}

/// The normalised throughput of one gated workload in one results
/// file: states processed per unit of "one simulator replication" of
/// work.
fn normalised(rows: &[Row], prefix: &str) -> Result<f64, String> {
    let tp = throughput(rows, prefix)
        .ok_or_else(|| format!("no `{prefix}*` row (did the bench run?)"))?;
    let cal = ns_per_replication(rows)
        .ok_or_else(|| format!("no `{CALIBRATE_PREFIX}*` calibration row"))?;
    Ok(tp * cal)
}

/// One-line failure report for a gated metric: the percentage delta
/// *and* the baseline-vs-measured values, so the CI log names the
/// offending numbers without anyone opening the artifacts.
fn failure_line(what: &str, base: f64, cur: f64, delta_pct: f64, allowed_pct: f64) -> String {
    format!(
        "{what} regressed {delta_pct:.1}% (allowed {allowed_pct:.0}%): \
         baseline {base:.4} vs measured {cur:.4}"
    )
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut current, mut baseline, mut max_regression) = (None, None, 0.25f64);
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--max-regression" {
            max_regression = it
                .next()
                .ok_or("missing value for --max-regression")?
                .parse::<f64>()
                .map_err(|e| e.to_string())?;
        } else if current.is_none() {
            current = Some(a);
        } else if baseline.is_none() {
            baseline = Some(a);
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    let usage = "usage: bench_check <current.json> <baseline.json> [--max-regression 0.25]";
    let current = current.ok_or(usage)?;
    let baseline = baseline.ok_or(usage)?;

    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let cur_rows = parse_rows(&read(&current)?);
    let base_rows = parse_rows(&read(&baseline)?);

    let mut failures = Vec::new();
    println!("normalised throughput (states per simulator-replication of work):");
    for &(label, prefix) in GATES {
        let cur = normalised(&cur_rows, prefix).map_err(|e| format!("{current}: {e}"))?;
        let base = normalised(&base_rows, prefix).map_err(|e| format!("{baseline}: {e}"))?;
        let ratio = cur / base;
        println!(
            "  {label:<20} baseline {base:>10.4}  current {cur:>10.4}  ratio {ratio:.3}  \
             (gate: >= {:.3})",
            1.0 - max_regression
        );
        if ratio < 1.0 - max_regression {
            failures.push(failure_line(
                &format!("{label} throughput"),
                base,
                cur,
                (1.0 - ratio) * 100.0,
                max_regression * 100.0,
            ));
        }
    }
    println!("raw throughput (machine-independent by construction):");
    for &(label, prefix) in RAW_GATES {
        let cur = throughput(&cur_rows, prefix)
            .ok_or_else(|| format!("{current}: no `{prefix}*` row (did the bench run?)"))?;
        let base = throughput(&base_rows, prefix)
            .ok_or_else(|| format!("{baseline}: no `{prefix}*` row"))?;
        let ratio = cur / base;
        println!(
            "  {label:<20} baseline {base:>10.4}  current {cur:>10.4}  ratio {ratio:.3}  \
             (gate: >= {:.3})",
            1.0 - max_regression
        );
        if ratio < 1.0 - max_regression {
            failures.push(failure_line(
                &format!("{label} throughput"),
                base,
                cur,
                (1.0 - ratio) * 100.0,
                max_regression * 100.0,
            ));
        }
    }
    println!("peak live-heap (bytes, exact allocator count — lower is better):");
    for &(label, prefix) in MEM_GATES {
        let cur = peak_of(&cur_rows, prefix)
            .ok_or_else(|| format!("{current}: no `{prefix}*` peak_bytes (did the bench run?)"))?;
        let base = peak_of(&base_rows, prefix)
            .ok_or_else(|| format!("{baseline}: no `{prefix}*` peak_bytes"))?;
        let ratio = cur / base;
        println!(
            "  {label:<20} baseline {base:>13.0}  current {cur:>13.0}  ratio {ratio:.3}  \
             (gate: <= {:.3})",
            1.0 + max_regression
        );
        if ratio > 1.0 + max_regression {
            failures.push(failure_line(
                label,
                base,
                cur,
                (ratio - 1.0) * 100.0,
                max_regression * 100.0,
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "solver_vs_sim",
  "mode": "smoke",
  "host": { "logical_cores": 16, "page_size_bytes": 4096, "total_ram_bytes": 67108864000 },
  "results": [
    { "name": "solver_vs_sim/simulator_n2_replications_for_1pct_ci_x2500", "ns_per_iter": 25000000.0, "iters": 1 },
    { "name": "concurrent_intern/explore_exp_n3_threads1_states135125", "ns_per_iter": 700000000.0, "iters": 2, "peak_bytes": 104857600 },
    { "name": "solver_backends/solve_exp_n3_gauss_seidel_threads1_states135125", "ns_per_iter": 90000000.0, "iters": 2 },
    { "name": "solver_backends/solve_exp_n3_jacobi_threads1_states135125", "ns_per_iter": 150000000.0, "iters": 2 },
    { "name": "solver_backends/solve_exp_n3_krylov_threads1_states135125", "ns_per_iter": 60000000.0, "iters": 2 },
    {
      "name": "csr_matvec/flow_mul_exp_n3_threads1_states135125",
      "ns_per_iter": 500000.0,
      "iters": 20, "peak_bytes": 52428800,
      "op": { "generator": "csr", "product": "flow", "threads": 1 }
    },
    { "name": "out_of_core/analytic_exp_n3_ddd_spill8M_states135125", "ns_per_iter": 650000000.0, "iters": 2, "peak_bytes": 37748736 },
    { "name": "campaign/grid_warm_paper_n2_order8_points16_states4272", "ns_per_iter": 40000000.0, "iters": 16 },
    { "name": "campaign/grid_cold_paper_n2_order8_points16_states4272", "ns_per_iter": 160000000.0, "iters": 16 },
    { "name": "campaign/cache_hit_rate_per1000_states937", "ns_per_iter": 1000.0, "iters": 16 }
  ]
}"#;

    #[test]
    fn parses_and_normalises_every_gate() {
        let rows = parse_rows(SAMPLE);
        // The host-info object sits outside the results array, so it
        // never becomes a measurement row.
        assert_eq!(rows.len(), 10);
        let cal = ns_per_replication(&rows).unwrap();
        assert!((cal - 10000.0).abs() < 1e-9);
        for &(label, prefix) in GATES {
            let tp = throughput(&rows, prefix).unwrap_or_else(|| panic!("no row for {label}"));
            assert!(tp > 0.0, "{label}");
            let norm = normalised(&rows, prefix).unwrap();
            assert!((norm - tp * cal).abs() < 1e-12, "{label}");
        }
        // Spot-check one: the explore gate.
        let tp = throughput(&rows, GATES[0].1).unwrap();
        assert!((tp - 135125.0 / 7e8).abs() < 1e-12);
    }

    #[test]
    fn raw_gates_skip_the_calibration_row() {
        let rows = parse_rows(SAMPLE);
        // The hit-rate row encodes hits-per-1000-points as its state
        // count over a pinned ns_per_iter of 1000, so its raw
        // throughput IS the hit rate — no simulator normalisation.
        let (_, prefix) = RAW_GATES[0];
        let rate = throughput(&rows, prefix).unwrap();
        assert!((rate - 0.937).abs() < 1e-12, "hit rate {rate}");
    }

    #[test]
    fn peak_bytes_are_parsed_and_optional() {
        let rows = parse_rows(SAMPLE);
        let peak = peak_of(&rows, MEM_GATES[0].1).expect("explore row carries peak_bytes");
        assert!((peak - 104857600.0).abs() < 1e-6);
        // Rows without the field simply report no peak.
        assert_eq!(
            peak_of(&rows, "solver_backends/solve_exp_n3_gauss_seidel"),
            None
        );
    }

    #[test]
    fn multiline_rows_with_nested_objects_parse_structurally() {
        // The csr_matvec rows span several lines and nest an `op`
        // object; a line-based scan would drop them (no `ns_per_iter`
        // on the `name` line) or mis-read the nested keys.
        let rows = parse_rows(SAMPLE);
        let csr = rows
            .iter()
            .find(|r| r.name.starts_with("csr_matvec/"))
            .expect("multi-line row parsed");
        assert_eq!(csr.name, "csr_matvec/flow_mul_exp_n3_threads1_states135125");
        assert!((csr.ns_per_iter - 500000.0).abs() < 1e-9);
        assert_eq!(csr.peak_bytes, Some(52428800.0));
        // No phantom row from the nested object's own keys.
        assert!(rows.iter().all(|r| !r.name.contains("generator")));
    }

    #[test]
    fn unknown_and_nested_keys_inside_rows_are_ignored() {
        // Future bench groups may attach arbitrary context — including
        // a nested object that itself has a "name" or "ns_per_iter"
        // key. Only the row's own fields may count.
        let doc = r#"{
  "results": [
    {
      "op": { "name": "inner", "ns_per_iter": 1.0, "peak_bytes": 7 },
      "name": "grp/row_states100",
      "annotations": ["a", "b}c"],
      "ns_per_iter": 2000.0,
      "iters": 3
    },
    { "comment": "no measurement fields at all" }
  ]
}"#;
        let rows = parse_rows(doc);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "grp/row_states100");
        assert!((rows[0].ns_per_iter - 2000.0).abs() < 1e-9);
        assert_eq!(rows[0].peak_bytes, None);
    }

    #[test]
    fn committed_baseline_satisfies_every_gate_prefix() {
        // The baseline the CI gate diffs against must resolve every
        // gated prefix — a drive-by rename of a bench row would
        // otherwise only surface on the next full CI run.
        let baseline = include_str!("../../../../ci/bench_baseline.json");
        let rows = parse_rows(baseline);
        for &(label, prefix) in GATES {
            assert!(normalised(&rows, prefix).is_ok(), "gate {label}");
        }
        for &(label, prefix) in RAW_GATES {
            assert!(throughput(&rows, prefix).is_some(), "raw gate {label}");
        }
        for &(label, prefix) in MEM_GATES {
            assert!(peak_of(&rows, prefix).is_some(), "mem gate {label}");
        }
    }

    #[test]
    fn failure_line_names_baseline_measured_and_delta_in_one_line() {
        let line = failure_line("explore throughput", 2.0, 1.0, 50.0, 25.0);
        assert_eq!(
            line,
            "explore throughput regressed 50.0% (allowed 25%): \
             baseline 2.0000 vs measured 1.0000"
        );
        assert!(!line.contains('\n'), "must stay a single log line");
    }

    #[test]
    fn missing_rows_are_reported() {
        let rows = parse_rows("{}");
        for &(_, prefix) in GATES {
            assert!(normalised(&rows, prefix).is_err());
        }
    }
}
