//! Telemetry parity of the two dedup engines: one exploration driver
//! runs both, so resident and forced-external exploration of the same
//! model must open the same `explore` span (tagged with its engine),
//! record the same `bfs_level` spans, and report equal level,
//! transition and dedup-hit counters and the same state total. Levels,
//! transitions and "transitions minus new states" per level are model
//! properties, not engine ones.
//!
//! Telemetry is process-wide, so this test lives in its own
//! integration binary.

use ctsim_models::{build_model, decided_place_ids, SanParams};
use ctsim_san::Marking;
use ctsim_solve::{DedupMode, ReachOptions, SpillOptions, StateSpace};

/// The value of `"name": <number>` in a rendered telemetry document.
fn number(doc: &str, name: &str) -> Option<f64> {
    let at = doc.find(&format!("\"{name}\": "))? + name.len() + 4;
    let end = doc[at..].find([',', '\n', '}'])?;
    doc[at..at + end].trim().parse().ok()
}

/// What one telemetry-recorded exploration reports.
#[derive(Debug, PartialEq)]
struct Report {
    levels: Option<f64>,
    transitions: Option<f64>,
    dedup_hits: Option<f64>,
    states_total: Option<f64>,
    bfs_level_spans: usize,
    explore_spans: usize,
}

fn explore_recorded(spill: Option<SpillOptions>, engine: &str) -> (Report, usize) {
    let params = SanParams::paper_baseline(2);
    let model = build_model(&params);
    let decided = decided_place_ids(&model, params.n);
    let goal = move |m: &Marking| decided.iter().any(|&d| m.get(d) > 0);
    let opts = ReachOptions {
        ph_order: 2,
        threads: 2,
        spill,
        ..ReachOptions::default()
    };
    ctsim_obs::enable();
    let ss = StateSpace::explore(&model, &opts, Some(&goal)).expect("explore");
    ctsim_obs::disable();
    let metrics = ctsim_obs::metrics_json();
    let trace = ctsim_obs::chrome_trace_json();
    let report = Report {
        levels: number(&metrics, "explore.levels"),
        transitions: number(&metrics, "explore.transitions"),
        dedup_hits: number(&metrics, "explore.dedup_hits"),
        states_total: number(&metrics, "explore.states_total"),
        bfs_level_spans: trace.matches("\"name\": \"bfs_level\"").count(),
        explore_spans: trace.matches(&format!("\"engine\": \"{engine}\"")).count(),
    };
    (report, ss.len())
}

#[test]
fn resident_and_external_engines_report_the_same_exploration() {
    let (resident, states) = explore_recorded(None, "resident");
    let external_spill = SpillOptions::with_budget(1 << 30).dedup(DedupMode::External);
    let (external, external_states) = explore_recorded(Some(external_spill), "external");
    assert_eq!(states, external_states);
    assert_eq!(
        resident.explore_spans, 1,
        "one explore span, engine=resident"
    );
    assert_eq!(resident.states_total, Some(states as f64));
    let levels = resident.levels.expect("explore.levels recorded");
    assert!(levels > 1.0, "model must span several BFS levels");
    assert_eq!(resident.bfs_level_spans as f64, levels);
    let hits = resident.dedup_hits.expect("explore.dedup_hits recorded");
    assert!(hits > 0.0, "model must rediscover states: {resident:?}");
    assert_eq!(resident, external);
}
