//! The per-call ledger: every layer call a job makes is timed from
//! outside, recorded as a span, and — in a traced job — paired with
//! the telemetry counters of exactly that call.
//!
//! Scoping is done here, not in `ctsim-obs`: [`ctsim_obs::enable`]
//! clears every counter, so enabling right before a call and reading
//! [`ctsim_obs::metrics_json`] right after it attributes each counter
//! to one call. Gauges are never read — state counts come from the
//! values the calls return.

use std::collections::BTreeMap;
use std::time::{Instant, SystemTime};

use crate::json::Json;

/// The pipeline layers, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `ctsim-models`: `build_model`.
    Models,
    /// `ctsim-solve` exploration + CSR assembly: `AnalyticRun::first_passage_with`.
    Graph,
    /// `ctsim-solve` mean first-passage solve: `AnalyticRun::mean`,
    /// `extrapolated_mean`.
    Steady,
    /// `ctsim-solve` uniformization: `AnalyticRun::cdf`.
    Transient,
    /// `ctsim-san` replications: `latency_replications`.
    Sim,
    /// `ctsim-experiments` campaign engine: `campaign::run_with`.
    Campaign,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Models => "models",
            Layer::Graph => "graph",
            Layer::Steady => "steady",
            Layer::Transient => "transient",
            Layer::Sim => "sim",
            Layer::Campaign => "campaign",
        }
    }
}

/// Telemetry read back after one call: counters plus histogram digests
/// (`total`, `sum`, `max`). A name missing here was not recorded by
/// the call — it is absent, not zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub counters: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, (f64, f64, f64)>,
}

impl Counters {
    /// Extracts counters and histograms from a `metrics_json` document.
    pub fn from_metrics(doc: &str) -> Result<Self, String> {
        let v = Json::parse(doc)?;
        let mut out = Counters::default();
        if let Some(m) = v.get("counters").and_then(Json::as_obj) {
            for (k, x) in m {
                if let Some(x) = x.as_f64() {
                    out.counters.insert(k.clone(), x);
                }
            }
        }
        if let Some(m) = v.get("histograms").and_then(Json::as_obj) {
            for (k, h) in m {
                if let (Some(t), Some(s), Some(mx)) = (h.num("total"), h.num("sum"), h.num("max")) {
                    out.hists.insert(k.clone(), (t, s, mx));
                }
            }
        }
        Ok(out)
    }
}

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Call {
    pub layer: Layer,
    pub name: String,
    /// Seconds since the job started.
    pub start_s: f64,
    pub end_s: f64,
    /// Process CPU seconds (user + system, all threads) spent across
    /// the call, when `getrusage` is available.
    pub cpu_s: Option<f64>,
    /// `Some` only in a traced job.
    pub counters: Option<Counters>,
}

impl Call {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Process CPU time (user + system, every thread) from `getrusage`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> Option<f64> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then 14 `long`s.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        _rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` with the 64-bit
    // Linux layout (the cfg above), and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    (rc == 0).then(|| {
        let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        tv(&ru.utime) + tv(&ru.stime)
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> Option<f64> {
    None
}

/// Records the layer calls, checks and analytic values of one job.
pub struct Recorder {
    traced: bool,
    /// The op id every span of this job carries.
    pub op_id: u64,
    start: Instant,
    end_s: Option<f64>,
    /// Wall-clock moment the first non-`models` layer call began —
    /// the end of set-up.
    pub first_timed: Option<SystemTime>,
    pub calls: Vec<Call>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Every analytic output, by name — seed-independent by design.
    pub values: BTreeMap<String, f64>,
}

impl Recorder {
    pub fn new(traced: bool, op_id: u64) -> Self {
        Self {
            traced,
            op_id,
            start: Instant::now(),
            end_s: None,
            first_timed: None,
            calls: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Runs one layer call, timing it from outside and, in a traced
    /// job, scoping the telemetry counters to it.
    pub fn call<T>(&mut self, layer: Layer, name: &str, f: impl FnOnce() -> T) -> T {
        if layer != Layer::Models && self.first_timed.is_none() {
            self.first_timed = Some(SystemTime::now());
        }
        if self.traced {
            ctsim_obs::enable();
        }
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let cpu1 = cpu_seconds();
        let counters = self.traced.then(|| {
            let doc = ctsim_obs::metrics_json();
            ctsim_obs::disable();
            Counters::from_metrics(&doc).expect("ctsim-obs renders valid JSON")
        });
        self.calls.push(Call {
            layer,
            name: name.to_string(),
            start_s: (t0 - self.start).as_secs_f64(),
            end_s: (t1 - self.start).as_secs_f64(),
            cpu_s: cpu0.zip(cpu1).map(|(a, b)| b - a),
            counters,
        });
        out
    }

    /// Counts one op; `Err` (a layer error or a failed check) counts
    /// it as failed.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Records an analytic output.
    pub fn value(&mut self, name: &str, x: f64) {
        self.values.insert(name.to_string(), x);
    }

    /// Marks the job's answers as checked: the end of `wall_s`.
    pub fn finish(&mut self) {
        self.end_s = Some(self.start.elapsed().as_secs_f64());
    }

    pub fn wall_s(&self) -> f64 {
        self.end_s
            .unwrap_or_else(|| self.start.elapsed().as_secs_f64())
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Share of the job's wall time not covered by a layer span.
    pub fn unattributed_ratio(&self) -> f64 {
        let covered: f64 = self.calls.iter().map(Call::dur_s).sum();
        (1.0 - covered / self.wall_s()).max(0.0)
    }

    /// The job's spans: a root `job` span (index 0) and one child per
    /// layer call, all carrying the job's op id.
    pub fn spans(&self) -> Json {
        let span = |name: &str, start: f64, end: f64, parent: Option<usize>| {
            let mut s = Json::obj();
            s.set("name", name);
            s.set("start_s", start);
            s.set("end_s", end);
            s.set("parent", parent);
            s.set("op", self.op_id);
            s
        };
        let mut out = vec![span("job", 0.0, self.wall_s(), None)];
        for c in &self.calls {
            let name = format!("{}.{}", c.layer.name(), c.name);
            out.push(span(&name, c.start_s, c.end_s, Some(0)));
        }
        Json::Arr(out)
    }

    /// Calls into any of `layers`.
    pub fn calls_in<'a>(&'a self, layers: &'a [Layer]) -> impl Iterator<Item = &'a Call> + 'a {
        self.calls.iter().filter(move |c| layers.contains(&c.layer))
    }

    /// Summed duration of the calls into `layer` (0 when none ran).
    pub fn time_in(&self, layer: Layer) -> f64 {
        self.calls_in(&[layer]).map(Call::dur_s).sum()
    }

    /// Sum of counter `name` over the calls into `layers`. No calls
    /// means no work: `Some(0)`. Calls that ran but never recorded the
    /// counter make it absent: `None`.
    pub fn counter(&self, layers: &[Layer], name: &str) -> Option<f64> {
        sum_present(self.calls_in(layers).map(|c| {
            c.counters
                .as_ref()
                .and_then(|k| k.counters.get(name).copied())
        }))
    }

    /// Histogram `name` merged over the calls into `layers`:
    /// `(total, sum, max)`, with the same absent rule as [`counter`].
    ///
    /// [`counter`]: Recorder::counter
    pub fn hist(&self, layers: &[Layer], name: &str) -> Option<(f64, f64, f64)> {
        let mut any_call = false;
        let mut acc: Option<(f64, f64, f64)> = None;
        for c in self.calls_in(layers) {
            any_call = true;
            if let Some(&(t, s, m)) = c.counters.as_ref().and_then(|k| k.hists.get(name)) {
                let (t0, s0, m0) = acc.unwrap_or((0.0, 0.0, 0.0));
                acc = Some((t0 + t, s0 + s, m0.max(m)));
            }
        }
        if any_call {
            acc
        } else {
            Some((0.0, 0.0, 0.0))
        }
    }
}

/// Sums the present values; an empty iterator is `Some(0)` (nothing
/// ran), one with only `None`s is `None` (ran, never recorded).
pub fn sum_present(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let mut any = false;
    let mut acc: Option<f64> = None;
    for v in values {
        any = true;
        if let Some(x) = v {
            acc = Some(acc.unwrap_or(0.0) + x);
        }
    }
    if any {
        acc
    } else {
        Some(0.0)
    }
}

/// `num / base`, stated with its base: undefined (absent) when the
/// base is zero or either side is absent.
pub fn ratio(num: Option<f64>, base: Option<f64>) -> Option<f64> {
    match (num, base) {
        (Some(n), Some(b)) if b > 0.0 => Some(n / b),
        _ => None,
    }
}

/// Median of a sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(layer: Layer, counters: Option<Counters>) -> Call {
        Call {
            layer,
            name: "x".into(),
            start_s: 0.0,
            end_s: 1.0,
            cpu_s: None,
            counters,
        }
    }

    fn with_counter(name: &str, v: f64) -> Counters {
        let mut c = Counters::default();
        c.counters.insert(name.into(), v);
        c
    }

    #[test]
    fn ratios_use_their_stated_base() {
        // dedup ratio: hits / (hits + states).
        assert_eq!(ratio(Some(1.0), Some(1.0 + 3.0)), Some(0.25));
        // A zero or absent base leaves the ratio undefined, not 0.
        assert_eq!(ratio(Some(0.0), Some(0.0)), None);
        assert_eq!(ratio(Some(1.0), None), None);
        assert_eq!(ratio(None, Some(2.0)), None);
    }

    #[test]
    fn absent_counters_are_not_zero() {
        let mut r = Recorder::new(true, 0);
        // No graph call yet: no work, so zero.
        assert_eq!(r.counter(&[Layer::Graph], "explore.dedup_hits"), Some(0.0));
        // A graph call that never recorded the counter: absent.
        r.calls.push(call(Layer::Graph, Some(Counters::default())));
        assert_eq!(r.counter(&[Layer::Graph], "explore.dedup_hits"), None);
        assert_eq!(r.hist(&[Layer::Graph], "intern.probe_len"), None);
        // One call recording it makes the sum present.
        r.calls.push(call(
            Layer::Graph,
            Some(with_counter("explore.dedup_hits", 7.0)),
        ));
        assert_eq!(r.counter(&[Layer::Graph], "explore.dedup_hits"), Some(7.0));
        // An untraced call has no counters at all: absent.
        let mut u = Recorder::new(false, 0);
        u.calls.push(call(Layer::Steady, None));
        assert_eq!(u.counter(&[Layer::Steady], "spmv.products"), None);
    }

    #[test]
    fn counters_come_from_metrics_json() {
        ctsim_obs::enable();
        ctsim_obs::counter_add("a.b", 3);
        ctsim_obs::hist_record("h", 2);
        ctsim_obs::hist_record("h", 9);
        let doc = ctsim_obs::metrics_json();
        ctsim_obs::disable();
        let c = Counters::from_metrics(&doc).unwrap();
        assert_eq!(c.counters.get("a.b"), Some(&3.0));
        assert_eq!(c.hists.get("h"), Some(&(2.0, 11.0, 9.0)));
        assert!(!c.counters.contains_key("missing"));
    }

    #[test]
    fn spans_cover_the_calls() {
        let mut r = Recorder::new(false, 5);
        r.call(Layer::Models, "build", || ());
        r.call(Layer::Graph, "explore", || ());
        r.finish();
        let spans = r.spans();
        let spans = spans.as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("models.build"));
        assert_eq!(spans[2].num("parent"), Some(0.0));
        assert!(spans.iter().all(|s| s.num("op") == Some(5.0)));
        assert!(r.first_timed.is_some());
        assert!((0.0..=1.0).contains(&r.unattributed_ratio()));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
