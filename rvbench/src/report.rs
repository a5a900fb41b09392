//! Turns reps and a traced pass into named metrics, checks the outputs,
//! and prints and serialises the result.

use crate::json::Value;
use crate::rep::RepRecord;
use crate::schema::{self, Metric, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::TraceReport;
use crate::workload::Workload;

/// The per-layer numbers of one workload: the traced pass, the kernels,
/// and the executor pair read from the untraced reps.
#[derive(Debug, Clone)]
pub struct LayerResult {
    /// All per-layer metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The traced pass behind them.
    pub trace: TraceReport,
    /// Traced-pass wall over the median untraced wall, minus one. Only
    /// meaningful on the serial workloads (the traced pass is serial).
    pub trace_overhead_share: f64,
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: &'static Workload,
    /// The untraced reps, in the order run.
    pub reps: Vec<RepRecord>,
    /// Set-up probes made by processes that did nothing else
    /// (`rvbench setup`), seconds; each rep adds its own.
    pub setup_probes_s: Vec<f64>,
    /// The per-layer numbers, when a traced pass was made.
    pub layers: Option<LayerResult>,
}

/// `{"value": .., "unit": ..}`, as the driver reads a metric.
fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj().with("value", value).with("unit", unit)
}

impl WorkloadResult {
    /// Per-rep values of the end-to-end metric `m` (`setup_s`: one per
    /// process that made the probe).
    fn values(&self, m: &Metric) -> Vec<f64> {
        if m.name == "setup_s" {
            let reps = self.reps.iter().map(|r| r.setup_s);
            return self.setup_probes_s.iter().copied().chain(reps).collect();
        }
        self.reps
            .iter()
            .map(|r| {
                let planned = r.planned.max(1) as f64;
                match m.name {
                    "sessions_per_sec" => planned / r.wall_s,
                    "cpu_s_per_ksession" => r.cpu_s / planned * 1000.0,
                    "peak_rss_mb" => r.peak_rss_mib,
                    "allocs_per_session" => r.allocs as f64 / planned,
                    "alloc_bytes_per_session" => r.alloc_bytes as f64 / planned,
                    "session_sim_s" => r.sim_seconds / planned,
                    "completed_share" => 1.0 - r.failed as f64 / planned,
                    other => unreachable!("end-to-end metric {other} has no definition"),
                }
            })
            .collect()
    }

    /// Every end-to-end metric with the summary of its per-rep values and
    /// the value reported for it: the median, except peak RSS, which is
    /// the largest any rep reached.
    pub fn end_to_end(&self) -> Vec<(&'static Metric, Summary, f64)> {
        END_TO_END
            .iter()
            .map(|m| {
                let summary = Summary::of(&self.values(m));
                let reported = if m.name == "peak_rss_mb" {
                    summary.max
                } else {
                    summary.median
                };
                (m, summary, reported)
            })
            .collect()
    }

    /// Sessions planned, over all reps.
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.planned).sum()
    }

    /// Sessions without a client-finalised record, over all reps.
    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    /// The reps' sim digest (the first rep's; [`Self::failed_checks`]
    /// says when they disagree).
    pub fn digest(&self) -> u64 {
        self.reps.first().map_or(0, |r| r.digest)
    }

    /// Whether the traced pass went through the mirror and still folded a
    /// different campaign: the mirror has drifted from the driver.
    fn mirror_drifted(&self) -> bool {
        self.layers
            .as_ref()
            .is_some_and(|l| l.trace.mirrored && l.trace.digest != self.digest())
    }

    /// The per-layer metrics to report, in schema order. When the mirror
    /// has drifted, `tracer.mirror_ok` reads 0 and the in-session numbers
    /// are withheld (0) rather than reported wrong.
    pub fn per_layer(&self) -> Vec<(&'static Metric, f64)> {
        let Some(layers) = &self.layers else {
            return Vec::new();
        };
        let drifted = self.mirror_drifted();
        PER_LAYER
            .iter()
            .filter_map(|m| {
                let value = layers.metrics.iter().find(|(n, _)| *n == m.name)?.1;
                let withheld =
                    layers.trace.in_session.contains(&m.name) || m.name == "tracer.mirror_ok";
                let value = if drifted && withheld { 0.0 } else { value };
                Some((m, value))
            })
            .collect()
    }

    /// Output checks that failed for this workload alone.
    pub fn failed_checks(&self) -> Vec<String> {
        let mut failed = Vec::new();
        let name = self.workload.name;
        if self.reps.is_empty() {
            failed.push(format!("{name}: no rep finished"));
        }
        for (i, rep) in self.reps.iter().enumerate() {
            for check in &rep.failed_checks {
                failed.push(format!("{name} rep {}: {check}", i + 1));
            }
            if rep.digest != self.digest() {
                failed.push(format!(
                    "{name} rep {}: sim digest {:016x} differs from rep 1's {:016x}",
                    i + 1,
                    rep.digest,
                    self.digest()
                ));
            }
        }
        if let Some(layers) = &self.layers {
            for check in &layers.trace.failed_checks {
                failed.push(format!("{name} traced pass: {check}"));
            }
            if layers.metrics.len() != PER_LAYER.len() {
                failed.push(format!(
                    "{name} traced pass: {} per-layer metrics, expected {}",
                    layers.metrics.len(),
                    PER_LAYER.len()
                ));
            }
            // A traced pass that drove every session through the real
            // `SessionWorld::run` and still folded something else means
            // the session loop here no longer mirrors `run_job_with`.
            if !self.reps.is_empty()
                && layers.trace.digest != self.digest()
                && !self.mirror_drifted()
            {
                failed.push(format!(
                    "{name} traced pass: sim digest {:016x} differs from the untraced {:016x}",
                    layers.trace.digest,
                    self.digest()
                ));
            }
        }
        failed
    }

    /// The driver's result line: the per-layer metrics with `--trace 1`,
    /// the end-to-end ones with `--trace 0`.
    pub fn driver_json(&self, trace_on: bool) -> Value {
        let mut metrics = Value::obj();
        if trace_on {
            for (m, value) in self.per_layer() {
                metrics = metrics.with(m.name, metric_json(value, m.unit));
            }
        } else {
            for (m, _, reported) in self.end_to_end() {
                metrics = metrics.with(m.name, metric_json(reported, m.unit));
            }
        }
        Value::obj()
            .with("correct", self.failed_checks().is_empty())
            .with("attempted", self.attempted().max(1))
            .with("failed", self.failed())
            .with("metrics", metrics)
    }

    /// This workload's entry in a result-set file.
    pub fn set_json(&self) -> Value {
        let mut e2e = Value::obj();
        for (m, summary, reported) in self.end_to_end() {
            e2e = e2e.with(m.name, summary.to_json(m.unit).with("value", reported));
        }
        let mut layers = Value::obj();
        for (m, value) in self.per_layer() {
            layers = layers.with(m.name, metric_json(value, m.unit));
        }
        let mut out = Value::obj()
            .with("name", self.workload.name)
            .with("digest", format!("{:016x}", self.digest()))
            .with("attempted", self.attempted())
            .with("failed", self.failed())
            .with("correct", self.failed_checks().is_empty())
            .with("end_to_end", e2e)
            .with("per_layer", layers);
        if let Some(l) = &self.layers {
            out = out.with(
                "bench",
                Value::obj()
                    .with("clock_pair_ns", l.trace.clock_pair_ns)
                    .with("trace_overhead_share", l.trace_overhead_share)
                    .with("sum_check", l.trace.sum_check)
                    .with("host_time_samples", l.trace.host_time_samples)
                    .with("spans_written", l.trace.spans_written)
                    .with("spans_dropped", l.trace.spans_dropped)
                    .with(
                        "top_sessions",
                        l.trace
                            .top_sessions
                            .iter()
                            .map(|s| {
                                Value::obj()
                                    .with("host_us", s.host_us)
                                    .with("campaign_seed", s.campaign_seed.to_string())
                                    .with("user", u64::from(s.user_id))
                                    .with("clip_seq", u64::from(s.clip_seq))
                                    .with("clip", s.clip.as_str())
                            })
                            .collect::<Vec<_>>(),
                    ),
            );
        }
        out
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        let w = self.workload;
        println!();
        println!("== {} — {}", w.name, w.why);
        if let Some(rep) = self.reps.first() {
            println!(
                "   seed {} | {} sessions planned, {} played | sim digest {:016x} | {} thread(s) available",
                rep.seed, rep.planned, rep.played, rep.digest, rep.threads_available
            );
        }
        if !self.reps.is_empty() {
            println!("   end to end, tracing off ({} rep(s)):", self.reps.len());
            for (m, s, reported) in self.end_to_end() {
                println!(
                    "     {:<26} {:>16} {:<10} [{}] min {} q1 {} q3 {} max {} n={}",
                    m.name,
                    fmt_num(reported),
                    m.unit,
                    m.kind.as_str(),
                    fmt_num(s.min),
                    fmt_num(s.q1),
                    fmt_num(s.q3),
                    fmt_num(s.max),
                    s.n()
                );
            }
            println!(
                "     failed_share               {:>16} fraction   ({} of {} sessions planned)",
                fmt_num(self.failed() as f64 / self.attempted().max(1) as f64),
                self.failed(),
                self.attempted()
            );
        }
        if let Some(l) = &self.layers {
            println!("   per layer, traced pass:");
            for (m, value) in self.per_layer() {
                println!(
                    "     {:<40} {:>16} {:<9} [{}]",
                    m.name,
                    fmt_num(value),
                    m.unit,
                    m.kind.as_str()
                );
            }
            println!(
                "     bench.clock_pair_ns                      {:>16} ns        [host]",
                fmt_num(l.trace.clock_pair_ns)
            );
            println!(
                "     bench.trace_overhead_share               {:>16} fraction  [host]",
                fmt_num(l.trace_overhead_share)
            );
            let verdict = if l.trace.sum_check == 0.0 {
                "withheld"
            } else if (0.9..=1.1).contains(&l.trace.sum_check) {
                "ok"
            } else {
                "OUTSIDE 10%"
            };
            println!(
                "     sum check: scaled layer + driver self time = {} x the measured run time ({verdict})",
                fmt_num(l.trace.sum_check)
            );
            println!(
                "     session host time over {} simulated sessions; costliest (replay with `repro trace --seed S --user U --clip C`):",
                l.trace.host_time_samples
            );
            for s in &l.trace.top_sessions {
                println!(
                    "       {:>12} us  seed {} user {} clip_seq {} {}",
                    fmt_num(s.host_us),
                    s.campaign_seed,
                    s.user_id,
                    s.clip_seq,
                    s.clip
                );
            }
            if let Some(path) = &l.trace.trace_path {
                println!(
                    "     {} spans written to {} ({} dropped)",
                    l.trace.spans_written,
                    path.display(),
                    l.trace.spans_dropped
                );
            }
            if self.mirror_drifted() {
                println!("     NOTE: the mirrored settle loop no longer reproduces SessionWorld::run; in-session numbers withheld");
            }
        }
        for check in self.failed_checks() {
            println!("   CHECK FAILED: {check}");
        }
    }
}

/// Builds the per-layer result from a traced pass, kernel results and the
/// untraced reps (which supply the executor pair and the overhead base).
pub fn layer_result(
    trace: TraceReport,
    kernels: &[(&'static str, f64)],
    reps: &[RepRecord],
) -> LayerResult {
    let mut metrics = trace.metrics.clone();
    metrics.extend_from_slice(kernels);

    let idle: f64 = reps.iter().map(|r| r.worker_idle_s).sum();
    let wall: f64 = reps.iter().map(|r| r.worker_wall_s).sum();
    let skews: Vec<f64> = reps.iter().map(|r| r.busy_skew).collect();
    metrics.push((
        "study.executor_idle_share",
        if wall > 0.0 { idle / wall } else { 0.0 },
    ));
    metrics.push((
        "study.executor_busy_skew",
        if skews.is_empty() {
            0.0
        } else {
            Summary::of(&skews).median
        },
    ));

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let trace_overhead_share = if walls.is_empty() {
        0.0
    } else {
        trace.wall_s / Summary::of(&walls).median - 1.0
    };
    LayerResult {
        metrics,
        trace,
        trace_overhead_share,
    }
}

/// Checks that span more than one workload: the two classic workloads
/// simulate the same campaign, and the short-watch workload really is
/// short beside them.
pub fn cross_checks(results: &[WorkloadResult]) -> Vec<String> {
    let find = |name: &str| {
        results
            .iter()
            .find(|r| r.workload.name == name && !r.reps.is_empty())
    };
    let mut failed = Vec::new();
    if let (Some(serial), Some(parallel)) = (find("classic_serial"), find("classic_parallel")) {
        if serial.reps[0].seed == parallel.reps[0].seed && serial.digest() != parallel.digest() {
            failed.push(format!(
                "classic_serial digest {:016x} differs from classic_parallel's {:016x}",
                serial.digest(),
                parallel.digest()
            ));
        }
    }
    if let (Some(serial), Some(churn)) = (find("classic_serial"), find("startup_churn")) {
        let sim_s = |r: &WorkloadResult| r.reps[0].sim_seconds / r.reps[0].planned.max(1) as f64;
        if sim_s(churn) * 3.0 >= sim_s(serial) {
            failed.push(format!(
                "startup_churn simulates {:.2} s/session, not under a third of classic_serial's {:.2}",
                sim_s(churn),
                sim_s(serial)
            ));
        }
    }
    failed
}

/// A whole result set as one JSON document.
pub fn set_json(seed: u64, results: &[WorkloadResult], cross: &[String]) -> Value {
    Value::obj()
        .with("schema", "rvbench-set-1")
        .with("seed", seed.to_string())
        .with(
            "threads_available",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with(
            "correct",
            cross.is_empty() && results.iter().all(|r| r.failed_checks().is_empty()),
        )
        .with(
            "workloads",
            results
                .iter()
                .map(WorkloadResult::set_json)
                .collect::<Vec<_>>(),
        )
}

/// Six significant digits, or plain integers: for the human-readable
/// table only (JSON carries every digit).
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// Checks a result-set document against `BENCHMARK.json`: every named
/// workload and metric present with its unit, none unnamed, names and
/// units well formed, counts within the contract's limits. Returns the
/// problems found. (That `BENCHMARK.json` is what the tables in
/// [`crate::schema`] say is `tests/smoke.rs`'s business: the committed
/// file must equal `rvbench contract`.)
pub fn check_against_contract(set: &Value, contract: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let listed = |key: &str| -> Vec<(String, String)> {
        contract
            .get(key)
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                ))
            })
            .collect()
    };
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    if e2e.is_empty() || e2e.len() > 16 {
        problems.push(format!("{} end-to-end metrics (1..=16 allowed)", e2e.len()));
    }
    if layers.is_empty() || layers.len() > 128 {
        problems.push(format!(
            "{} per-layer metrics (1..=128 allowed)",
            layers.len()
        ));
    }
    for (name, unit) in e2e.iter().chain(&layers) {
        if !schema::valid_name(name) {
            problems.push(format!(
                "metric name {name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*"
            ));
        }
        if !schema::valid_unit(unit) {
            problems.push(format!("metric {name} has malformed unit {unit:?}"));
        }
    }
    let contract_workloads: Vec<&str> = contract
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();

    let emitted = set.get("workloads").and_then(Value::as_arr).unwrap_or(&[]);
    for name in &contract_workloads {
        if !emitted
            .iter()
            .any(|w| w.get("name").and_then(Value::as_str) == Some(name))
        {
            problems.push(format!("workload {name} was not emitted"));
        }
    }
    for w in emitted {
        let wname = w.get("name").and_then(Value::as_str).unwrap_or("?");
        if !contract_workloads.contains(&wname) {
            problems.push(format!("emitted workload {wname} is not in BENCHMARK.json"));
        }
        for (key, named) in [("end_to_end", &e2e), ("per_layer", &layers)] {
            let got = w.get(key).and_then(Value::as_obj).unwrap_or(&[]);
            for (name, unit) in named {
                match got.iter().find(|(k, _)| k == name) {
                    None => problems.push(format!("{wname}: {key} metric {name} missing")),
                    Some((_, v)) => {
                        if v.get("unit").and_then(Value::as_str) != Some(unit.as_str()) {
                            problems.push(format!("{wname}: {name} unit is not {unit}"));
                        }
                        if v.get("value").and_then(Value::as_f64).is_none() {
                            problems.push(format!("{wname}: {name} has no numeric value"));
                        }
                    }
                }
            }
            for (k, _) in got {
                if !named.iter().any(|(n, _)| n == k) {
                    problems.push(format!(
                        "{wname}: emitted {key} metric {k} is not named in BENCHMARK.json"
                    ));
                }
            }
        }
    }
    problems
}

/// Checks one driver result line against `BENCHMARK.json`: exactly the
/// four keys, in order; exactly the end-to-end metrics (`--trace 0`) or the
/// per-layer ones (`--trace 1`), each with its unit and a number; no
/// end-to-end metric reading 0. Returns the problems found.
pub fn check_driver_line(line: &Value, contract: &Value, trace_on: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("result line has keys {keys:?}"));
    }
    if line.get("correct").and_then(Value::as_bool) != Some(true) {
        problems.push("result line is not correct".to_string());
    }
    if line.get("attempted").and_then(Value::as_u64).unwrap_or(0) < 1 {
        problems.push("attempted is not a whole number >= 1".to_string());
    }
    if line.get("failed").and_then(Value::as_u64).is_none() {
        problems.push("failed is not a whole number".to_string());
    }
    let named = contract
        .get(if trace_on { "per_layer" } else { "end_to_end" })
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    let got = line.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
    if got.len() != named.len() {
        problems.push(format!("{} metrics, expected {}", got.len(), named.len()));
    }
    for m in named {
        let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some((_, v)) = got.iter().find(|(k, _)| k == name) else {
            problems.push(format!("metric {name} missing"));
            continue;
        };
        if v.get("unit").and_then(Value::as_str) != m.get("unit").and_then(Value::as_str) {
            problems.push(format!("{name} has the wrong unit"));
        }
        match v.get("value").and_then(Value::as_f64) {
            None => problems.push(format!("{name} has no numeric value")),
            Some(value) if !trace_on && value <= 0.0 => {
                problems.push(format!("end-to-end metric {name} reads {value}"));
            }
            Some(_) => {}
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_format_to_six_significant_digits() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(1460.0), "1460");
        assert_eq!(fmt_num(160.2345678), "160.235");
        assert_eq!(fmt_num(0.0123456789), "0.0123457");
        assert_eq!(fmt_num(1234567.891), "1.2346e6");
    }
}
