//! Regenerates the paper's figures from a freshly simulated campaign.
//!
//! Usage:
//! ```text
//! repro all [--scale S] [--seed N] [--jobs J]   # every figure
//! repro fig11 fig16 [--scale S]                 # specific figures
//! repro failures --faults [--scale S]           # failure taxonomy
//! repro golden --check | --record [--epoch N]   # bit-identity vs GOLDEN.json
//! repro list                                    # figure index
//! ```
//!
//! `--jobs J` fans session simulation across J worker threads. The
//! figures are bit-identical for every J; only the wall time changes.
//!
//! `--scale S` scales the study population: fractions (0, 1] subsample
//! the 63-participant roster; integers above 1 replicate it with
//! identical strata proportions (`--scale 100` ≈ 290k sessions). The
//! campaign streams into constant-memory aggregates, so large scales
//! run with flat memory.
//!
//! `--faults` turns on the default fault-injection scenario (link
//! outages, loss bursts, server crashes, UDP black holes). Without it
//! campaigns are fault-free and bit-identical to builds that predate the
//! fault subsystem. The `failures` subcommand prints the campaign's
//! failure-taxonomy report (counts and rates per outcome, server,
//! country, and transport).
//!
//! `--dump-records PATH` opts back into record retention and writes every
//! session as a CSV row to PATH (`-` for stdout). The `dump` subcommand
//! likewise retains records and prints the played-session table. Both are
//! O(sessions) in memory — everything else streams.
//!
//! `--bench-out PATH` additionally writes the run's throughput accounting
//! (wall time, sessions/sec, simulated-seconds/sec, worker split, peak
//! memory, phase walls, per-worker profile, the campaign counter totals
//! and, as `"work"`, the session driver's exact work counts) as a JSON
//! object, so CI and benchmarking scripts can track
//! campaign performance without scraping the human-readable summary line.
//!
//! `--profile` prints the phase walls (plan/execute/figures) and the
//! per-worker busy/idle split to stderr after the run.
//!
//! `repro golden --check` recomputes the digests of a small fixed campaign
//! matrix (faults off/on × replicas 1/2; dump, figures and failure report
//! hashed apart from the counter totals) and compares them with
//! `GOLDEN.json` in the current directory, naming the first configuration
//! that differs; `--record` rewrites the file, under `--epoch N` when the
//! difference is meant (see `realvideo_core::golden`).
//!
//! `repro trace --user U --clip C [--faults] [--trace-out PREFIX]` replays
//! one planned session with the flight recorder armed and writes the
//! timeline as `PREFIX.jsonl` (one event per line) and `PREFIX.chrome.json`
//! (Chrome `trace_event` format, loadable in Perfetto). Unknown user/clip
//! keys exit non-zero listing nearby valid keys instead of writing an
//! empty trace.

use realvideo_core::analysis::{csv_header, csv_row, dump_table};
use realvideo_core::{figure, gateway_figures, golden, FigureOutput, FIGURE_IDS};
use rv_study::{run_campaign, run_campaign_with_records, GatewayPolicy, StudyParams};

// With `--features alloc-stats` every allocation in the process is
// counted, and `--bench-out` reports bytes/allocations per session.
#[cfg(feature = "alloc-stats")]
#[global_allocator]
static ALLOC: rv_sim::alloc_stats::CountingAlloc = rv_sim::alloc_stats::CountingAlloc;

/// Formats a per-session allocation figure, or `null` when the counting
/// allocator is not compiled in.
fn alloc_json(total: Option<u64>, sessions: usize) -> String {
    match total {
        Some(t) if sessions > 0 => format!("{:.1}", t as f64 / sessions as f64),
        Some(t) => t.to_string(),
        None => "null".to_string(),
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`), or
/// `None` where /proc is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut params = StudyParams::default();
    let mut bench_out: Option<String> = None;
    let mut dump_records: Option<String> = None;
    let mut trace_mode = false;
    let mut gateway_mode = false;
    let mut gateway_flag = false;
    let mut trace_user: Option<u32> = None;
    let mut trace_clip: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut profile = false;
    let mut golden_mode = false;
    let mut golden_record = false;
    let mut golden_epoch: Option<u32> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                params.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| die("--scale wants a positive number"));
            }
            "--seed" => {
                i += 1;
                params.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed wants an integer"));
            }
            "--jobs" => {
                i += 1;
                params.jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|j| *j >= 1)
                    .unwrap_or_else(|| die("--jobs wants a positive integer"));
            }
            "--bench-out" => {
                i += 1;
                bench_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--bench-out wants a file path")),
                );
            }
            "--dump-records" => {
                i += 1;
                dump_records = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--dump-records wants a file path (or -)")),
                );
            }
            "--faults" => params.faults = rv_sim::FaultScenario::default_on(),
            "--replicas" => {
                i += 1;
                params.replicas = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|r| *r >= 1)
                    .unwrap_or_else(|| die("--replicas wants a positive integer"));
            }
            "--gateway" => {
                i += 1;
                params.gateway = args
                    .get(i)
                    .and_then(|s| GatewayPolicy::parse(s))
                    .unwrap_or_else(|| die("--gateway wants sticky, nearest, or least-loaded"));
                gateway_flag = true;
            }
            "--capacity" => {
                i += 1;
                params.capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--capacity wants an integer"));
            }
            "--profile" => profile = true,
            "trace" => trace_mode = true,
            "gateway" => gateway_mode = true,
            "golden" => golden_mode = true,
            "--check" => golden_record = false,
            "--record" => golden_record = true,
            "--epoch" => {
                i += 1;
                golden_epoch = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--epoch wants an integer")),
                );
            }
            "--user" => {
                i += 1;
                trace_user = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--user wants a participant id")),
                );
            }
            "--clip" => {
                i += 1;
                trace_clip = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--clip wants a clip name")),
                );
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--trace-out wants a path prefix")),
                );
            }
            "list" => {
                println!("available figures:");
                for id in FIGURE_IDS {
                    println!("  {id}");
                }
                return;
            }
            "all" => ids.extend(FIGURE_IDS.iter().map(|s| s.to_string())),
            "dump" => ids.push("dump".to_string()),
            "failures" => ids.push("failures".to_string()),
            other if FIGURE_IDS.contains(&other) => ids.push(other.to_string()),
            other => die(&format!("unknown argument {other:?}; try `repro list`")),
        }
        i += 1;
    }
    if trace_mode {
        run_trace(params, trace_user, trace_clip, trace_out);
        return;
    }
    if gateway_mode {
        run_gateway_sweep(params, gateway_flag);
        return;
    }
    if golden_mode {
        run_golden(params.jobs, golden_record, golden_epoch);
        return;
    }
    if ids.is_empty() && bench_out.is_none() && dump_records.is_none() {
        die("nothing to do; try `repro all` or `repro list`");
    }
    // Only the record dumps need O(sessions) memory; everything else
    // streams into constant-size aggregates.
    let need_records = dump_records.is_some() || ids.iter().any(|id| id == "dump");

    eprintln!(
        "running campaign: seed={} scale={} ({} the paper's ~2,900 sessions)...",
        params.seed,
        params.scale,
        if params.scale > 1.0 {
            "a multiple of"
        } else if params.scale >= 1.0 {
            "all of"
        } else {
            "a fraction of"
        }
    );
    #[cfg(feature = "alloc-stats")]
    rv_sim::alloc_stats::reset();
    let data = if need_records {
        run_campaign_with_records(params)
    } else {
        run_campaign(params)
    }
    .unwrap_or_else(|e| die(&format!("campaign failed: {e}")));
    #[cfg(feature = "alloc-stats")]
    let alloc_snapshot = rv_sim::alloc_stats::snapshot();
    #[cfg(not(feature = "alloc-stats"))]
    let alloc_snapshot: Option<(u64, u64)> = None;
    #[cfg(feature = "alloc-stats")]
    let alloc_snapshot = Some(alloc_snapshot);
    #[cfg(feature = "alloc-stats")]
    let alloc_peak: Option<u64> = Some(rv_sim::alloc_stats::peak_bytes());
    #[cfg(not(feature = "alloc-stats"))]
    let alloc_peak: Option<u64> = None;
    eprintln!("{}", data.summary);
    eprintln!("counters: {}", counters_line(&data.summary.counters));
    eprintln!("campaign done: {} rated\n", data.aggregates.rated);

    // `need_records` retained them for a dump.
    if let (Some(path), Some(records)) = (dump_records, data.records()) {
        let mut out = String::with_capacity(64 * (records.len() + 1));
        out.push_str(csv_header());
        out.push('\n');
        for r in records {
            out.push_str(&csv_row(r));
            out.push('\n');
        }
        if path == "-" {
            print!("{out}");
        } else {
            if let Err(e) = std::fs::write(&path, out) {
                die(&format!("cannot write --dump-records {path:?}: {e}"));
            }
            eprintln!("wrote {} session records to {path}", records.len());
        }
    }

    let figures_start = std::time::Instant::now();
    for id in ids {
        if id == "failures" {
            println!("{}", data.failure_report());
            continue;
        }
        if id == "dump" {
            print!("{}", dump_table(&data));
            continue;
        }
        let Some(FigureOutput { id, title, body }) = figure(&id, &data) else {
            die(&format!("unknown figure {id:?}; try `repro list`"));
        };
        println!("==================================================================");
        println!("{id}: {title}");
        println!("==================================================================");
        println!("{body}");
    }
    let figures_wall = figures_start.elapsed();

    if profile {
        let s = &data.summary;
        eprintln!(
            "phase profile: plan {:.3}s | execute {:.3}s | figures {:.3}s",
            s.plan_wall.as_secs_f64(),
            s.wall.as_secs_f64(),
            figures_wall.as_secs_f64(),
        );
        for (w, p) in s.profiles.iter().enumerate() {
            eprintln!(
                "  worker {w}: {} sessions over {} claims, busy {:.3}s, idle {:.3}s",
                p.sessions,
                p.claims,
                p.busy.as_secs_f64(),
                p.idle().as_secs_f64(),
            );
        }
    }

    if let Some(path) = bench_out {
        let s = &data.summary;
        let per_worker: Vec<String> = s.per_worker.iter().map(|n| n.to_string()).collect();
        let counters: Vec<String> = s
            .counters
            .iter()
            .map(|(c, v)| format!("\"{}\": {v}", c.name()))
            .collect();
        // Driver work: exact and identical across `--jobs`, but what the
        // driver did, not what the simulation did — outside `counters`.
        let work: Vec<String> = (s.driver_work().fields().iter())
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        let workers: Vec<String> = s
            .profiles
            .iter()
            .map(|p| {
                format!(
                    "{{\"sessions\": {}, \"claims\": {}, \"busy_secs\": {:.6}, \"idle_secs\": {:.6}}}",
                    p.sessions,
                    p.claims,
                    p.busy.as_secs_f64(),
                    p.idle().as_secs_f64(),
                )
            })
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"seed\": {},\n",
                "  \"scale\": {},\n",
                "  \"jobs\": {},\n",
                "  \"jobs_planned\": {},\n",
                "  \"played\": {},\n",
                "  \"unavailable\": {},\n",
                "  \"wall_secs\": {:.6},\n",
                "  \"sessions_per_sec\": {:.3},\n",
                "  \"sim_seconds\": {:.3},\n",
                "  \"sim_seconds_per_sec\": {:.3},\n",
                "  \"allocs_per_session\": {},\n",
                "  \"bytes_allocated_per_session\": {},\n",
                "  \"peak_alloc_bytes\": {},\n",
                "  \"peak_rss_mb\": {},\n",
                "  \"per_worker\": [{}],\n",
                "  \"phases\": {{\"plan_secs\": {:.6}, \"execute_secs\": {:.6}, \"figures_secs\": {:.6}}},\n",
                "  \"workers\": [{}],\n",
                "  \"counters\": {{{}}},\n",
                "  \"work\": {{{}}}\n",
                "}}\n"
            ),
            params.seed,
            params.scale,
            s.workers,
            s.jobs_planned,
            s.played,
            s.unavailable,
            s.wall.as_secs_f64(),
            s.sessions_per_sec(),
            s.sim_seconds,
            s.sim_seconds_per_sec(),
            alloc_json(alloc_snapshot.map(|(allocs, _)| allocs), s.jobs_planned),
            alloc_json(alloc_snapshot.map(|(_, bytes)| bytes), s.jobs_planned),
            alloc_peak.map_or("null".to_string(), |p| p.to_string()),
            peak_rss_mb().map_or("null".to_string(), |mb| format!("{mb:.1}")),
            per_worker.join(", "),
            s.plan_wall.as_secs_f64(),
            s.wall.as_secs_f64(),
            figures_wall.as_secs_f64(),
            workers.join(", "),
            counters.join(", "),
            work.join(", "),
        );
        if let Err(e) = std::fs::write(&path, json) {
            die(&format!("cannot write --bench-out {path:?}: {e}"));
        }
        eprintln!("wrote campaign bench record to {path}");
    }
}

/// `name=value` pairs for every campaign counter, in registry order.
fn counters_line(counters: &rv_sim::CounterSet) -> String {
    use std::fmt::Write as _;
    let mut line = String::new();
    for (c, v) in counters.iter() {
        if !line.is_empty() {
            line.push(' ');
        }
        let _ = write!(line, "{}={v}", c.name());
    }
    line
}

/// The `repro gateway` subcommand: a faulted replica sweep. Runs the
/// campaign at replicas {1, 2, 4} with faults on and prints the three
/// gateway figures (quality vs replica count, replica load skew,
/// failover recovery). `--gateway` picks the policy for the multi-replica
/// runs; without it the sweep uses `nearest`, the geo-aware default.
fn run_gateway_sweep(mut params: StudyParams, policy_chosen: bool) {
    params.faults = rv_sim::FaultScenario::default_on();
    if !policy_chosen {
        params.gateway = GatewayPolicy::NearestHealthy;
    }
    let mut sweep = Vec::new();
    for replicas in [1u8, 2, 4] {
        let mut p = params;
        p.replicas = replicas;
        eprintln!(
            "gateway sweep: replicas={replicas} policy={} capacity={} scale={} (faulted)...",
            p.gateway.name(),
            p.capacity,
            p.scale,
        );
        let data = run_campaign(p).unwrap_or_else(|e| die(&format!("campaign failed: {e}")));
        eprintln!("{}", data.summary);
        sweep.push((replicas, data));
    }
    for FigureOutput { id, title, body } in gateway_figures(&sweep) {
        println!("==================================================================");
        println!("{id}: {title}");
        println!("==================================================================");
        println!("{body}");
    }
}

/// The `repro golden` subcommand: check the campaign matrix's digests
/// against `GOLDEN.json` in the current directory, or re-record it.
fn run_golden(jobs: usize, record: bool, epoch: Option<u32>) {
    const PATH: &str = "GOLDEN.json";
    let recorded = std::fs::read_to_string(PATH);
    if !record {
        let text = recorded.unwrap_or_else(|e| die(&format!("cannot read {PATH}: {e}")));
        match golden::check(&text, jobs) {
            Ok(()) => println!("golden: {} configs identical", golden::CONFIGS.len()),
            Err(why) => {
                eprintln!("repro: golden: {why}");
                std::process::exit(1);
            }
        }
        return;
    }
    // Re-recording keeps the file's epoch unless told a new one.
    let kept = recorded.ok().and_then(|text| golden::parse(&text).ok());
    let epoch = epoch.or(kept.map(|(epoch, _)| epoch)).unwrap_or(1);
    let rows = golden::compute(jobs).unwrap_or_else(|e| die(&format!("campaign failed: {e}")));
    if let Err(e) = std::fs::write(PATH, golden::render(epoch, &rows)) {
        die(&format!("cannot write {PATH}: {e}"));
    }
    eprintln!("recorded {} configs at epoch {epoch} in {PATH}", rows.len());
}

/// The `repro trace` subcommand: replay one planned session with the
/// flight recorder armed and write the timeline next to the caller.
fn run_trace(params: StudyParams, user: Option<u32>, clip: Option<String>, out: Option<String>) {
    let user = user.unwrap_or_else(|| die("trace wants --user <participant id>"));
    let clip = clip.unwrap_or_else(|| die("trace wants --clip <clip name>"));
    let trace = rv_study::trace_session(params, user, &clip)
        .unwrap_or_else(|e| die(&format!("trace: {e}")));
    let prefix = out.unwrap_or_else(|| format!("trace_u{user}"));
    let jsonl_path = format!("{prefix}.jsonl");
    let chrome_path = format!("{prefix}.chrome.json");
    if let Err(e) = std::fs::write(&jsonl_path, trace.to_jsonl()) {
        die(&format!("cannot write {jsonl_path:?}: {e}"));
    }
    if let Err(e) = std::fs::write(&chrome_path, trace.to_chrome_trace()) {
        die(&format!("cannot write {chrome_path:?}: {e}"));
    }
    eprintln!(
        "traced user {user} clip {clip}: {} events, outcome {}, faults {}",
        trace.records.len(),
        trace.metrics.outcome.label(),
        if trace.faulted { "on" } else { "off" },
    );
    eprintln!("counters: {}", counters_line(&trace.counters));
    let driver: Vec<String> = (trace.driver.fields().iter())
        .map(|(name, v)| format!("{name}={v}"))
        .collect();
    eprintln!("driver: {}", driver.join(" "));
    eprintln!("wrote {jsonl_path} and {chrome_path}");
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
