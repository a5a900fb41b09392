//! The command line: the driver's
//! `--workload W --seed N --seconds S --trace 0|1`, and `run`, `smoke`,
//! `compare`, `contract`, and the two a parent spawns, `child` and `setup`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::{self, Value};
use crate::rep::{run_rep, setup_probe, RepRecord};
use crate::report::{self, WorkloadResult};
use crate::workload::{Workload, WORKLOADS};
use crate::{compare, kernels, trace};

/// The seed of every historical number in EXPERIMENTS.md.
pub const DEFAULT_SEED: u64 = 536_937_988;
/// Reps per workload of a full `run`.
const RUN_REPS: usize = 5;
/// Set-up-only processes a driver run starts before its reps: with the
/// probe each rep makes, `setup_s` is then the median of six to nine cold
/// processes, not of the run's two to five.
const SETUP_PROBES: usize = 4;
/// Campaign and kernel scale of `smoke`.
const SMOKE_SCALE: f64 = 0.1;

const USAGE: &str = "\
rvbench — the repository's benchmark

  rvbench --workload W --seed N --seconds S --trace 0|1
        One workload, for the benchmark driver. With --trace 0: untraced
        reps for about S seconds, the end-to-end metrics. With --trace 1:
        one untraced rep, the traced pass and the kernels, the per-layer
        metrics. The last line of stdout is the result as one JSON object.
  rvbench run [--seed N] [--out FILE]
        All four workloads, 5 reps each round-robin, then one traced pass
        per workload. Prints every metric; exits non-zero when an output
        check fails.
  rvbench smoke [BENCHMARK.json]
        `run` at a tenth of the size and one rep, then checks the emitted
        metrics, and the result line the driver would read from each
        workload, against BENCHMARK.json.
  rvbench compare A.json B.json
        Two result sets written by `run --out`, row by row.
  rvbench child W --seed N
        One untraced rep (what `run` spawns).
  rvbench setup W --seed N
        One set-up probe and nothing else (what the driver's entry spawns).
  rvbench contract
        Prints BENCHMARK.json as the tables compiled into this binary have
        it (the committed file is this output).

Workloads: classic_serial classic_parallel faulted_gateway startup_churn
";

/// Parsed `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<(Vec<String>, Flags), String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok((positional, Flags(flags)))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !names.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String], main_entry: Instant) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            Ok(0)
        }
        Some("child") => child(&args[1..], main_entry, true),
        Some("setup") => child(&args[1..], main_entry, false),
        Some("run") => run(&args[1..]),
        Some("smoke") => smoke(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        Some("contract") => {
            print!("{}", contract().encode_pretty());
            Ok(0)
        }
        Some(flag) if flag.starts_with("--") => drive(args),
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rvbench: {message}");
            2
        }
    }
}

/// `child` (a whole rep) and `setup` (its set-up probe alone): the two
/// commands a parent spawns. `--scale-mult` is how `smoke` shrinks them;
/// nothing measured passes it.
fn child(args: &[String], main_entry: Instant, whole_rep: bool) -> Result<i32, String> {
    let (positional, flags) = Flags::parse(args)?;
    flags.known(&["seed", "scale-mult"])?;
    let [name] = positional.as_slice() else {
        return Err("child and setup take exactly one workload name".to_string());
    };
    let workload = workload_named(name)?;
    let seed = flags.get("seed")?.unwrap_or(DEFAULT_SEED);
    let scale_mult = flags.get("scale-mult")?.unwrap_or(1.0);
    let line = if whole_rep {
        run_rep(workload, seed, scale_mult, main_entry).to_json()
    } else {
        Value::Num(setup_probe(workload, seed, scale_mult, main_entry))
    };
    println!("{}", line.encode());
    Ok(0)
}

/// Spawns `rvbench <command> <workload>` and parses the last line it
/// prints. One generator process at a time: the parent only waits.
fn spawn(command: &str, workload: &Workload, seed: u64, scale_mult: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args([command, workload.name, "--seed", &seed.to_string()])
        .args(["--scale-mult", &scale_mult.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {command} process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} {command} process exited with {}",
            workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} {command} process printed no result: {e}", workload.name))
}

/// Spawns one child rep and reads its record back.
fn spawn_rep(workload: &Workload, seed: u64, scale_mult: f64) -> Result<RepRecord, String> {
    RepRecord::from_json(&spawn("child", workload, seed, scale_mult)?)
        .ok_or_else(|| format!("{} child rep printed no record", workload.name))
}

/// Spawns one set-up-only process and reads its probe back, seconds.
fn spawn_setup(workload: &Workload, seed: u64) -> Result<f64, String> {
    spawn("setup", workload, seed, 1.0)?
        .as_f64()
        .ok_or_else(|| format!("{} set-up process printed no time", workload.name))
}

/// Where trace files go: `<target dir>/rvbench/`, found from this
/// executable (`<target dir>/<profile>/rvbench`), so it is inside the
/// build directory whatever `CARGO_TARGET_DIR` says.
fn trace_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join("rvbench"))
}

fn traced(
    workload: &'static Workload,
    seed: u64,
    scale_mult: f64,
    kernel_results: &[(&'static str, f64)],
    reps: &[RepRecord],
) -> report::LayerResult {
    let pass = trace::traced_pass(workload, seed, scale_mult, trace_dir().as_deref());
    report::layer_result(pass, kernel_results, reps)
}

/// The driver's entry: one workload, one result line.
fn drive(args: &[String]) -> Result<i32, String> {
    let (positional, flags) = Flags::parse(args)?;
    flags.known(&["workload", "seed", "seconds", "trace"])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    let name: String = flags.get("workload")?.ok_or("--workload is required")?;
    let workload = workload_named(&name)?;
    let seed = flags.get("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = flags.get("seconds")?.unwrap_or(RUN_SECONDS as f64);
    let trace_on = match flags.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };

    let mut result = WorkloadResult {
        workload,
        reps: Vec::new(),
        setup_probes_s: Vec::new(),
        layers: None,
    };
    if trace_on {
        // The traced pass is a fixed amount of work — one pass over the
        // plan — so `--seconds` does not size it; the one untraced rep
        // gives the overhead base and the executor's own profile.
        result.reps.push(spawn_rep(workload, seed, 1.0)?);
        let kernel_results = kernels::run_all(1.0);
        result.layers = Some(traced(workload, seed, 1.0, &kernel_results, &result.reps));
    } else {
        for _ in 0..SETUP_PROBES {
            result.setup_probes_s.push(spawn_setup(workload, seed)?);
        }
        // Whole reps until the time is used: another rep starts only while
        // it is expected to end nearer to `--seconds` than stopping now.
        let started = Instant::now();
        loop {
            result.reps.push(spawn_rep(workload, seed, 1.0)?);
            let elapsed = started.elapsed().as_secs_f64();
            let per_rep = elapsed / result.reps.len() as f64;
            if elapsed + per_rep / 2.0 >= seconds {
                break;
            }
        }
    }
    result.print();
    println!();
    println!("{}", result.driver_json(trace_on).encode());
    Ok(0)
}

/// Runs every workload `reps` times round-robin, then the traced passes.
/// `scale_mult` is 1 except under `smoke`.
fn run_set(
    seed: u64,
    reps: usize,
    scale_mult: f64,
) -> Result<(Vec<WorkloadResult>, Vec<String>), String> {
    let mut results: Vec<WorkloadResult> = WORKLOADS
        .iter()
        .map(|workload| WorkloadResult {
            workload,
            reps: Vec::new(),
            setup_probes_s: Vec::new(),
            layers: None,
        })
        .collect();
    // Rep 1 of all four, then rep 2, ...: slow drift of the host then
    // falls on every workload alike.
    for rep in 0..reps {
        for result in &mut results {
            eprintln!("rvbench: {} rep {}/{reps}", result.workload.name, rep + 1);
            result
                .reps
                .push(spawn_rep(result.workload, seed, scale_mult)?);
        }
    }
    eprintln!("rvbench: kernels");
    let kernel_results = kernels::run_all(scale_mult.min(1.0));
    for result in &mut results {
        eprintln!("rvbench: {} traced pass", result.workload.name);
        result.layers = Some(traced(
            result.workload,
            seed,
            scale_mult,
            &kernel_results,
            &result.reps,
        ));
    }
    let cross = report::cross_checks(&results);
    Ok((results, cross))
}

fn print_set(results: &[WorkloadResult], cross: &[String]) -> bool {
    println!("rvbench: host numbers are what the simulator costs on this machine; sim numbers are what the modelled network did.");
    println!("rvbench: no accuracy figure is printed — the model's validation against the paper lives in tests/campaign.rs; this reports the sim digest only.");
    for result in results {
        result.print();
    }
    println!();
    for check in cross {
        println!("CHECK FAILED: {check}");
    }
    let correct = cross.is_empty() && results.iter().all(|r| r.failed_checks().is_empty());
    println!(
        "output checks: {}",
        if correct { "all passed" } else { "FAILED" }
    );
    correct
}

fn run(args: &[String]) -> Result<i32, String> {
    let (positional, flags) = Flags::parse(args)?;
    flags.known(&["seed", "out"])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    let seed = flags.get("seed")?.unwrap_or(DEFAULT_SEED);
    let out: Option<PathBuf> = flags.get("out")?;

    let (results, cross) = run_set(seed, RUN_REPS, 1.0)?;
    let correct = print_set(&results, &cross);
    if let Some(path) = out {
        let doc = report::set_json(seed, &results, &cross).encode();
        std::fs::write(&path, doc + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("result set written to {}", path.display());
    }
    Ok(if correct { 0 } else { 1 })
}

/// Seconds one driver run measures for. Reps are whole campaigns of 4 to
/// 12 s on the baseline box, so this is two to five of them; with set-up,
/// process start and the last rep's overshoot a run ends within ~30 s,
/// which keeps the driver's 92 runs and two builds inside its hour.
const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, from the tables in [`crate::schema`] and
/// [`crate::workload`].
pub fn contract() -> Value {
    let command: Vec<Value> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "rvbench/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Value::from)
    .collect();
    Value::obj()
        .with("command", command)
        .with("paths", vec![Value::from("rvbench")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| Value::obj().with("name", w.name).with("why", w.why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            crate::schema::END_TO_END
                .iter()
                .map(|m| {
                    Value::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.as_str())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            crate::schema::PER_LAYER
                .iter()
                .map(|m| {
                    Value::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.as_str())
                })
                .collect::<Vec<_>>(),
        )
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn smoke(args: &[String]) -> Result<i32, String> {
    let contract_path = match args {
        [] => PathBuf::from("BENCHMARK.json"),
        [path] if !path.starts_with("--") => PathBuf::from(path),
        _ => return Err("smoke takes at most one path and no options".to_string()),
    };
    let contract = read_json(&contract_path)?;

    let (results, cross) = run_set(DEFAULT_SEED, 1, SMOKE_SCALE)?;
    let correct = print_set(&results, &cross);
    // Through text and back, so the checks see what a reader of the
    // emitted text would.
    let emitted = json::parse(&report::set_json(DEFAULT_SEED, &results, &cross).encode())?;
    let mut problems = report::check_against_contract(&emitted, &contract);
    // The driver's result line, both ways, as each workload would print it.
    for result in &results {
        for trace_on in [false, true] {
            let line = json::parse(&result.driver_json(trace_on).encode())?;
            for p in report::check_driver_line(&line, &contract, trace_on) {
                problems.push(format!(
                    "{} --trace {}: {p}",
                    result.workload.name,
                    u8::from(trace_on)
                ));
            }
        }
    }
    for p in &problems {
        println!("CONTRACT: {p}");
    }
    println!(
        "smoke: emitted metrics {} {}",
        if problems.is_empty() {
            "match"
        } else {
            "DO NOT match"
        },
        contract_path.display()
    );
    Ok(if correct && problems.is_empty() { 0 } else { 1 })
}

fn compare_sets(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare takes two result-set files".to_string());
    };
    let (a, b) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    let (regressed, differing) = compare::compare(&a, &b);
    println!();
    println!("{regressed} row(s) regressed, {differing} exact value(s) differ");
    Ok(if regressed == 0 { 0 } else { 1 })
}
