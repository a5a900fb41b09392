//! Drives the built binary the way the benchmark driver and a person do.

use std::path::{Path, PathBuf};
use std::process::Command;

use rvbench::json::{self, Value};
use rvbench::report::check_driver_line;
use rvbench::schema::END_TO_END;

const EXE: &str = env!("CARGO_BIN_EXE_rvbench");
const CONTRACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("rvbench starts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// `<target dir>/rvbench`, where the binary under test writes traces.
fn trace_dir() -> PathBuf {
    Path::new(EXE)
        .parent()
        .and_then(Path::parent)
        .expect("exe sits in <target>/<profile>/")
        .join("rvbench")
}

#[test]
fn smoke_runs_every_workload_and_matches_benchmark_json() {
    let (ok, stdout) = run(&["smoke", CONTRACT]);
    assert!(ok, "smoke failed:\n{stdout}");
    assert!(stdout.contains("output checks: all passed"), "{stdout}");
    assert!(stdout.contains("smoke: emitted metrics match"), "{stdout}");

    // Each trace file holds balanced spans: a child names an earlier span
    // as its parent, lies inside it, and shares its session key.
    for workload in [
        "classic_serial",
        "classic_parallel",
        "faulted_gateway",
        "startup_churn",
    ] {
        let path = trace_dir().join(format!("trace-{workload}.jsonl"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let spans: Vec<Value> = text
            .lines()
            .map(|l| json::parse(l).expect("span parses"))
            .collect();
        assert!(spans.len() > 100, "{workload}: {} spans", spans.len());
        let field = |s: &Value, k: &str| {
            s.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{k} in {s:?}"))
        };
        let mut nested = 0;
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(field(span, "id"), i as u64);
            assert!(field(span, "end_ns") >= field(span, "start_ns"), "{span:?}");
            if let Some(parent) = span.get("parent").and_then(Value::as_u64) {
                assert!((parent as usize) < i, "{span:?}");
                let parent = &spans[parent as usize];
                assert!(
                    field(parent, "start_ns") <= field(span, "start_ns"),
                    "{span:?}"
                );
                assert!(
                    field(parent, "end_ns") >= field(span, "end_ns"),
                    "{span:?} in {parent:?}"
                );
                assert_eq!(field(parent, "campaign"), field(span, "campaign"));
                assert_eq!(field(parent, "user"), field(span, "user"));
                assert_eq!(field(parent, "clip_seq"), field(span, "clip_seq"));
                nested += 1;
            }
        }
        assert!(
            nested > spans.len() / 2,
            "{workload}: {nested} nested spans"
        );
        let names: std::collections::BTreeSet<&str> = spans
            .iter()
            .filter_map(|s| s.get("name")?.as_str())
            .collect();
        for want in [
            "study.session",
            "tracer.run",
            "tracer.instant",
            "net.poll",
            "server.poll",
        ] {
            assert!(names.contains(want), "{workload}: no {want} span");
        }
    }
}

fn result_line(stdout: &str) -> Value {
    json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

/// The driver's own command line at full size, on the workload with the
/// shortest rep. (`smoke` checks the result line of every workload, with
/// tracing off and on, at a tenth of the size.)
#[test]
fn driver_mode_ends_with_the_result_line() {
    let (ok, stdout) = run(&[
        "--workload",
        "classic_parallel",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(ok, "{stdout}");
    let contract = json::parse(&std::fs::read_to_string(CONTRACT).unwrap()).unwrap();
    let problems = check_driver_line(&result_line(&stdout), &contract, false);
    assert!(problems.is_empty(), "{problems:?}");
    for m in &END_TO_END {
        assert!(stdout.contains(m.name), "{} is not printed by name", m.name);
    }
}

#[test]
fn same_seed_same_sim_digest_and_bad_arguments_are_refused() {
    let digest = |seed: &str| {
        let (ok, stdout) = run(&[
            "child",
            "classic_serial",
            "--seed",
            seed,
            "--scale-mult",
            "0.04",
        ]);
        assert!(ok);
        let rec = result_line(&stdout);
        rec.get("digest")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    assert_eq!(digest("11"), digest("11"));
    assert_ne!(digest("11"), digest("12"));

    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "classic_serial", "--trace", "2"][..],
        &["--workload", "classic_serial", "--seed", "x"][..],
        &["--workload", "classic_serial", "--scale-mult", "0.1"][..],
        &["run", "--reps", "1"][..],
        &["smoke", "--seed", "1"][..],
        &["frobnicate"][..],
        &["compare", "only-one.json"][..],
    ] {
        let out = Command::new(EXE).args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(
            out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("\"correct\"")
        );
    }
}

#[test]
fn committed_benchmark_json_is_what_the_binary_prints() {
    let (ok, stdout) = run(&["contract"]);
    assert!(ok);
    let committed =
        std::fs::read_to_string(CONTRACT).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        json::parse(&committed).expect("BENCHMARK.json parses"),
        json::parse(&stdout).expect("contract output parses"),
        "regenerate with `rvbench contract > BENCHMARK.json`"
    );
    assert!(committed.len() < 64 * 1024);
}

/// This package is outside the repository's workspace, so it cannot inherit
/// its release profile; it repeats it. Build settings change speed without
/// changing code, and the benchmark must time the machine code `repro` runs.
#[test]
fn release_profile_is_the_repositorys() {
    let profile = |manifest: &str| -> Vec<String> {
        let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
        text.lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    };
    let own = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    assert!(!own.is_empty());
    assert_eq!(
        own,
        profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
    );
}
