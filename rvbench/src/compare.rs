//! `rvbench compare A.json B.json`: two result sets, one row per
//! (workload, end-to-end metric).
//!
//! A is the base (the parent commit, or the first of two sets of one
//! commit); B is held against it. A row is `regressed` when B's value is
//! worse than A's by more than the metric's bound, `unresolved` when
//! either set's own quartile range is wider than the bound (so the box
//! could not tell) unless every one of B's runs sits on one side of every
//! one of A's, and `ok` otherwise. Every ratio is printed with its base.

use crate::json::Value;
use crate::report::fmt_num;
use crate::schema::{Better, Kind, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// Relative slack on "exact" allocation metrics. About one rep in three
/// makes a single 4,688-byte allocation fewer, out of about a million —
/// something under `run_campaign` allocates or not from process to process
/// (not tracked down; the sim digest does not move). Sim values get no
/// slack.
const ALLOC_TOLERANCE: f64 = 1e-4;

/// One row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The spread is wider than the bound; the sets cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric.
pub fn judge(
    better: Better,
    bound: f64,
    a: &Summary,
    a_value: f64,
    b: &Summary,
    b_value: f64,
) -> Verdict {
    let worse_by = better.worse_by(a_value, b_value);
    let every_b_worse = match better {
        Better::Higher => b.max < a.min,
        Better::Lower => b.min > a.max,
    };
    let every_b_better = match better {
        Better::Higher => b.min > a.max,
        Better::Lower => b.max < a.min,
    };
    let resolved = a.spread().max(b.spread()) <= bound;
    if worse_by > bound && (resolved || every_b_worse) {
        Verdict::Regressed
    } else if resolved || every_b_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn workload<'a>(set: &'a Value, name: &str) -> Option<&'a Value> {
    set.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

/// Prints the comparison; returns the number of regressed rows and the
/// number of exact-valued rows that differ.
pub fn compare(a: &Value, b: &Value) -> (usize, usize) {
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let (mut regressed, mut differing) = (0, 0);
    println!(
        "{:<17} {:<24} {:>13} {:>13} {:>9} {:>9} {:>6}  {:<20} verdict",
        "workload", "metric", "A", "B", "iqr A", "iqr B", "bound", "B / A"
    );
    for name in &names {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            println!("{name:<17} missing from B");
            regressed += 1;
            continue;
        };
        for m in &END_TO_END {
            let entry = |w: &Value| {
                let e = w.get("end_to_end")?.get(m.name)?;
                Some((Summary::from_json(e)?, e.get("value")?.as_f64()?))
            };
            let (Some((sa, va)), Some((sb, vb))) = (entry(wa), entry(wb)) else {
                println!("{name:<17} {:<24} missing", m.name);
                regressed += 1;
                continue;
            };
            let verdict = judge(m.better, m.bound, &sa, va, &sb, vb);
            if verdict == Verdict::Regressed {
                regressed += 1;
            }
            let ratio = if va == 0.0 { f64::NAN } else { vb / va };
            println!(
                "{:<17} {:<24} {:>13} {:>13} {:>8.2}% {:>8.2}% {:>5.1}%  {:<20} {}",
                name,
                m.name,
                fmt_num(va),
                fmt_num(vb),
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                m.bound * 100.0,
                format!("{ratio:.4} x A ({} {})", fmt_num(va), m.unit),
                verdict.as_str()
            );
        }
    }

    println!();
    println!("values that must be identical between two sets of one commit:");
    for name in &names {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            continue;
        };
        // (name, A, B, relative tolerance)
        let mut rows: Vec<(String, String, String, f64)> = Vec::new();
        let digest = |w: &Value| {
            w.get("digest")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        rows.push(("sim digest".to_string(), digest(wa), digest(wb), 0.0));
        // Allocation counts repeat only on one thread.
        let parallel = crate::workload::Workload::by_name(name).is_some_and(|w| w.is_parallel());
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for m in table.iter().filter(|m| m.exact()) {
                if parallel && key == "end_to_end" && m.kind == Kind::HostExact {
                    continue;
                }
                let value = |w: &Value| Some(w.get(key)?.get(m.name)?.get("value")?.encode());
                if let (Some(va), Some(vb)) = (value(wa), value(wb)) {
                    let tolerance = if m.kind == Kind::HostExact {
                        ALLOC_TOLERANCE
                    } else {
                        0.0
                    };
                    rows.push((m.name.to_string(), va, vb, tolerance));
                }
            }
        }
        let same = |va: &str, vb: &str, tolerance: f64| {
            va == vb
                || match (va.parse::<f64>(), vb.parse::<f64>()) {
                    (Ok(a), Ok(b)) => (a - b).abs() <= tolerance * a.abs(),
                    _ => false,
                }
        };
        let differ: Vec<_> = rows
            .iter()
            .filter(|(_, va, vb, tolerance)| !same(va, vb, *tolerance))
            .collect();
        println!(
            "  {name}: {} of {} identical",
            rows.len() - differ.len(),
            rows.len()
        );
        for (metric, va, vb, _) in differ {
            println!("    DIFFERS {metric}: A {va}  B {vb}");
            differing += 1;
        }
    }
    (regressed, differing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = s(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // 3% slower, bound 7%: ok.
        let b = s(&[97.0, 98.0, 96.0, 97.5, 96.5]);
        assert_eq!(
            judge(Better::Higher, 0.07, &a, a.median, &b, b.median),
            Verdict::Ok
        );
        // 20% slower, tight spread: regressed.
        let b = s(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        assert_eq!(
            judge(Better::Higher, 0.07, &a, a.median, &b, b.median),
            Verdict::Regressed
        );
        // Same medians as `a` but a spread wider than the bound, overlapping: unresolved.
        let wide = s(&[80.0, 120.0, 100.0, 90.0, 110.0]);
        assert_eq!(
            judge(Better::Higher, 0.07, &a, a.median, &wide, wide.median),
            Verdict::Unresolved
        );
        // Wide spread, but every run of B beats every run of A: ok.
        let fast = s(&[130.0, 170.0, 150.0, 140.0, 160.0]);
        assert_eq!(
            judge(Better::Higher, 0.07, &a, a.median, &fast, fast.median),
            Verdict::Ok
        );
        // Wide spread, every run of B worse than every run of A, beyond the bound: regressed.
        let slow = s(&[50.0, 70.0, 60.0, 55.0, 65.0]);
        assert_eq!(
            judge(Better::Higher, 0.07, &a, a.median, &slow, slow.median),
            Verdict::Regressed
        );
        // Lower-is-better flips the direction.
        assert_eq!(
            judge(Better::Lower, 0.07, &a, a.median, &b, b.median),
            Verdict::Ok
        );
    }
}
