//! RealData: explore campaign records — the analysis companion the paper's
//! Notes section describes.
//!
//! ```text
//! realdata summary [--scale S] [--seed N] [--jobs J]   # campaign-wide statistics
//! realdata by <dimension> [--scale S]                  # group summary table
//! realdata csv [--scale S]                             # per-session CSV export
//! realdata dimensions                                  # list group-by dimensions
//! ```
//!
//! `--jobs J` fans session simulation across J worker threads; every
//! table and CSV row is bit-identical for every J.

use realvideo_core::analysis::{csv_header, csv_row, render_summaries, summarize_by, GroupBy};
use realvideo_core::cli::campaign_flag;
use rv_study::{run_campaign_with_records, StudyParams};

/// What to print from the campaign's records.
enum Command {
    Summary,
    By(GroupBy),
    Csv,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = StudyParams {
        scale: 0.2,
        ..StudyParams::default()
    };
    let mut command: Option<Command> = None;
    let mut i = 0;
    while i < args.len() {
        match campaign_flag(&mut params, &args[i], args.get(i + 1).map(String::as_str)) {
            Ok(true) => {
                i += 2;
                continue;
            }
            Ok(false) => {}
            Err(e) => die(&e.to_string()),
        }
        match args[i].as_str() {
            "dimensions" => {
                for g in GroupBy::ALL {
                    println!("{}", g.name());
                }
                return;
            }
            "summary" if command.is_none() => command = Some(Command::Summary),
            "csv" if command.is_none() => command = Some(Command::Csv),
            "by" if command.is_none() => {
                i += 1;
                let name = args
                    .get(i)
                    .unwrap_or_else(|| die("`by` wants a dimension; see `realdata dimensions`"));
                let dim = GroupBy::parse(name)
                    .unwrap_or_else(|| die(&format!("unknown dimension {name:?}")));
                command = Some(Command::By(dim));
            }
            other => die(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let Some(command) = command else {
        die("usage: realdata <summary|by <dim>|csv|dimensions> [--scale S] [--seed N] [--jobs J]");
    };

    eprintln!(
        "running campaign: seed={} scale={} jobs={}...",
        params.seed, params.scale, params.jobs
    );
    // RealData is deliberately a record-level explorer, so it opts into
    // record retention; memory is O(sessions) here, unlike `repro`.
    let data = run_campaign_with_records(params).unwrap_or_else(|e| {
        eprintln!("realdata: campaign failed: {e}");
        std::process::exit(1);
    });
    eprintln!("{}\n", data.summary);

    match command {
        Command::Summary => {
            for dim in [GroupBy::Connection, GroupBy::Protocol, GroupBy::UserRegion] {
                println!("{}", render_summaries(dim, &summarize_by(&data, dim)));
                println!();
            }
        }
        Command::By(dim) => println!("{}", render_summaries(dim, &summarize_by(&data, dim))),
        Command::Csv => {
            println!("{}", csv_header());
            for r in data.records().unwrap_or_default() {
                println!("{}", csv_row(r));
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("realdata: {msg}");
    std::process::exit(2);
}
