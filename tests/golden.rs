//! Bit-identity, the one executable spec: the campaign matrix behind
//! `GOLDEN.json` (faults off/on × replicas 1/2 on the default seed, and
//! seed 777 with faults on one server; dump + figures + failure report,
//! every record, and the counters, hashed apart) must recompute to the
//! committed digests on one worker and on four. In this debug build and
//! in CI's release step (`repro golden --check --jobs 1` and `--jobs 8`)
//! that makes `--jobs 1` equal `--jobs k`, debug equal release, and both
//! equal history. A failure names the first configuration that moved; a
//! change that means to move it re-records under a new epoch
//! (`repro golden --record --epoch N`) in the same commit.

use realvideo_core::golden;

const COMMITTED: &str = include_str!("../GOLDEN.json");

fn check(jobs: usize) {
    if let Err(why) = golden::check(COMMITTED, jobs) {
        panic!("at --jobs {jobs}: {why}");
    }
}

#[test]
fn campaign_matrix_matches_golden_json() {
    check(1);
}

#[test]
fn campaign_matrix_matches_golden_json_on_four_workers() {
    check(4);
}

/// The spec is not vacuous: a seed, a fault plan or a replica count
/// moves every digest, so no two rows can match by accident.
#[test]
fn golden_rows_differ_pairwise() {
    let (_, rows) = golden::parse(COMMITTED).unwrap();
    assert_eq!(rows.len(), golden::CONFIGS.len());
    for (i, (a, x)) in rows.iter().enumerate() {
        for (b, y) in &rows[i + 1..] {
            assert_ne!(x.artifacts, y.artifacts, "{a} and {b}: artifacts");
            assert_ne!(x.records, y.records, "{a} and {b}: records");
            assert_ne!(x.counters, y.counters, "{a} and {b}: counters");
        }
    }
}
