//! Bit-identity against history: the campaign matrix behind
//! `GOLDEN.json` (faults off/on × replicas 1/2, dump + figures + failure
//! report hashed apart from counters) must recompute to the committed
//! digests. A failure names the first configuration that moved; a change
//! that means to move it re-records under a new epoch
//! (`repro golden --record --epoch N`) in the same commit.

use realvideo_core::golden;

#[test]
fn campaign_matrix_matches_golden_json() {
    let committed = include_str!("../GOLDEN.json");
    if let Err(why) = golden::check(committed, 2) {
        panic!("{why}");
    }
}
