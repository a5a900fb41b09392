//! `rvbench` — see `rvbench help` and `README.md`.

// One binary serves timings and allocation counts: at a few hundred
// allocations per session the counting allocator's cost is below the
// box's noise, and every measured run pays it alike.
#[global_allocator]
static ALLOC: rv_sim::alloc_stats::CountingAlloc = rv_sim::alloc_stats::CountingAlloc;

fn main() {
    let main_entry = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(rvbench::cli::main(&args, main_entry));
}
