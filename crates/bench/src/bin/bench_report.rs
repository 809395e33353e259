//! Runs the planner, arena, and recorded-iteration suites and writes
//! `BENCH_planner.json` + `BENCH_arena.json` + `BENCH_runtime.json` under
//! `target/bench/` — the machine-readable record CI's bounds read. The
//! committed files of the same names at the repository root are baselines
//! and are left alone.
//! `cargo run --release -p mimose-bench --bin bench_report`.
//!
//! Pass suite names (`planner`, `arena`, `runtime`) to regenerate a subset
//! — useful when one suite caught machine-load noise and the others are
//! fine: `cargo run --release -p mimose-bench --bin bench_report -- runtime`.

use mimose_bench::harness::Criterion;
use mimose_bench::suites::{arena_suite, planner_suite, runtime_suite};
use std::path::Path;

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let selected: Vec<String> = std::env::args().skip(1).collect();
    let wants = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    for (name, suite) in [
        ("planner", planner_suite as fn(&mut Criterion)),
        ("arena", arena_suite),
        ("runtime", runtime_suite),
    ] {
        if !wants(name) {
            continue;
        }
        let mut c = Criterion::default();
        suite(&mut c);
        c.report();
        let path = dir.join(format!("BENCH_{name}.json"));
        c.write_json(name, &path)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
