//! Where the gate binaries write their BENCH records: the workspace's
//! `target/bench/`, beside the build output. A gate run never rewrites
//! the committed `BENCH_*.json` at the repository root, so noisy wall
//! times from a check cannot overwrite the numbers a change reported.

use std::path::{Path, PathBuf};

/// Write `json` to `target/bench/BENCH_<suite>.json` under the workspace
/// root, creating the directory, and return the path written.
///
/// # Errors
///
/// When the directory cannot be created or the file cannot be written.
pub fn write_bench(suite: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{suite}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}
