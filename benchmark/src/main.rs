//! The repository's end-to-end benchmark.
//!
//! `mimose-benchmark --workload <train|serve-steady|serve-overload>
//! --seed <n> --seconds <s> --trace <0|1>` runs one workload in this
//! process on one thread, checks its outputs, and prints one row per
//! metric followed by a JSON summary line. `run.py` beside this package
//! builds it and turns that line into the benchmark's result. See
//! `README.md` for the workloads and the metric → layer map.

mod probe;
mod serve;
mod stats;
mod train;

use stats::{Clock, Metric};
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let int = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?),
            "--trace" => trace = Some(int()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One virtual-clock end-to-end result: name, unit, value.
pub type VirtRow = (&'static str, &'static str, f64);

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: iterations on `train`, jobs on serve-*.
    pub attempted: u64,
    /// Of those, the ones that failed outright.
    pub failed: u64,
    /// Digest of every virtual-clock result (and the report JSON on
    /// serve-*); identical for every repetition of one seed.
    pub digest: u64,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Shares of modelled iteration time per `TimeBreakdown` channel.
pub fn push_virt_shares(out: &mut Vec<Metric>, t: &mimose::exec::TimeBreakdown) {
    let total = t.total_ns().max(1) as f64;
    for (name, ns) in [
        ("exec.virt_compute_pct", t.compute_ns),
        ("exec.virt_recompute_pct", t.recompute_ns),
        ("exec.virt_planning_pct", t.planning_ns),
    ] {
        out.push(Metric::one(
            name,
            "%",
            Clock::Virt,
            100.0 * ns as f64 / total,
        ));
    }
}

/// The fleet rows of a workload that runs no fleet.
pub fn push_no_fleet(out: &mut Vec<Metric>) {
    for name in [
        "cluster.admit",
        "cluster.demote",
        "cluster.reject",
        "cluster.shed",
        "cluster.fleet_events",
    ] {
        out.push(Metric::one(name, "count", Clock::Virt, 0.0));
    }
    out.push(Metric::one(
        "cluster.utilization_pct",
        "%",
        Clock::Virt,
        0.0,
    ));
    out.push(Metric::one("cluster.report_mib", "MiB", Clock::None, 0.0));
    for name in [
        "cluster.build_pct",
        "cluster.run_pct",
        "cluster.report_json_pct",
        "audit.lint_cluster_pct",
    ] {
        out.push(Metric::one(name, "%", Clock::Host, 0.0));
    }
}

/// `trace_overhead_pct`: how much slower the traced passes stepped than
/// the plain ones of the same run.
#[must_use]
pub fn overhead(plain: &[f64], traced: &[f64]) -> Metric {
    let (p, t) = (stats::quantile(plain, 0.5), stats::quantile(traced, 0.5));
    Metric::one("trace_overhead_pct", "%", Clock::Host, 100.0 * (p - t) / p)
}

/// The measured median of each plan-ladder rung beside the cost the
/// fleet's `DeterministicMimose` charges for it on the virtual clock.
#[must_use]
pub fn ladder_note(layer: &[Metric]) -> String {
    use mimose::cluster::{MIMOSE_CACHE_HIT_COST_NS, MIMOSE_PLAN_COST_NS, MIMOSE_REPAIR_COST_NS};
    let rungs = [
        ("hit", MIMOSE_CACHE_HIT_COST_NS),
        ("repair", MIMOSE_REPAIR_COST_NS),
        ("cold", MIMOSE_PLAN_COST_NS),
    ];
    let parts: Vec<String> = rungs
        .iter()
        .map(|(rung, modelled)| {
            let name = format!("core.plan_us.{rung}");
            let m = layer.iter().find(|m| m.name == name);
            match m.filter(|m| !m.samples.is_empty()) {
                Some(m) => format!(
                    "{rung} {:.2} us measured (n={}) vs {} us modelled",
                    m.median(),
                    m.samples.len(),
                    *modelled as f64 / 1e3
                ),
                None => format!("{rung} not exercised"),
            }
        })
        .collect();
    format!("plan ladder: {}", parts.join("; "))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mimose-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "train" => train::run(&args),
        "serve-steady" => serve::run(&args, &serve::STEADY),
        "serve-overload" => serve::run(&args, &serve::OVERLOAD),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("mimose-benchmark: {}: check failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    match stats::peak_rss_mib() {
        Ok(mib) => out
            .e2e
            .push(Metric::one("peak_rss_mib", "MiB", Clock::Host, mib)),
        Err(e) => {
            eprintln!("mimose-benchmark: {e}");
            return ExitCode::from(1);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# {} seed={} seconds={} trace={} nproc={nproc} attempted={} failed={} digest={:016x}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        out.attempted,
        out.failed,
        out.digest
    );
    println!("# end to end");
    for m in &out.e2e {
        println!("{}", m.row());
    }
    if args.trace {
        println!("# per layer");
        for m in &out.layer {
            println!("{}", m.row());
        }
    }
    for n in &out.notes {
        println!("# {n}");
    }
    let rows: Vec<String> = out.e2e.iter().chain(&out.layer).map(Metric::json).collect();
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"nproc\":{nproc},\"digest\":\"{:016x}\",\"metrics\":[{}]}}",
        out.attempted,
        out.failed,
        out.digest,
        rows.join(",")
    );
    ExitCode::SUCCESS
}
