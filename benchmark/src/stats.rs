//! Samples, order statistics and the result rows every metric prints.

/// Which clock a number comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The simulator's own cost: thread CPU time, or `Instant` for spans
    /// inside one step.
    Host,
    /// The modelled V100: deterministic for a fixed seed.
    Virt,
    /// A ratio or count with no clock behind it.
    None,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virt => "virt",
            Clock::None => "-",
        }
    }
}

/// One named metric with every sample a run took of it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub samples: Vec<f64>,
    /// Report the largest sample instead of the median.
    best: bool,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, clock: Clock, samples: Vec<f64>) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            clock,
            samples,
            best: false,
        }
    }

    /// A host throughput reported as its fastest repetition. Co-tenants
    /// on a shared host only ever slow a repetition down, and by up to
    /// 1.8× for minutes at a time; the fastest repetition is the one they
    /// disturbed least. The median is still printed beside it.
    pub fn best(name: &str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            best: true,
            ..Self::new(name, unit, Clock::Host, samples)
        }
    }

    pub fn one(name: &str, unit: &'static str, clock: Clock, value: f64) -> Self {
        Self::new(name, unit, clock, vec![value])
    }

    pub fn median(&self) -> f64 {
        quantile(&self.samples, 0.5)
    }

    /// The reported value: the median, or the largest sample for a
    /// best-of metric.
    pub fn value(&self) -> f64 {
        if self.best {
            quantile(&self.samples, 1.0)
        } else {
            self.median()
        }
    }

    /// The result row: name, value, unit, clock, sample count, median,
    /// p10, p90.
    pub fn row(&self) -> String {
        format!(
            "{:<34} {:>16} {:<9} {:<4} n={:<4} {}median={} p10={} p90={}",
            self.name,
            fmt(self.value()),
            self.unit,
            self.clock.label(),
            self.samples.len(),
            if self.best { "best of n, " } else { "" },
            fmt(self.median()),
            fmt(quantile(&self.samples, 0.1)),
            fmt(quantile(&self.samples, 0.9)),
        )
    }

    /// The same row as one JSON object, for the results file.
    pub fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"clock\":\"{}\",\"n\":{},\"value\":{},\"median\":{},\"p10\":{},\"p90\":{}}}",
            self.name,
            self.unit,
            self.clock.label(),
            self.samples.len(),
            num(self.value()),
            num(self.median()),
            num(quantile(&self.samples, 0.1)),
            num(quantile(&self.samples, 0.9)),
        )
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of integer samples (the convention the fleet
/// report uses for its tails), `p` in `(0, 100]`.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A JSON number with every digit the measurement has.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn fmt(x: f64) -> String {
    if !x.is_finite() {
        "n/a".to_string()
    } else if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// FNV-1a over a stream of words: the determinism digest of a run's
/// virtual-clock results.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn bytes(&mut self, s: &[u8]) {
        for &b in s {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Independent input stream `stream` of the workload seed (SplitMix64
/// finaliser), so the tasks, jobs and arrivals of one seed never share
/// a stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has run, ns. The benchmark is one thread doing no
/// I/O, so this is its wall time minus the time other processes or the
/// hypervisor held the core: that part of a shared machine's noise says
/// nothing about the simulator. Changes in the core's clock speed and
/// contention for its caches still show.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this runs on) and the clock id
    // is one the kernel always accepts; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
