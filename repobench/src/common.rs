//! Pieces every workload shares: the seeded generator, order statistics,
//! the reply checker, memory and provenance probes, and the result record.

use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use kfuse_ir::{Image, ImageId};
use kfuse_net::ServerConfig;
use kfuse_obs::Tracer;
use kfuse_runtime::RuntimeConfig;

/// SplitMix64: every input and arrival time derives from `--seed` through it.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential gap (seconds) of a Poisson process at `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Median, over `k` consecutive windows of `values` (in time order), of
/// each window's `q` quantile: a stall of the host spoils only the windows
/// it falls in.
pub fn windowed_quantile(values: &[f64], k: usize, q: f64) -> f64 {
    let size = values.len().div_ceil(k.max(1)).max(1);
    let per_window: Vec<f64> = values
        .chunks(size)
        .map(|w| {
            let mut v = w.to_vec();
            v.sort_by(f64::total_cmp);
            quantile(&v, q)
        })
        .collect();
    median(&per_window)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// 64-bit FNV-1a over the bit patterns of an image's samples and its shape:
/// equal digests stand for bit-identical images.
pub fn digest(img: &Image) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(img.width() as u32);
    eat(img.height() as u32);
    eat(img.channels() as u32);
    for v in img.data() {
        eat(v.to_bits());
    }
    h
}

/// Counts checked replies and mismatches. With `corrupt` set, every
/// reply has one sample flipped before it is compared, which is how the
/// benchmark's tests prove that a wrong reply is counted as a failure.
#[derive(Debug, Default)]
pub struct Checker {
    corrupt: bool,
    mismatches: AtomicU64,
}

impl Checker {
    pub fn new(corrupt: bool) -> Self {
        Checker {
            corrupt,
            ..Checker::default()
        }
    }

    /// Compares `got` with the oracle's `expected` images, by id.
    pub fn images(&self, got: &mut [(ImageId, Image)], expected: &[(ImageId, Image)]) -> bool {
        self.tamper(got);
        let ok = got.len() == expected.len()
            && expected.iter().all(|(id, want)| {
                got.iter()
                    .any(|(gid, img)| gid == id && img.bit_equal(want))
            });
        self.count(ok)
    }

    /// Compares `got` with the oracle's digests, in output order.
    pub fn digests(&self, got: &mut [(ImageId, Image)], expected: &[(ImageId, u64)]) -> bool {
        self.tamper(got);
        let ok = got.len() == expected.len()
            && expected.iter().all(|(id, want)| {
                got.iter()
                    .any(|(gid, img)| gid == id && digest(img) == *want)
            });
        self.count(ok)
    }

    /// Records the outcome of a comparison made by the caller.
    pub fn count(&self, ok: bool) -> bool {
        if !ok {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    pub fn tamper(&self, got: &mut [(ImageId, Image)]) {
        if self.corrupt {
            if let Some(v) = got
                .first_mut()
                .and_then(|(_, img)| img.data_mut().first_mut())
            {
                *v = f32::from_bits(v.to_bits() ^ 1);
            }
        }
    }

    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }
}

/// Runs `f` on every item, on two threads: the oracle's work is done
/// before anything is timed, and two threads halve its wait.
pub fn par_each<T: Send>(
    items: &mut [T],
    f: impl Fn(&mut T) -> Result<(), String> + Sync,
) -> Result<(), String> {
    let half = items.len().div_ceil(2).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let jobs: Vec<_> = items
            .chunks_mut(half)
            .map(|chunk| s.spawn(move || chunk.iter_mut().try_for_each(f)))
            .collect();
        jobs.into_iter()
            .try_for_each(|j| j.join().map_err(|_| "oracle thread panicked".to_string())?)
    })
}

/// A server configuration with `tracer` recording the server's and the
/// runtime's spans (a disabled tracer records none).
pub fn server_config(tracer: &Tracer) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        runtime: RuntimeConfig {
            tracer: tracer.clone(),
            ..defaults.runtime
        },
        tracer: tracer.clone(),
        ..defaults
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations sent to the system (requests, frames, executions).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong output.
    pub failed: u64,
    /// Operations whose output disagreed with the oracle.
    pub mismatched: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs `cmd` and returns its trimmed standard output, if it succeeded.
fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a result was produced. Git is asked only when the
/// working directory is the top of a repository; elsewhere the revision
/// reads `unknown`.
pub fn provenance_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let in_repo = cwd.join(".git").exists();
    let git = |args: &[&str]| {
        in_repo
            .then(|| command_output(Command::new("git").args(args).current_dir(&cwd)))
            .flatten()
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "null".into(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"git_rev\": \"{rev}\", \"git_dirty\": {dirty}, \"nproc\": {nproc}, \
         \"simd\": \"{}\", \"force_scalar_env\": \"{}\", \"rustc\": \"{}\", \
         \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}}}",
        host_simd(),
        std::env::var("KFUSE_FORCE_SCALAR").unwrap_or_default(),
        env!("REPOBENCH_RUSTC"),
    )
}

/// The widest vector extension the host offers.
fn host_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return "sse2";
        }
    }
    "scalar"
}

/// Formats a finite number with all its digits (Rust's shortest round-trip
/// form), as JSON.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::ImageDesc;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn checker_counts_a_corrupted_reply() {
        let img = Image::zeros(ImageDesc::new("o", 4, 4, 1));
        let expected = vec![(ImageId(1), img.clone())];
        let honest = Checker::new(false);
        assert!(honest.images(&mut expected.clone(), &expected));
        assert_eq!(honest.mismatches(), 0);
        let tampering = Checker::new(true);
        assert!(!tampering.images(&mut expected.clone(), &expected));
        let digests = vec![(ImageId(1), digest(&img))];
        assert!(!tampering.digests(&mut expected.clone(), &digests));
        assert_eq!(tampering.mismatches(), 2);
    }
}
