//! Host clock, order statistics, host facts and the JSON writer.

use std::sync::OnceLock;
use tpnr_net::time::HostStopwatch;

/// Process-wide host-time epoch: every span and timing in the benchmark is
/// microseconds since this stopwatch started.
static EPOCH: OnceLock<HostStopwatch> = OnceLock::new();

/// Host microseconds since the benchmark's epoch.
pub fn now_us() -> f64 {
    EPOCH.get_or_init(HostStopwatch::start).elapsed_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the host microseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = now_us();
    let r = f();
    (r, now_us() - t0)
}

/// Quantile `q` of `xs` by linear interpolation between order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of p99/p95/p90/p50 that has at least ten samples beyond it,
/// as `(percentile, value)`; `None` with fewer than 20 samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 50]
        .into_iter()
        .find(|&p| xs.len() as f64 * (100 - p) as f64 / 100.0 >= 10.0)
        .map(|p| (p, quantile(xs, p as f64 / 100.0)))
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// First line of a command's standard output, or `"unavailable"`. Git is
/// kept from searching above the working directory, so a checkout that is
/// not a repository reports no revision rather than an enclosing one's.
fn command_line(prog: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new(prog)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Facts about the build and the host that every result row carries.
pub struct Host {
    pub git_rev: String,
    pub rustc: String,
    pub cpu_model: String,
    pub nproc: usize,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unavailable".to_string());
        Host {
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            cpu_model,
            nproc: tpnr_par::available_parallelism(),
        }
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (no samples) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Deterministic 64-bit mixer (splitmix64): every generated input is a pure
/// function of the workload seed and an index.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs = vec![1.0; 1000];
        assert_eq!(tail(&xs).map(|t| t.0), Some(99));
        let xs = vec![1.0; 999];
        assert_eq!(tail(&xs).map(|t| t.0), Some(95));
        assert_eq!(tail(&[1.0; 19]), None);
    }
}
