//! Run header, sample statistics, and the result line.
//!
//! Every timing is kept as its raw samples and reported as a median plus
//! the highest percentile that still has at least ten samples beyond it.
//! Metrics live in a `BTreeMap`, so every printed block is name-ordered.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use serde::Value;

/// Host and build provenance stamped on every result.
pub struct Header {
    pub commit: String,
    pub cpu: String,
    pub nproc: usize,
    pub rustc: String,
    pub profile: String,
}

impl Header {
    /// Reads the stamp from the checkout (`.git/HEAD`), `/proc/cpuinfo`,
    /// and the build-time environment.
    pub fn collect(nproc: usize) -> Header {
        Header {
            commit: commit_of(Path::new(".git")),
            cpu: cpu_model(),
            nproc,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
        }
    }
}

/// The commit `HEAD` names, resolved through loose refs and
/// `packed-refs` without the git binary; `unknown` outside a repository.
fn commit_of(git: &Path) -> String {
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(loose) = fs::read_to_string(git.join(reference)) {
        return loose.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host-wide CPU ticks from `/proc/stat`: `(busy, steal)`, busy being
/// user, nice, system, irq and softirq time. Steal is time the CPUs
/// were runnable but held by the hypervisor.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let t: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((t.get(..7)?.iter().sum::<u64>() - t[3] - t[4], *t.get(7)?))
}

/// Hypervisor steal over an interval: the share of the busy CPU time
/// in it that the host took back.
pub struct Steal(Option<(u64, u64)>);

impl Steal {
    pub fn start() -> Steal {
        Steal(cpu_ticks())
    }

    /// The share since [`Steal::start`]; 0 where `/proc/stat` is missing.
    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((busy0, steal0)), Some((busy1, steal1))) => {
                let steal = steal1.saturating_sub(steal0) as f64;
                steal / (busy1.saturating_sub(busy0) as f64 + steal).max(1.0)
            }
            _ => 0.0,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Raw samples of one timing or quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p` (0–100); 0 for no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        nearest_rank(&self.sorted(), p)
    }

    /// The median: the mean of the two middle samples for an even count.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    /// beyond it, with its value; `None` below 20 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
            .into_iter()
            .find_map(|p| {
                let rank = rank_of(n, p);
                (n >= rank + 10 && rank > 0).then(|| (p, v[rank - 1]))
            })
    }

    /// The share of samples at most `limit`.
    pub fn share_at_most(&self, limit: f64) -> f64 {
        let within = self.values.iter().filter(|&&v| v <= limit).count();
        within as f64 / self.values.len().max(1) as f64
    }

    /// Samples strictly beyond the nearest-rank percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.values.len();
        n - rank_of(n, p).min(n)
    }
}

fn rank_of(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil() as usize
}

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank_of(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run: metrics, the operation counts, the checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    /// Timings behind the metrics: name → samples (for the header's
    /// sample counts and tail percentiles).
    pub timings: BTreeMap<String, Samples>,
    /// Workload-named quantities printed for people, not in the result
    /// line (e.g. `sweep.configs_per_s`).
    pub named: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, with their detail.
    pub check_failures: Vec<String>,
    pub checks_run: u64,
    /// Hypervisor steal share of the timed window, when one was timed.
    pub steal: Option<f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.insert(name.to_string(), Metric { value, unit });
    }

    pub fn timing(&mut self, name: &str, samples: Samples) {
        self.timings.insert(name.to_string(), samples);
    }

    /// Records the host-time end-to-end metrics of a timed window: `work`
    /// done in `elapsed_s` seconds, the median and tail operation
    /// latencies, and the share of operations within the latency limit.
    ///
    /// On a shared virtual machine the hypervisor takes back a share of
    /// the CPU time, and that share, not the code, moves wall-clock
    /// figures most between runs. Throughput and latencies are therefore
    /// scaled to the CPU time the run was given, with the steal `share`
    /// measured over the same window; on a dedicated host it is 0 and
    /// they are the plain wall-clock figures, which the report prints
    /// beside them.
    pub fn host_metrics(
        &mut self,
        steal: f64,
        work: f64,
        elapsed_s: f64,
        latency_ms: [f64; 2],
        within: f64,
    ) {
        let kept = 1.0 - steal.min(0.9);
        self.steal = Some(steal);
        self.metric("throughput_per_s", work / elapsed_s / kept, "1/s");
        self.metric("latency_p50_ms", latency_ms[0] * kept, "ms");
        self.metric("latency_tail_ms", latency_ms[1] * kept, "ms");
        self.metric("within_limit_ratio", within, "ratio");
    }

    /// Records one correctness check; a failure also counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks_run += 1;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// Prints the human-readable report: header, timings with their sample
/// counts, every metric with its unit, and any failed check.
pub fn print_report(header: &Header, workload: &str, seed: u64, trace: bool, out: &Outcome) {
    println!(
        "perfbench {workload} (seed {seed}, trace {})",
        u8::from(trace)
    );
    println!("  commit   {}", header.commit);
    println!("  cpu      {}", header.cpu);
    println!("  nproc    {}", header.nproc);
    println!("  rustc    {}", header.rustc);
    println!("  profile  {}", header.profile);
    if let Some(steal) = out.steal {
        println!(
            "  steal    {:.1}% of the timed window's busy CPU time went to the hypervisor",
            steal * 100.0
        );
    }
    for (name, samples) in &out.timings {
        let tail = samples.tail().map_or_else(
            || "no percentile with ten samples beyond".to_string(),
            |(p, v)| format!("p{p} {v:.4} ({} beyond)", samples.beyond(p)),
        );
        println!(
            "  timing   {name}: n={} median {:.4} {tail}",
            samples.len(),
            samples.median()
        );
    }
    for (name, m) in out.named.iter().chain(&out.metrics) {
        println!("  {name:<40} {:>16.6} {}", m.value, m.unit);
    }
    println!(
        "  checks   {} run, {} failed; operations {} attempted, {} failed",
        out.checks_run,
        out.check_failures.len(),
        out.attempted,
        out.failed
    );
    for failure in &out.check_failures {
        println!("  FAILED   {failure}");
    }
}

/// The machine-readable last line.
pub fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(out.correct())),
        ("attempted".into(), Value::U64(out.attempted.max(1))),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        assert_eq!(s.beyond(90.0), 10);
        assert_eq!(s.median(), 50.5);
        let mut few = Samples::default();
        few.push(1.0);
        assert_eq!(few.tail(), None);
    }
}
