//! Reads of the program's own `acm.*` instruments and of the exec pool.

use acm_exec::PoolStatsSnapshot;
use acm_obs::{MetricValue, Obs};

/// CPU time of every thread of this process so far, ms. With paravirt
/// steal accounting the kernel leaves out the time the hypervisor gave
/// the virtual CPU to other guests, so unlike wall time it does not
/// stretch while they crowd the host. On the 2-core VM this benchmark
/// was tuned on, `/proc/stat` counted 3.4 s of steal during one 10 s run.
pub fn process_cpu_ms() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e6
}

/// Total of one instrument: a counter's value or a histogram's sum
/// (nanoseconds for `*_ns` timers); 0 when it was never registered.
pub fn total(obs: &Obs, name: &str) -> u64 {
    obs.metrics()
        .into_iter()
        .find(|m| m.name == name)
        .map_or(0, |m| match m.value {
            MetricValue::Counter(n) => n,
            MetricValue::Histogram(h) => h.sum,
            MetricValue::Gauge(g) => g.max(0.0) as u64,
        })
}

/// Sum of every histogram whose name starts with `prefix`.
pub fn hist_sum_prefix(obs: &Obs, prefix: &str) -> u64 {
    obs.metrics()
        .into_iter()
        .filter(|m| m.name.starts_with(prefix))
        .map(|m| match m.value {
            MetricValue::Histogram(h) => h.sum,
            _ => 0,
        })
        .sum()
}

/// Cheap per-era reads of fixed timers: one histogram handle per name,
/// resolved once.
pub struct Timers {
    hists: Vec<acm_obs::Hist>,
}

impl Timers {
    /// Resolves `names` on `obs`.
    pub fn new(obs: &Obs, names: &[&str]) -> Self {
        Timers {
            hists: names.iter().map(|n| obs.histogram(n)).collect(),
        }
    }

    /// Current sums, in the order the names were given.
    pub fn sums(&self) -> Vec<u64> {
        self.hists.iter().map(|h| h.snapshot().sum).collect()
    }
}

/// Element-wise `after - before`.
pub fn delta(after: &[u64], before: &[u64]) -> Vec<u64> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect()
}

/// Exec-pool activity over a window of `wall_s` seconds.
pub struct ExecWindow {
    /// Pool counters accumulated over the window.
    pub delta: PoolStatsSnapshot,
    /// Window length, seconds.
    pub wall_s: f64,
}

impl ExecWindow {
    /// Busy time of all participants, ms.
    pub fn busy_ms(&self) -> f64 {
        self.delta.total_busy_ns() as f64 / 1e6
    }

    /// Participant time not spent busy (barrier and waiting), ms.
    pub fn idle_ms(&self) -> f64 {
        (self.delta.threads as f64 * self.wall_s * 1e3 - self.busy_ms()).max(0.0)
    }
}
