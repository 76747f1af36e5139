//! Shared plumbing: the seeded input generator, order statistics, the
//! process high-water mark, the in-memory span recorder, and the result
//! line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own input generator, so the inputs do not
/// depend on any primitive of the program under test.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, domain-separated by `tag` so each workload
    /// (and each input stream inside one) draws its own sequence.
    pub fn new(seed: u64, tag: &str) -> Self {
        let mut state = seed ^ 0x5bd1_e995_9e37_79b9;
        for b in tag.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound ≤ 2^32, so the modulo bias is
    /// negligible for input generation).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let word = self.next_u64().to_le_bytes();
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&word[..take]);
        }
        out
    }

    /// The seed bytes handed to the program (pool seed), derived from
    /// the workload seed.
    pub fn seed_bytes(&mut self) -> Vec<u8> {
        self.bytes(16)
    }
}

/// Nearest-rank quantile of `values` (`q` in `0..=1`); sorts in place.
/// Returns 0 for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or 0 when
/// the platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU jiffies of the host as the guest
/// kernel reports them (`/proc/stat`), or `None` where it does not. The
/// steal share over a run says how much of it the hypervisor gave to
/// other guests.
pub fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of the host's CPU time stolen between two [`host_cpu`]
/// readings (0 where `/proc/stat` is unavailable).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => {
            s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
        }
        _ => 0.0,
    }
}

/// How long [`wait_for_quiet_host`] keeps probing before it gives up.
const QUIET_WAIT: Duration = Duration::from_secs(10);
/// Steal share of a busy probe second below which the host counts as
/// quiet. Calm runs on the reference host see 0–1%, slow phases 2–12%.
const QUIET_STEAL: f64 = 0.01;

/// Waits until the hypervisor steals less than [`QUIET_STEAL`] of the CPU
/// time of a one-second probe that keeps every core busy, or until
/// [`QUIET_WAIT`] has passed. Returns the time waited and the last
/// probe's steal share. Steal only accrues while a vCPU wants to run, so
/// the probe spins rather than sleeps; between probes it sleeps, leaving
/// the host to the other guests.
pub fn wait_for_quiet_host() -> (Duration, f64) {
    fn spin_one_second() {
        let probe = Instant::now();
        let mut x = 1u64;
        while probe.elapsed() < Duration::from_secs(1) {
            x = std::hint::black_box(x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 1);
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let start = Instant::now();
    loop {
        let before = host_cpu();
        // This thread spins too, so at most `cores` threads exist.
        std::thread::scope(|s| {
            for _ in 1..cores {
                s.spawn(spin_one_second);
            }
            spin_one_second();
        });
        let share = steal_share(before, host_cpu());
        if share < QUIET_STEAL || start.elapsed() >= QUIET_WAIT {
            return (start.elapsed(), share);
        }
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// One recorded span: a timed call into a layer, relative to the
/// recorder's origin.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder. Disabled, every method is a no-op that just
/// runs the closure, so the untraced pass pays nothing for it.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span to be closed with [`Tracer::close`]; used for driver
    /// scopes that are parents of the timed calls.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        out
    }

    /// Records a span measured by the caller between `start` and `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                parent,
                start: start - self.origin,
                end: end - self.origin,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.durations(name).into_iter().map(ms).collect()
    }

    pub fn us(&self, name: &str) -> Vec<f64> {
        self.durations(name).into_iter().map(us).collect()
    }

    /// Writes the spans as tab-separated `id parent name start_ns end_ns`
    /// lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A named metric with its unit, in the order it is printed.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON object the run ends with. Non-finite values
    /// (never expected) are printed as 0 so the line stays valid JSON.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
