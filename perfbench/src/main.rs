//! `sbc-perfbench`: the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-beacon|epoch-n1000|recover-election-loopback \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop over ready-made inputs generated from
//! `--seed` before any timing. `--seconds` sets the amount of work, scaled
//! so that one timed pass lasts about that long on the reference host
//! (see the README); the work is a fixed function of `--seconds`, so every
//! attempt does identical protocol work. Each attempt first waits for a
//! quiet host, and a `--trace 0` run that the hypervisor still slowed
//! makes a second attempt. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it runs the same work untraced,
//! traced and untraced again, prints the per-layer metrics (including the
//! tracing overhead), and writes the spans to `perfbench/out/`. The last
//! line of standard output is the JSON result.

mod beacon;
mod check;
mod epoch;
mod layers;
mod recover;
mod service_run;
mod util;

use check::Checks;
use util::{Metric, Report};

pub const WORKLOADS: [&str; 3] = ["serve-beacon", "epoch-n1000", "recover-election-loopback"];

/// End-to-end metrics, printed by every `--trace 0` run in this order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("submissions_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups per `--trace 0` attempt; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Attempts a `--trace 0` run may make, and the share of CPU time stolen
/// by the hypervisor during an attempt above which it makes another.
/// Runs on the reference host with 2–12% stolen were 8–40% slower than
/// calm ones.
const ATTEMPTS: usize = 2;
const RETRY_STEAL: f64 = 0.02;

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value} (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed expects a number")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a workload hands back: its counts, its checks, and its metric
/// values by name.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub values: Vec<(&'static str, f64)>,
}

fn main() {
    let ctx = parse_args().unwrap_or_else(|e| {
        eprintln!("sbc-perfbench: {e}");
        std::process::exit(2);
    });
    // A `--trace 0` run that the hypervisor slowed tries once more; the
    // calmer attempt is reported. Every attempt's checks count.
    let attempts = if ctx.trace { 1 } else { ATTEMPTS };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut chosen: Option<(f64, RunResult)> = None;
    for attempt in 1..=attempts {
        let (waited, probe) = util::wait_for_quiet_host();
        let before = util::host_cpu();
        let result = match ctx.workload.as_str() {
            "serve-beacon" => beacon::run(&ctx),
            "epoch-n1000" => epoch::run(&ctx),
            "recover-election-loopback" => recover::run(&ctx),
            other => unreachable!("parse_args admits only known workloads, not {other}"),
        };
        let out = result.unwrap_or_else(|e| {
            eprintln!("sbc-perfbench: {} failed: {e}", ctx.workload);
            std::process::exit(1);
        });
        let steal = util::steal_share(before, util::host_cpu());
        eprintln!(
            "attempt {attempt}: waited {:.1} s for a quiet host (last probe {:.1}% steal); \
             {:.1}% of CPU time stolen during the attempt",
            waited.as_secs_f64(),
            probe * 100.0,
            steal * 100.0
        );
        out.checks.report();
        correct &= out.checks.ok();
        attempted += out.attempted;
        failed += out.failed;
        if chosen.as_ref().is_none_or(|(least, _)| steal < *least) {
            chosen = Some((steal, out));
        }
        if steal < RETRY_STEAL {
            break;
        }
    }
    let (_, out) = chosen.expect("at least one attempt");
    let table: &[(&str, &str)] = if ctx.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics: Vec<Metric> = table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: out
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        })
        .collect();
    for m in &metrics {
        eprintln!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let report = Report {
        correct,
        attempted,
        failed,
        metrics,
    };
    println!("{}", report.json());
}

/// The run's settings, as every workload sees them.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Ctx {
    /// Writes a traced run's spans to
    /// `perfbench/out/trace-<workload>-seed<N>.tsv`. A failed write loses
    /// only the span file, not the run.
    pub fn write_trace(&self, tracer: &util::Tracer) {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("trace-{}-seed{}.tsv", self.workload, self.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("sbc-perfbench: could not write {}: {e}", path.display());
        }
    }
}
