//! Per-layer metrics: the table every `--trace 1` run prints, and the
//! service-layer figures both service workloads derive from their traced
//! pass.
//!
//! Every run prints the whole table. A metric of a layer the workload
//! does not drive through its public functions reads 0: the `core.*`
//! phase timers on the service workloads, `net.*` outside loopback, the
//! checkpoint and drill figures on `serve-beacon`, and the service,
//! snapshot and net figures on `epoch-n1000`.

use sbc_core::worlds::SbcBackend;
use sbc_service::ServiceStats;

use crate::service_run::Pass;
use crate::util::{mean, median, quantile, Tracer};

pub const PER_LAYER: [(&str, &str); 28] = [
    ("service.submit_us_mean", "us"),
    ("service.drain_us_mean", "us"),
    ("service.tick_ms_p50", "ms"),
    ("service.tick_ms_p99", "ms"),
    ("service.ticks", "count"),
    ("service.latency_rounds_p50", "rounds"),
    ("service.latency_rounds_p99", "rounds"),
    ("service.instances", "count"),
    ("service.peak_queue", "count"),
    ("service.journal_ops", "count"),
    ("service.auto_folds", "count"),
    ("snapshot.image_kb", "kB"),
    ("snapshot.encode_ms_p50", "ms"),
    ("snapshot.checkpoint_us_p50", "us"),
    ("snapshot.restore_ms_p50", "ms"),
    ("snapshot.first_tick_ms_p50", "ms"),
    ("snapshot.recovery_ms_p50", "ms"),
    ("snapshot.replayed_ops", "count"),
    ("net.tick_overhead_ms_p50", "ms"),
    ("net.restore_overhead_ms_p50", "ms"),
    ("core.submit_us_mean", "us"),
    ("core.wake_ms_p50", "ms"),
    ("core.deliver_ms_p50", "ms"),
    ("core.release_ms_p50", "ms"),
    ("core.other_rounds_ms_p50", "ms"),
    ("core.turnover_ms_p50", "ms"),
    ("core.rounds_per_epoch", "count"),
    // Traced over untraced wall time of the same work, minus one.
    ("trace.overhead_pct", "%"),
];

/// Service- and snapshot-layer figures of one traced pass. `start` is
/// the service's stats when the timed pass began, so lifetime counters
/// become per-pass counts.
pub fn service_values<W: SbcBackend>(
    tracer: &Tracer,
    pass: &Pass<W>,
    start: &ServiceStats,
) -> Vec<(&'static str, f64)> {
    let end = &pass.stats;
    let mut ticks = tracer.ms("service.tick");
    let mut restore = tracer.ms("snapshot.restore");
    let mut first_tick = tracer.ms("snapshot.first_tick");
    let mut recovery: Vec<f64> = restore
        .iter()
        .zip(&first_tick)
        .map(|(r, t)| r + t)
        .collect();
    let mut replayed: Vec<f64> = pass.drill_ops.iter().map(|&o| o as f64).collect();
    vec![
        ("service.submit_us_mean", mean(&tracer.us("service.submit"))),
        ("service.drain_us_mean", mean(&tracer.us("service.drain"))),
        ("service.tick_ms_p50", median(&mut ticks)),
        ("service.tick_ms_p99", quantile(&mut ticks, 0.99)),
        ("service.ticks", (end.ticks - start.ticks) as f64),
        ("service.latency_rounds_p50", end.latency.p50 as f64),
        ("service.latency_rounds_p99", end.latency.p99 as f64),
        ("service.instances", (end.opened - start.opened) as f64),
        ("service.peak_queue", end.peak_queue as f64),
        ("service.journal_ops", end.journal_ops as f64),
        ("service.auto_folds", end.auto_folds as f64),
        (
            "snapshot.encode_ms_p50",
            median(&mut tracer.ms("snapshot.encode")),
        ),
        (
            "snapshot.checkpoint_us_p50",
            median(&mut tracer.us("snapshot.checkpoint")),
        ),
        ("snapshot.restore_ms_p50", median(&mut restore)),
        ("snapshot.first_tick_ms_p50", median(&mut first_tick)),
        ("snapshot.recovery_ms_p50", median(&mut recovery)),
        ("snapshot.replayed_ops", median(&mut replayed)),
    ]
}
