//! `recover-election-loopback`: an 8-party election service over the
//! loopback network backend, used in bursts. Load comes in motions of
//! 2048 one-byte votes at 128 per tick; at each motion's midpoint the
//! service is killed and restored from its snapshot, and each motion
//! drains to an era boundary and checkpoints. Codec and transport carry a
//! large share of every tick, and persistence writes and reads happen in
//! every motion.

use sbc_core::worlds::RealSbcWorld;
use sbc_net::LoopbackSbcWorld;
use sbc_service::{DeadlineClass, ServiceConfig, ServiceMode};

use crate::check::Checks;
use crate::layers::service_values;
use crate::service_run::{drive, setup, traced, untraced, Input, Plan, Step};
use crate::util::{median, ms, Rng, Tracer};
use crate::{Ctx, RunResult};

const PARTIES: usize = 8;
const MOTION: usize = 2048;
const PER_TICK: usize = 128;
const CANDIDATES: u64 = 5;
/// Timed motions per second of `--seconds` (about 5k votes/s on the
/// reference host).
const MOTIONS_PER_S: f64 = 2.5;
const WARMUP_MOTIONS: usize = 1;

fn config(seed: &[u8]) -> ServiceConfig {
    ServiceConfig::new(PARTIES, ServiceMode::Election).seed(seed)
}

/// `motions` motions: 16 ticks of 128 votes with a kill-and-restore
/// drill before the ninth, then a drain to the era boundary and a
/// checkpoint.
fn plan(rng: &mut Rng, motions: usize) -> Plan {
    let inputs = (0..motions * MOTION)
        .map(|_| Input {
            client: rng.below(1_000_000),
            class: DeadlineClass::Standard,
            payload: vec![rng.below(CANDIDATES) as u8],
        })
        .collect();
    let ticks = MOTION / PER_TICK;
    let mut steps = Vec::new();
    for m in 0..motions {
        for t in 0..ticks {
            if t == ticks / 2 {
                steps.push(Step::Drill);
            }
            let first = m * MOTION + t * PER_TICK;
            steps.push(Step::Tick(first..first + PER_TICK));
        }
        steps.push(Step::DrainCheckpoint);
    }
    Plan { inputs, steps }
}

/// Durations (ms) of every tick in a traced pass, in order, counting the
/// restored service's first tick as a tick.
fn tick_series(tracer: &Tracer) -> Vec<f64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == "service.tick" || s.name == "snapshot.first_tick")
        .map(|s| ms(s.duration()))
        .collect()
}

/// Median of the pairwise differences `a[i] - b[i]`.
fn median_difference(a: &[f64], b: &[f64]) -> f64 {
    let mut diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&mut diff)
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let mut rng = Rng::new(ctx.seed, "recover-election-loopback");
    let cfg = config(&rng.seed_bytes());
    let warmup = plan(&mut rng, WARMUP_MOTIONS);
    let timed = plan(
        &mut rng,
        (MOTIONS_PER_S * ctx.seconds as f64).ceil() as usize,
    );
    let err = |e: sbc_service::ServiceError| e.to_string();

    if !ctx.trace {
        return untraced::<LoopbackSbcWorld>(&cfg, &warmup, &timed, checks).map_err(err);
    }

    let t = traced::<LoopbackSbcWorld>(&cfg, &warmup, &timed, &mut checks).map_err(err)?;
    let (net, pass) = (&t.tracer, &t.pass);

    // The same inputs on the in-process backend: identical records, and
    // per-tick / per-restore differences that are the cost of codec plus
    // transport.
    let mut local = Tracer::new(true);
    let (svc, _) = setup::<RealSbcWorld>(&cfg, &warmup, &mut checks).map_err(err)?;
    let replay = drive(svc, &timed, &mut local, &mut checks).map_err(err)?;
    checks.require(replay.records == pass.records, || {
        "in-process replay released different records than the loopback run".into()
    });
    let (net_ticks, local_ticks) = (tick_series(net), tick_series(&local));
    checks.require(net_ticks.len() == local_ticks.len(), || {
        format!(
            "loopback run ticked {} times, in-process replay {}",
            net_ticks.len(),
            local_ticks.len()
        )
    });
    ctx.write_trace(net);

    let mut values = service_values(net, pass, &t.start);
    values.push((
        "snapshot.image_kb",
        pass.drill_bytes.iter().sum::<u64>() as f64 / pass.drill_bytes.len().max(1) as f64 / 1000.0,
    ));
    values.push((
        "net.tick_overhead_ms_p50",
        median_difference(&net_ticks, &local_ticks),
    ));
    values.push((
        "net.restore_overhead_ms_p50",
        median_difference(&net.ms("snapshot.restore"), &local.ms("snapshot.restore")),
    ));
    values.push(("trace.overhead_pct", t.overhead_pct));
    let attempted = t.attempted + replay.attempted;
    Ok(RunResult {
        attempted,
        failed: attempted - t.released - replay.released,
        values,
        checks,
    })
}
