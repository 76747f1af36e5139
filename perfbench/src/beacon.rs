//! `serve-beacon`: many small instances under saturation. One driver
//! offers 512 32-byte submissions per tick to a 4-party beacon service
//! built from the `ServiceConfig::new` defaults, with the auto-checkpoint
//! policy armed as an operator would arm it. Ingest, batching, admission,
//! prune and per-instance pool overhead do the work.

use sbc_core::worlds::RealSbcWorld;
use sbc_service::{CheckpointEvery, DeadlineClass, ServiceConfig, ServiceMode};

use crate::check::{sha256_known_answers, Checks};
use crate::layers::service_values;
use crate::service_run::{traced, untraced, Input, Plan, Step};
use crate::util::Rng;
use crate::{Ctx, RunResult};

const PARTIES: usize = 4;
const PER_TICK: usize = 512;
const PAYLOAD_LEN: usize = 32;
/// Timed ticks per second of `--seconds` (about 18k submissions/s on the
/// reference host).
const TICKS_PER_S: u64 = 34;
const WARMUP_TICKS: usize = 8;

fn config(seed: &[u8]) -> ServiceConfig {
    ServiceConfig::new(PARTIES, ServiceMode::Beacon)
        .seed(seed)
        .checkpoint_every(CheckpointEvery {
            eras: 16,
            journal_ops: 4096,
        })
}

/// `ticks` ticks of 512 submissions from a million clients (5%
/// interactive, 25% batch, the rest standard), then a drain.
fn plan(rng: &mut Rng, ticks: usize) -> Plan {
    let inputs = (0..ticks * PER_TICK)
        .map(|_| Input {
            client: rng.below(1_000_000),
            class: match rng.below(100) {
                0..=4 => DeadlineClass::Interactive,
                5..=29 => DeadlineClass::Batch,
                _ => DeadlineClass::Standard,
            },
            payload: rng.bytes(PAYLOAD_LEN),
        })
        .collect();
    let mut steps: Vec<Step> = (0..ticks)
        .map(|t| Step::Tick(t * PER_TICK..(t + 1) * PER_TICK))
        .collect();
    steps.push(Step::Drain);
    Plan { inputs, steps }
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    sha256_known_answers(&mut checks);
    let mut rng = Rng::new(ctx.seed, "serve-beacon");
    let cfg = config(&rng.seed_bytes());
    let warmup = plan(&mut rng, WARMUP_TICKS);
    let timed = plan(&mut rng, (TICKS_PER_S * ctx.seconds) as usize);
    let err = |e: sbc_service::ServiceError| e.to_string();

    if !ctx.trace {
        return untraced::<RealSbcWorld>(&cfg, &warmup, &timed, checks).map_err(err);
    }

    let mut t = traced::<RealSbcWorld>(&cfg, &warmup, &timed, &mut checks).map_err(err)?;
    // The end-of-run image: everything since the last fold.
    let svc = &t.pass.svc;
    let image = t
        .tracer
        .time("snapshot.encode", None, || svc.snapshot())
        .map_err(err)?;
    ctx.write_trace(&t.tracer);
    let mut values = service_values(&t.tracer, &t.pass, &t.start);
    values.push(("snapshot.image_kb", image.len() as f64 / 1000.0));
    values.push(("trace.overhead_pct", t.overhead_pct));
    Ok(RunResult {
        attempted: t.attempted,
        failed: t.attempted - t.released,
        values,
        checks,
    })
}
