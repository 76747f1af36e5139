//! `epoch-n1000`: one huge SBC instance. An `SbcSession` of 1000 parties
//! runs back-to-back epochs of 128 distinct senders each, so the
//! `sbc-core` round pipeline does nearly all the work.

use std::time::Instant;

use sbc_core::api::{SbcError, SbcSession};

use crate::check::Checks;
use crate::util::{mean, median, ms, peak_rss_mb, quantile, Rng, Tracer};
use crate::{Ctx, RunResult, SETUPS};

const PARTIES: usize = 1000;
const SENDERS: usize = 128;
const MESSAGE_LEN: usize = 32;

/// One epoch's ready-made inputs: `(sender, message)` pairs with
/// distinct senders.
type EpochInput = Vec<(u32, Vec<u8>)>;

fn inputs(rng: &mut Rng, epochs: usize) -> Vec<EpochInput> {
    (0..epochs)
        .map(|_| {
            // Partial Fisher–Yates: 128 distinct senders out of 1000.
            let mut ids: Vec<u32> = (0..PARTIES as u32).collect();
            (0..SENDERS)
                .map(|i| {
                    let j = i + rng.below((PARTIES - i) as u64) as usize;
                    ids.swap(i, j);
                    (ids[i], rng.bytes(MESSAGE_LEN))
                })
                .collect()
        })
        .collect()
}

/// What the timed epochs produced.
struct Pass {
    epoch_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    wall_s: f64,
}

/// The round phase of an epoch's `step_round`, by its offset from the
/// submit round: the first wakes the parties (and `F_TLE`-encrypts), the
/// next delivers the broadcast wires (`F_UBC`'s delay under the default
/// parameters), and the releasing round is the last. Everything else is
/// a near-idle clock round.
fn phase(offset: usize, releasing: bool) -> &'static str {
    if releasing {
        "core.release"
    } else if offset == 0 {
        "core.wake"
    } else if offset == 1 {
        "core.deliver"
    } else {
        "core.other_round"
    }
}

/// Runs `epochs` against `session`. Untraced, each epoch is `submit`×128
/// then `run_epoch`. Traced, the epoch is stepped with `step_round` so
/// each round can be timed by phase; `run_epoch` then only performs the
/// turnover.
fn drive(
    session: &mut SbcSession,
    epochs: &[EpochInput],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Pass, SbcError> {
    let params = session.params();
    let mut epoch_ms = Vec::with_capacity(epochs.len());
    let mut latency_ms = Vec::with_capacity(epochs.len() * SENDERS);
    let mut submitted = Vec::with_capacity(SENDERS);
    let start = Instant::now();
    for input in epochs {
        let span = tracer.open("driver.epoch", None);
        let woke_at = session.round();
        submitted.clear();
        for (party, message) in input {
            submitted.push(Instant::now());
            tracer.time("core.submit", span, || session.submit(*party, message))?;
        }
        if tracer.on() {
            let mut offset = 0;
            loop {
                let t = Instant::now();
                let released = session.step_round()?;
                let end = Instant::now();
                let name = phase(offset, released.is_some());
                tracer.record(name, span, t, end);
                if released.is_some() {
                    break;
                }
                offset += 1;
            }
        }
        let result = tracer.time("core.turnover", span, || session.run_epoch())?;
        let released_at = Instant::now();
        tracer.close(span);
        epoch_ms.push(ms(released_at - submitted[0]));
        latency_ms.extend(submitted.iter().map(|&s| ms(released_at - s)));

        let mut want: Vec<&[u8]> = input.iter().map(|(_, m)| m.as_slice()).collect();
        want.sort_unstable();
        let got: Vec<&[u8]> = result.messages.iter().map(Vec::as_slice).collect();
        checks.require(got == want, || {
            format!(
                "epoch {}: vector is not the sorted set of its {} messages",
                result.epoch,
                input.len()
            )
        });
        let tau_rel = woke_at + params.phi + params.delta;
        checks.require(result.release_round == tau_rel, || {
            format!(
                "epoch {}: released at round {}, want t_awake + Φ + ∆ = {tau_rel}",
                result.epoch, result.release_round
            )
        });
    }
    Ok(Pass {
        epoch_ms,
        latency_ms,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Timed epochs per second of `--seconds` (about 20/s on the reference
/// host), and never fewer than 100 so the whole run's p90 has at least
/// ten epochs beyond it.
const EPOCHS_PER_S: u64 = 20;
const MIN_EPOCHS: u64 = 100;
const WARMUP_EPOCHS: usize = 5;

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let mut rng = Rng::new(ctx.seed, "epoch-n1000");
    let seed = rng.seed_bytes();
    let epochs = (EPOCHS_PER_S * ctx.seconds).max(MIN_EPOCHS) as usize;
    let warmup = inputs(&mut rng, WARMUP_EPOCHS);
    let timed = inputs(&mut rng, epochs);
    let attempted = (epochs * SENDERS) as u64;
    let err = |e: SbcError| e.to_string();

    // Build the session and run the warm-up epochs; returns the warm
    // session and the set-up time.
    let setup = |checks: &mut Checks| -> Result<(SbcSession, f64), String> {
        let t = Instant::now();
        let mut s = SbcSession::builder(PARTIES)
            .seed(&seed)
            .build()
            .map_err(err)?;
        drive(&mut s, &warmup, &mut Tracer::new(false), checks).map_err(err)?;
        Ok((s, t.elapsed().as_secs_f64()))
    };

    if !ctx.trace {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut session = None;
        for _ in 0..SETUPS {
            let (s, secs) = setup(&mut checks)?;
            setups.push(secs);
            session = Some(s);
        }
        let mut s = session.expect("SETUPS > 0");
        let mut pass = drive(&mut s, &timed, &mut Tracer::new(false), &mut checks).map_err(err)?;
        return Ok(RunResult {
            attempted,
            failed: 0,
            checks,
            values: vec![
                ("setup_s", median(&mut setups)),
                ("submissions_per_s", attempted as f64 / pass.wall_s),
                ("latency_ms_p50", median(&mut pass.latency_ms)),
                ("latency_ms_p90", quantile(&mut pass.latency_ms, 0.90)),
                ("epoch_ms_p50", median(&mut pass.epoch_ms)),
                ("epoch_ms_p90", quantile(&mut pass.epoch_ms, 0.90)),
                ("peak_rss_mb", peak_rss_mb()),
            ],
        });
    }

    // Untraced, traced, untraced: host drift over the run cancels to
    // first order in the tracing overhead.
    let pass = |checks: &mut Checks, tracer: &mut Tracer| -> Result<f64, String> {
        let (mut s, _) = setup(checks)?;
        Ok(drive(&mut s, &timed, tracer, checks).map_err(err)?.wall_s)
    };
    let before = pass(&mut checks, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let traced = pass(&mut checks, &mut tracer)?;
    let after = pass(&mut checks, &mut Tracer::new(false))?;
    ctx.write_trace(&tracer);
    let phase_ms = |name| median(&mut tracer.ms(name));
    let rounds: usize = [
        "core.wake",
        "core.deliver",
        "core.release",
        "core.other_round",
    ]
    .iter()
    .map(|n| tracer.durations(n).len())
    .sum();
    Ok(RunResult {
        attempted: 3 * attempted,
        failed: 0,
        checks,
        values: vec![
            ("core.submit_us_mean", mean(&tracer.us("core.submit"))),
            ("core.wake_ms_p50", phase_ms("core.wake")),
            ("core.deliver_ms_p50", phase_ms("core.deliver")),
            ("core.release_ms_p50", phase_ms("core.release")),
            ("core.other_rounds_ms_p50", phase_ms("core.other_round")),
            ("core.turnover_ms_p50", phase_ms("core.turnover")),
            ("core.rounds_per_epoch", rounds as f64 / epochs as f64),
            (
                "trace.overhead_pct",
                (traced / ((before + after) / 2.0) - 1.0) * 100.0,
            ),
        ],
    })
}
