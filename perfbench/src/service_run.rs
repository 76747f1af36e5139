//! The closed-loop driver shared by the two `sbc-service` workloads.
//!
//! A [`Plan`] is a ready-made list of submissions and a schedule of
//! driver steps. [`drive`] plays it against a service: each tick offers
//! its submissions, calls `tick`, then `drain_releases`. Per-ticket wall
//! latency runs from just before `submit` to the return of the
//! `drain_releases` call that handed back the ticket's record. Records
//! are kept and checked after the timed loop, so the checks cost the
//! measurement nothing.

use std::ops::Range;
use std::time::{Duration, Instant};

use sbc_core::worlds::SbcBackend;
use sbc_service::{
    DeadlineClass, Outcome, ReleaseRecord, SbcService, ServiceConfig, ServiceError, ServiceMode,
    ServiceStats,
};

use crate::check::{beacon_value, recount, Checks};
use crate::util::{median, ms, peak_rss_mb, quantile, Tracer};
use crate::{RunResult, SETUPS};

/// One ready-made submission.
#[derive(Clone)]
pub struct Input {
    pub client: u64,
    pub payload: Vec<u8>,
    pub class: DeadlineClass,
}

/// One driver step.
#[derive(Clone)]
pub enum Step {
    /// Offer `inputs[range]`, then `tick`, then `drain_releases`.
    Tick(Range<usize>),
    /// Kill-and-restore: `snapshot`, drop the service, `restore`, and
    /// carry on with the restored service.
    Drill,
    /// Tick (offering nothing) until the queue is empty and no instance
    /// is live.
    Drain,
    /// [`Step::Drain`], then fold the journal with `checkpoint`.
    DrainCheckpoint,
}

#[derive(Clone)]
pub struct Plan {
    pub inputs: Vec<Input>,
    pub steps: Vec<Step>,
}

/// What one pass over a plan produced.
pub struct Pass<W: SbcBackend> {
    /// The service as the plan left it.
    pub svc: SbcService<W>,
    /// Wall time of the whole plan.
    pub wall: Duration,
    /// Submissions offered.
    pub attempted: u64,
    /// Submit→release wall latency per released ticket (ms).
    pub latency_ms: Vec<f64>,
    /// First submit→release wall time per released record (ms).
    pub epoch_ms: Vec<f64>,
    /// Released submissions.
    pub released: u64,
    pub records: Vec<ReleaseRecord>,
    /// Stats at the end of the plan.
    pub stats: ServiceStats,
    /// Journal ops and image bytes of each drill's snapshot.
    pub drill_ops: Vec<u64>,
    pub drill_bytes: Vec<u64>,
}

/// `ServiceStats` without the observational fields a restored service
/// legitimately reports differently (the wall view, the last image size,
/// and the auto-fold count of a policy that is not persisted).
pub fn replayable(mut stats: ServiceStats) -> ServiceStats {
    stats.wall = None;
    stats.snapshot_bytes = 0;
    stats.auto_folds = 0;
    stats
}

/// A service with its driver bookkeeping.
struct Driver<'t, W: SbcBackend> {
    svc: SbcService<W>,
    tracer: &'t mut Tracer,
    /// Ticket of the first accepted submission of this pass.
    first_ticket: Option<u64>,
    /// Per accepted ticket (offset from `first_ticket`): input index and
    /// submit instant.
    accepted: Vec<(usize, Instant)>,
    drained: Vec<(Instant, Vec<ReleaseRecord>)>,
    attempted: u64,
    /// The next tick is the restored service's first.
    after_restore: bool,
    drill_ops: Vec<u64>,
    drill_bytes: Vec<u64>,
}

impl<W: SbcBackend> Driver<'_, W> {
    fn tick(&mut self, parent: Option<usize>) -> Result<(), ServiceError> {
        let name = if std::mem::take(&mut self.after_restore) {
            "snapshot.first_tick"
        } else {
            "service.tick"
        };
        let svc = &mut self.svc;
        self.tracer.time(name, parent, || svc.tick())?;
        let records = self
            .tracer
            .time("service.drain", parent, || svc.drain_releases());
        let now = Instant::now();
        if !records.is_empty() {
            self.drained.push((now, records));
        }
        Ok(())
    }

    fn offer(&mut self, inputs: &mut [Input], range: Range<usize>, parent: Option<usize>) {
        for k in range {
            let input = &mut inputs[k];
            let payload = std::mem::take(&mut input.payload);
            let (client, class) = (input.client, input.class);
            self.attempted += 1;
            let at = Instant::now();
            let svc = &mut self.svc;
            let accepted = self.tracer.time("service.submit", parent, || {
                svc.submit(client, payload, class)
            });
            // Tickets are dense in acceptance order, so a ticket's offset
            // from the first one indexes `accepted`. A refused submission
            // is never released: the run counts it as failed.
            if let Ok(ticket) = accepted {
                self.first_ticket.get_or_insert(ticket);
                self.accepted.push((k, at));
            }
        }
    }

    fn drain(&mut self, parent: Option<usize>) -> Result<(), ServiceError> {
        while self.svc.queued() > 0 || self.svc.live() > 0 {
            self.tick(parent)?;
        }
        Ok(())
    }

    fn drill(&mut self, parent: Option<usize>, checks: &mut Checks) -> Result<(), ServiceError> {
        let before = replayable(self.svc.stats());
        let svc = &self.svc;
        let image = self
            .tracer
            .time("snapshot.encode", parent, || svc.snapshot())?;
        self.drill_ops.push(before.journal_ops);
        self.drill_bytes.push(image.len() as u64);
        let restored = self.tracer.time("snapshot.restore", parent, || {
            SbcService::<W>::restore(&image)
        })?;
        // The killed service is dropped here; the run continues on the
        // restored one.
        self.svc = restored;
        let after = replayable(self.svc.stats());
        checks.require(after == before, || {
            format!("restored service stats differ: {after:?} != {before:?}")
        });
        self.after_restore = true;
        Ok(())
    }
}

/// Plays `plan` against `svc`. Every released record is checked against
/// the ledger (the plan's own payloads) after the loop.
pub fn drive<W: SbcBackend>(
    svc: SbcService<W>,
    plan: &Plan,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Pass<W>, ServiceError> {
    let mut inputs = plan.inputs.clone();
    let mut d = Driver {
        svc,
        tracer,
        first_ticket: None,
        accepted: Vec::with_capacity(inputs.len()),
        drained: Vec::new(),
        attempted: 0,
        after_restore: false,
        drill_ops: Vec::new(),
        drill_bytes: Vec::new(),
    };
    let start = Instant::now();
    for step in &plan.steps {
        match step {
            Step::Tick(range) => {
                let span = d.tracer.open("driver.tick", None);
                d.offer(&mut inputs, range.clone(), span);
                d.tick(span)?;
                d.tracer.close(span);
            }
            Step::Drill => {
                let span = d.tracer.open("driver.drill", None);
                d.drill(span, checks)?;
                d.tracer.close(span);
            }
            Step::Drain => {
                let span = d.tracer.open("driver.drain", None);
                d.drain(span)?;
                d.tracer.close(span);
            }
            Step::DrainCheckpoint => {
                let span = d.tracer.open("driver.drain", None);
                d.drain(span)?;
                let svc = &mut d.svc;
                let folded = d
                    .tracer
                    .time("snapshot.checkpoint", span, || svc.checkpoint());
                checks.require(folded.is_ok(), || {
                    format!("checkpoint after a full drain refused: {folded:?}")
                });
                d.tracer.close(span);
            }
        }
    }
    let wall = start.elapsed();

    // Ledger: every accepted ticket released exactly once, each record's
    // messages equal (as a multiset) the payloads submitted under its
    // tickets, and its outcome equals the recomputed one.
    let mode = d.svc.config().mode;
    let first = d.first_ticket.unwrap_or(0);
    let mut released = vec![false; d.accepted.len()];
    let mut latency_ms = Vec::with_capacity(d.accepted.len());
    let mut epoch_ms = Vec::new();
    let mut records = Vec::new();
    for (at, batch) in d.drained {
        for rec in batch {
            let mut payloads: Vec<&[u8]> = Vec::with_capacity(rec.tickets.len());
            let mut earliest = at;
            for &ticket in &rec.tickets {
                let slot = ticket.checked_sub(first).map(|o| o as usize);
                let Some(slot) = slot.filter(|&o| o < d.accepted.len()) else {
                    checks.require(false, || format!("released unknown ticket {ticket}"));
                    continue;
                };
                checks.require(!released[slot], || {
                    format!("ticket {ticket} released twice")
                });
                released[slot] = true;
                let (input, submitted) = d.accepted[slot];
                latency_ms.push(ms(at - submitted));
                earliest = earliest.min(submitted);
                payloads.push(&plan.inputs[input].payload);
            }
            epoch_ms.push(ms(at - earliest));
            payloads.sort_unstable();
            let mut messages: Vec<&[u8]> = rec.messages.iter().map(Vec::as_slice).collect();
            messages.sort_unstable();
            checks.require(messages == payloads, || {
                format!(
                    "instance {}: released messages differ from the submitted payloads",
                    rec.instance
                )
            });
            let want = match mode {
                ServiceMode::Beacon => Outcome::Beacon(beacon_value(payloads.iter().copied())),
                ServiceMode::Election => {
                    recount(payloads.iter().filter_map(|p| p.first().copied()))
                }
                // No workload runs auctions.
                ServiceMode::Auction => rec.outcome.clone(),
            };
            checks.require(rec.outcome == want, || {
                format!(
                    "instance {}: outcome {:?}, recomputed {want:?}",
                    rec.instance, rec.outcome
                )
            });
            records.push(rec);
        }
    }
    let missing = released.iter().filter(|r| !**r).count();
    checks.require(missing == 0, || {
        format!("{missing} accepted tickets never released")
    });

    Ok(Pass {
        wall,
        attempted: d.attempted,
        released: latency_ms.len() as u64,
        latency_ms,
        epoch_ms,
        records,
        stats: d.svc.stats(),
        svc: d.svc,
        drill_ops: d.drill_ops,
        drill_bytes: d.drill_bytes,
    })
}

/// Builds a service and plays the warm-up plan on it. Returns the warm
/// service and the set-up time: construction plus the warm-up's wall
/// time (its ledger check afterwards is not counted).
pub fn setup<W: SbcBackend>(
    cfg: &ServiceConfig,
    warmup: &Plan,
    checks: &mut Checks,
) -> Result<(SbcService<W>, f64), ServiceError> {
    let start = Instant::now();
    let svc = SbcService::<W>::new(cfg.clone())?;
    let built = start.elapsed();
    let pass = drive(svc, warmup, &mut Tracer::new(false), checks)?;
    Ok((pass.svc, (built + pass.wall).as_secs_f64()))
}

/// A `--trace 0` run: [`SETUPS`] set-ups (the timed pass runs on the
/// last; `setup_s` is their median), then one untraced pass of `timed`
/// and its end-to-end metrics.
pub fn untraced<W: SbcBackend>(
    cfg: &ServiceConfig,
    warmup: &Plan,
    timed: &Plan,
    mut checks: Checks,
) -> Result<RunResult, ServiceError> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let (svc, secs) = setup::<W>(cfg, warmup, &mut checks)?;
        setups.push(secs);
        last = Some(svc);
    }
    let svc = last.expect("SETUPS > 0");
    let mut pass = drive(svc, timed, &mut Tracer::new(false), &mut checks)?;
    Ok(RunResult {
        attempted: pass.attempted,
        failed: pass.attempted - pass.released,
        values: vec![
            ("setup_s", median(&mut setups)),
            (
                "submissions_per_s",
                pass.released as f64 / pass.wall.as_secs_f64(),
            ),
            ("latency_ms_p50", median(&mut pass.latency_ms)),
            ("latency_ms_p90", quantile(&mut pass.latency_ms, 0.90)),
            ("epoch_ms_p50", median(&mut pass.epoch_ms)),
            ("epoch_ms_p90", quantile(&mut pass.epoch_ms, 0.90)),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        checks,
    })
}

/// The traced pass of a `--trace 1` run, bracketed by two untraced
/// passes of the same plan so that host drift over the run cancels to
/// first order in the tracing overhead.
pub struct TracedPass<W: SbcBackend> {
    pub pass: Pass<W>,
    /// Service stats when the traced pass began.
    pub start: ServiceStats,
    pub tracer: Tracer,
    /// Traced wall time over the mean untraced wall time, minus one (%).
    pub overhead_pct: f64,
    /// Offered and released submissions over all three passes.
    pub attempted: u64,
    pub released: u64,
}

pub fn traced<W: SbcBackend>(
    cfg: &ServiceConfig,
    warmup: &Plan,
    timed: &Plan,
    checks: &mut Checks,
) -> Result<TracedPass<W>, ServiceError> {
    let plain = |checks: &mut Checks| -> Result<(f64, u64, u64), ServiceError> {
        let (svc, _) = setup::<W>(cfg, warmup, checks)?;
        let p = drive(svc, timed, &mut Tracer::new(false), checks)?;
        Ok((p.wall.as_secs_f64(), p.attempted, p.released))
    };
    let before = plain(checks)?;
    let mut tracer = Tracer::new(true);
    let (svc, _) = setup::<W>(cfg, warmup, checks)?;
    let start = svc.stats();
    let pass = drive(svc, timed, &mut tracer, checks)?;
    let after = plain(checks)?;
    let untraced = (before.0 + after.0) / 2.0;
    Ok(TracedPass {
        overhead_pct: (pass.wall.as_secs_f64() / untraced - 1.0) * 100.0,
        attempted: before.1 + after.1 + pass.attempted,
        released: before.2 + after.2 + pass.released,
        pass,
        start,
        tracer,
    })
}
