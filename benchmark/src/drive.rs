//! The single generator thread: closed-loop, open-loop and synchronous
//! drivers, each verifying every answer against the oracle.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lake::core::LakeError;

use crate::target::{Done, Target, Ticket};
use crate::workload::{Generator, Model, Request, Spec, Traffic};

/// Time slices a deadline-bound phase is cut into for `rows_per_s`.
pub const SLICES: usize = 10;
/// Open-loop arrivals not completed this long after the last due time fail.
const PACED_GRACE: Duration = Duration::from_secs(2);

/// When a closed or synchronous loop stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Count(usize),
    After(Duration),
}

impl Stop {
    fn more(self, sent: usize, start: Instant) -> bool {
        match self {
            Stop::Count(n) => sent < n,
            Stop::After(d) => start.elapsed() < d,
        }
    }
}

/// What one phase did and saw.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    /// Typed errors + wrong answers + arrivals never drained.
    pub failed: u64,
    /// Verified rows completed in each tenth of an `After` phase.
    pub slice_rows: [u64; SLICES],
    /// Verified answers only. Closed/sync: submit → harvest. Open loop: due
    /// time → harvest.
    pub lat_us: Vec<f64>,
    /// Open loop: due time → submit.
    pub gen_lag_us: Vec<f64>,
    /// `swap_model` call times.
    pub write_us: Vec<f64>,
    /// Peak RSS read when the phase had completed `rss_after` requests.
    pub rss_mb: Option<f64>,
}

impl Phase {
    /// Median over the phase's slices of verified rows per second: one
    /// stalled slice does not move it, a slower system moves every slice.
    pub fn rows_per_s(&self, slice: Duration) -> f64 {
        let mut per_s: Vec<f64> =
            self.slice_rows.iter().map(|&r| r as f64 / slice.as_secs_f64()).collect();
        crate::stats::median(&mut per_s)
    }

    /// Throughput of the last slice over the first: in-process decay.
    pub fn last_first_ratio(&self) -> f64 {
        self.slice_rows[SLICES - 1] as f64 / self.slice_rows[0].max(1) as f64
    }

    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

struct Inflight {
    req: Request,
    /// Reference instant for latency, ns since phase start.
    t0_ns: u64,
    /// Weight variant installed when the read was submitted.
    variant: usize,
    /// A swap of this model was issued while the read was in flight, so
    /// either variant's answer is right.
    ambiguous: bool,
}

fn answer_ok(model: &Model, f: &Inflight, classes: &[u32]) -> bool {
    let matches = |variant| model.answers(variant, &f.req, classes.iter().map(|&c| c as u64));
    matches(f.variant) || (f.ambiguous && matches(f.variant ^ 1))
}

/// Tracks in-flight requests and scores completions for every loop.
struct Scoreboard<'a> {
    models: &'a [Model],
    inflight: HashMap<Ticket, Inflight>,
    phase: Phase,
    slice_ns: Option<u64>,
    /// Completions after which peak RSS is read; `After` phases only.
    rss_after: usize,
}

impl<'a> Scoreboard<'a> {
    fn new(models: &'a [Model], stop: Stop, rss_after: usize) -> Self {
        let slice_ns = match stop {
            Stop::After(d) => Some((d.as_nanos() as u64 / SLICES as u64).max(1)),
            Stop::Count(_) => None,
        };
        let phase = Phase::default();
        Scoreboard { models, inflight: HashMap::new(), phase, slice_ns, rss_after }
    }

    /// Counts a failure and says what failed, for the first few.
    fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        self.phase.failed += 1;
        if self.phase.failed <= 5 {
            eprintln!("lake-e2e: failed: {what}");
        }
    }

    /// Ends the phase: whatever never completed (`unsent` arrivals included)
    /// failed.
    fn finish(mut self, unsent: usize) -> Phase {
        let undrained = self.inflight.len() + unsent;
        if undrained > 0 {
            eprintln!("lake-e2e: failed: {undrained} requests never completed");
        }
        self.phase.failed += undrained as u64;
        self.phase
    }

    fn settle(&mut self, done: Done, now_ns: u64) {
        let (ticket, result) = done;
        match self.inflight.remove(&ticket) {
            Some(f) => self.score(&f, result, now_ns),
            None => self.fail(format_args!("completion for unknown ticket {ticket:?}")),
        }
    }

    fn score(&mut self, f: &Inflight, result: Result<Vec<u32>, LakeError>, now_ns: u64) {
        let model = &self.models[f.req.model as usize];
        match result {
            Err(e) => return self.fail(format_args!("{:?}: {e}", f.req)),
            Ok(classes) if !answer_ok(model, f, &classes) => {
                return self.fail(format_args!("{:?}: wrong classes {classes:?}", f.req));
            }
            Ok(_) => {}
        }
        self.phase.lat_us.push((now_ns.saturating_sub(f.t0_ns)) as f64 / 1e3);
        if self.slice_ns.is_some() && self.phase.lat_us.len() == self.rss_after {
            self.phase.rss_mb = Some(crate::stats::peak_rss_mb());
        }
        if let Some(slice_ns) = self.slice_ns {
            if let Some(bin) = self.phase.slice_rows.get_mut((now_ns / slice_ns) as usize) {
                *bin += f.req.rows as u64;
            }
        }
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Swaps interleaved with a closed loop's reads.
pub struct Swaps {
    pub every: usize,
    /// Variant currently installed per model; flips on every acked swap.
    pub installed: Vec<usize>,
    next_model: usize,
}

impl Swaps {
    pub fn new(every: usize, models: usize) -> Self {
        Swaps { every, installed: vec![0; models], next_model: 0 }
    }
}

/// Closed loop: keeps `window` requests in flight through
/// `submit → flush → poll`, yielding the core when a poll comes back empty.
pub fn closed_loop(
    spec: &Spec,
    target: &dyn Target,
    models: &[Model],
    gen: &mut Generator,
    stop: Stop,
    mut swaps: Option<&mut Swaps>,
) -> Phase {
    let window = spec.window();
    let mut board = Scoreboard::new(models, stop, spec.rss_after);
    let start = Instant::now();
    let mut submitted = 0usize;
    while stop.more(submitted, start) {
        let mut any = false;
        while board.inflight.len() < window && stop.more(submitted, start) {
            let req = gen.next();
            let model = &models[req.model as usize];
            board.phase.attempted += 1;
            submitted += 1;
            let variant = swaps.as_ref().map_or(0, |s| s.installed[req.model as usize]);
            match target.submit(&req, model) {
                Ok(ticket) => {
                    let f = Inflight { req, t0_ns: ns(start), variant, ambiguous: false };
                    board.inflight.insert(ticket, f);
                    any = true;
                }
                Err(e) => board.fail(format_args!("submit {req:?}: {e}")),
            }
            if let Some(s) = swaps.as_deref_mut() {
                if submitted.is_multiple_of(s.every) {
                    swap_one(target, models, s, &mut board, start);
                }
            }
        }
        if any {
            target.flush();
        }
        let done = target.poll();
        if done.is_empty() {
            std::thread::yield_now();
            continue;
        }
        let now = ns(start);
        done.into_iter().for_each(|d| board.settle(d, now));
    }
    let rest = target.drain();
    let now = ns(start);
    rest.into_iter().for_each(|d| board.settle(d, now));
    board.finish(0)
}

/// One synchronous `swap_model` of the next model round-robin. Reads of that
/// model still in flight may legitimately see either variant.
fn swap_one(
    target: &dyn Target,
    models: &[Model],
    s: &mut Swaps,
    board: &mut Scoreboard<'_>,
    start: Instant,
) {
    let index = s.next_model;
    s.next_model = (index + 1) % models.len();
    let next = s.installed[index] ^ 1;
    board
        .inflight
        .values_mut()
        .filter(|f| f.req.model as usize == index)
        .for_each(|f| f.ambiguous = true);
    board.phase.attempted += 1;
    let t0 = ns(start);
    match target.swap(index, &models[index].blobs[next]) {
        Ok(_) => {
            board.phase.write_us.push((ns(start) - t0) as f64 / 1e3);
            s.installed[index] = next;
        }
        Err(e) => board.fail(format_args!("swap_model of model {index}: {e}")),
    }
}

/// Open loop: submits each arrival when it falls due, all due arrivals then
/// one flush, and times every answer from its due time.
pub fn paced_loop(target: &dyn Target, models: &[Model], schedule: &[Request]) -> Phase {
    let horizon = schedule.last().map_or(0, |r| r.due_ns);
    // Peak RSS is read in the closed phase only (0 is never a sample count).
    let mut board = Scoreboard::new(models, Stop::After(Duration::from_nanos(horizon.max(1))), 0);
    let give_up = horizon + PACED_GRACE.as_nanos() as u64;
    let start = Instant::now();
    let mut next = 0;
    while next < schedule.len() || !board.inflight.is_empty() {
        let now = ns(start);
        if now > give_up {
            break;
        }
        let first = next;
        while next < schedule.len() && schedule[next].due_ns <= now {
            let req = schedule[next];
            next += 1;
            board.phase.attempted += 1;
            match target.submit(&req, &models[req.model as usize]) {
                Ok(ticket) => {
                    board.phase.gen_lag_us.push((ns(start) - req.due_ns) as f64 / 1e3);
                    let f = Inflight { req, t0_ns: req.due_ns, variant: 0, ambiguous: false };
                    board.inflight.insert(ticket, f);
                }
                Err(e) => board.fail(format_args!("submit {req:?}: {e}")),
            }
        }
        if next > first {
            target.flush();
        }
        let done = target.poll();
        if !done.is_empty() {
            let now = ns(start);
            done.into_iter().for_each(|d| board.settle(d, now));
        }
    }
    board.phase.attempted += (schedule.len() - next) as u64;
    board.finish(schedule.len() - next)
}

/// The warm-up every fresh deployment serves before anything is timed:
/// `spec.warmup` requests through the workload's own loop.
pub fn warm_up(
    spec: &Spec,
    target: &dyn Target,
    models: &[Model],
    gen: &mut Generator,
    swaps: Option<&mut Swaps>,
) -> Phase {
    let stop = Stop::Count(spec.warmup);
    match spec.traffic {
        Traffic::Sync => sync_loop(spec, target, models, gen, stop),
        _ => closed_loop(spec, target, models, gen, stop, swaps),
    }
}

/// One synchronous call in flight.
pub fn sync_loop(
    spec: &Spec,
    target: &dyn Target,
    models: &[Model],
    gen: &mut Generator,
    stop: Stop,
) -> Phase {
    let mut board = Scoreboard::new(models, stop, spec.rss_after);
    let start = Instant::now();
    let mut calls = 0usize;
    while stop.more(calls, start) {
        let req = gen.next();
        calls += 1;
        board.phase.attempted += 1;
        let f = Inflight { req, t0_ns: ns(start), variant: 0, ambiguous: false };
        let result = target.infer(&req, &models[req.model as usize]);
        board.score(&f, result, ns(start));
    }
    board.finish(0)
}
