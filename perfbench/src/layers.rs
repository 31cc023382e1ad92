//! Benchmark-side layer spans: every call the benchmark makes into a
//! workspace crate's public function is wrapped in a span named after the
//! per-layer metric it feeds (`learners.encode_s`, `pipeline.run_s`, ...).
//!
//! Spans live in memory on the benchmark's own thread and are aggregated
//! per [`Phase`]: count, inclusive time and self time (inclusive time
//! minus the time covered by nested spans). With recording off a span
//! reads no clock, so the untraced run measures the program alone.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The part of a run a span belongs to. Per-layer metrics are reported
/// per occurrence of the phase the work runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Generating and injecting the inputs.
    Setup,
    /// One-time fits and cache builds up to the first actionable answer.
    Start,
    /// The measured closed loop of steps.
    Loop,
    /// Digest replays after the loop; never reported.
    Verify,
}

/// Aggregate of one span name within one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed inclusive time.
    pub total: Duration,
    /// Summed self time (inclusive minus nested spans).
    pub self_time: Duration,
}

struct Open {
    name: &'static str,
    start: Instant,
    child: Duration,
}

struct Recorder {
    on: bool,
    phase: Phase,
    stack: Vec<Open>,
    spans: BTreeMap<(Phase, &'static str), Agg>,
    counts: BTreeMap<(Phase, &'static str), f64>,
}

thread_local! {
    static REC: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            on: false,
            phase: Phase::Setup,
            stack: Vec::new(),
            spans: BTreeMap::new(),
            counts: BTreeMap::new(),
        })
    };
}

/// Turns span and count recording on or off.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Attributes subsequent spans and counts to `phase`.
pub fn set_phase(phase: Phase) {
    REC.with(|r| r.borrow_mut().phase = phase);
}

/// An open span; closes when dropped.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    active: bool,
}

/// Opens a span named `name` (no-op while recording is off).
pub fn span(name: &'static str) -> Span {
    let active = REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.stack.push(Open {
                name,
                start: Instant::now(),
                child: Duration::ZERO,
            });
        }
        r.on
    });
    Span { active }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(open) = r.stack.pop() else { return };
            let total = open.start.elapsed();
            if let Some(parent) = r.stack.last_mut() {
                parent.child += total;
            }
            let key = (r.phase, open.name);
            let agg = r.spans.entry(key).or_default();
            agg.count += 1;
            agg.total += total;
            agg.self_time += total.saturating_sub(open.child);
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

/// Adds `n` to the count `name` (no-op while recording is off).
pub fn count(name: &'static str, n: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            let key = (r.phase, name);
            *r.counts.entry(key).or_default() += n;
        }
    });
}

/// The aggregate of span `name` in `phase`, if any closed.
pub fn agg(phase: Phase, name: &'static str) -> Option<Agg> {
    REC.with(|r| r.borrow().spans.get(&(phase, name)).copied())
}

/// The count `name` accumulated in `phase` (0 when never counted).
pub fn counted(phase: Phase, name: &'static str) -> f64 {
    REC.with(|r| {
        r.borrow()
            .counts
            .get(&(phase, name))
            .copied()
            .unwrap_or(0.0)
    })
}

/// Every span aggregate of `phase`, by name.
pub fn phase_spans(phase: Phase) -> Vec<(&'static str, Agg)> {
    REC.with(|r| {
        r.borrow()
            .spans
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|((_, n), a)| (*n, *a))
            .collect()
    })
}
