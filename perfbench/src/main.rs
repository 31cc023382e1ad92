//! Closed-loop benchmark of the tutorial's loop: identify suspect rows with
//! data importance, debug them through the provenance-instrumented
//! pipeline, and monitor incoming data for errors.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is one client that waits for every result. A run sets up
//! the inputs from the seed, builds the first actionable answer, then
//! repeats the workload's step for `--seconds`. Every step's outputs are
//! checked and hashed outside the timed region; the first steps are then
//! replayed with one worker thread and with tracing toggled, and their
//! digests must match. With `--trace 0` the last stdout line carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics taken from
//! benchmark-side spans around every call into a workspace crate.

mod layers;
mod report;
mod stats;
mod workloads;

use layers::Phase;
use report::{kdtree_counters, per_layer, print_self_times, render_json, Outcome};
use stats::{median, percentile, steadiest_window_percentile, Digest};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Upper bound on worker threads (`NDE_THREADS`), capped by the cores present.
const MAX_THREADS: usize = 2;
/// Set-ups and first-result builds per run, spread evenly over the loop;
/// `setup_s` and `first_result_s` are their medians.
const REPEATS: usize = 10;
/// Steps the loop runs at least, so `step_p90_ms` has ten samples beyond
/// it; the loop still stops at four times `--seconds`.
const MIN_STEPS: usize = 100;
/// Consecutive steps per window of `step_p90_ms`: each window's p90 has
/// ten samples beyond it, and the metric is the lowest window's p90.
const P90_WINDOW: usize = 100;
/// Leading steps hashed into the run digest and replayed for the
/// thread-count and tracing checks.
const REPLAY_STEPS: usize = 10;
/// Every this many steps the expensive (sampled) checks run.
const SAMPLE_EVERY: usize = 10;

/// One benchmark workload: a closed loop of identical steps over seeded
/// inputs.
pub trait Workload {
    /// Generated (and error-injected) inputs.
    type Inputs;
    /// Fitted models, caches and the outputs of the latest step.
    type State;

    /// Work items one step completes (rows re-ranked, rows attributed,
    /// rows monitored, queries answered).
    const ROWS_PER_STEP: f64;

    /// Generates and injects the inputs.
    fn setup(seed: u64) -> Result<Self::Inputs, String>;
    /// One-line statement of the input sizes.
    fn describe(inputs: &Self::Inputs) -> String;
    /// One-time fits and cache builds, up to the first actionable answer.
    fn start(inputs: &Self::Inputs) -> Result<Self::State, String>;
    /// One timed step.
    fn step(inputs: &Self::Inputs, state: &mut Self::State) -> Result<(), String>;
    /// Untimed: checks the step just taken and hashes its outputs. The
    /// digest must not depend on `sampled`, which adds the costlier checks.
    fn observe(
        inputs: &Self::Inputs,
        state: &mut Self::State,
        digest: &mut Digest,
        sampled: bool,
    ) -> Result<(), String>;
    /// Per-layer metrics the workload computes itself.
    fn layer_metrics(_inputs: &Self::Inputs, _state: &Self::State) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Sets the worker count the workspace's fan-outs read on every call.
/// Called only between steps, while no worker thread runs.
fn set_threads(n: usize) {
    std::env::set_var("NDE_THREADS", n.to_string());
}

/// Where the workspace's own trace records go: next to the benchmark
/// binary, inside the build directory.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.to_path_buf()))
        .unwrap_or_default();
    dir.join(format!("perfbench-trace-{workload}.jsonl"))
}

/// Turns program tracing (the workspace's own spans and counters) and the
/// benchmark's layer spans on or off.
fn set_tracing(on: bool, workload: &str) {
    if on {
        nde_trace::configure(nde_trace::Sink::Json, Some(&trace_path(workload)));
    } else {
        nde_trace::configure(nde_trace::Sink::Off, None);
    }
    layers::set_recording(on);
}

/// Peak resident set size of this process, in MiB (64-bit Linux).
fn peak_rss_mb() -> f64 {
    // Field layout of `struct rusage` on Linux: two `timeval`s, then
    // fourteen `long`s starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the C layout of
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.longs[0] as f64 / 1024.0
}

/// Generates the inputs once, timed, in the set-up phase.
fn timed_setup<W: Workload>(seed: u64, times: &mut Vec<f64>) -> Result<W::Inputs, String> {
    layers::set_phase(Phase::Setup);
    let _span = layers::span("bench.setup");
    let t0 = Instant::now();
    let inputs = W::setup(seed)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(inputs)
}

/// Builds the first actionable answer once, timed, in the start phase.
fn timed_start<W: Workload>(inputs: &W::Inputs, times: &mut Vec<f64>) -> Result<W::State, String> {
    layers::set_phase(Phase::Start);
    let _span = layers::span("bench.start");
    let t0 = Instant::now();
    let state = W::start(inputs)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(state)
}

/// Replays the first `steps` steps from a fresh start under the given
/// worker count and tracing setting; returns the digest and step times.
fn replay<W: Workload>(
    inputs: &W::Inputs,
    steps: usize,
    threads: usize,
    trace: bool,
    name: &str,
) -> Result<(Digest, Vec<f64>), String> {
    set_threads(threads);
    set_tracing(trace, name);
    let mut state = W::start(inputs)?;
    let mut digest = Digest::default();
    let mut times = Vec::with_capacity(steps);
    for i in 0..steps {
        let t0 = Instant::now();
        W::step(inputs, &mut state)?;
        times.push(t0.elapsed().as_secs_f64());
        let mut d = Digest::default();
        W::observe(
            inputs,
            &mut state,
            &mut d,
            trace || i.is_multiple_of(SAMPLE_EVERY),
        )?;
        digest.u64(d.value());
    }
    Ok((digest, times))
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    set_threads(threads);
    let _ = std::fs::remove_file(trace_path(name));
    set_tracing(args.trace, name);

    let mut setup_s = Vec::new();
    let mut first_s = Vec::new();
    let inputs = timed_setup::<W>(args.seed, &mut setup_s)?;
    let mut state = timed_start::<W>(&inputs, &mut first_s)?;

    layers::set_phase(Phase::Loop);
    let kdtree_before = kdtree_counters();
    let budget = Duration::from_secs_f64(args.seconds);
    let repeat_every = budget / REPEATS as u32;
    let mut next_repeat = repeat_every;
    let loop_start = Instant::now();
    let mut step_s: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let mut digest = Digest::default();
    let mut errors: Vec<String> = Vec::new();
    loop {
        let elapsed = loop_start.elapsed();
        let enough = elapsed >= budget && step_s.len() >= MIN_STEPS;
        if enough || elapsed >= budget * 4 {
            break;
        }
        if elapsed >= next_repeat && setup_s.len() < REPEATS {
            // Set-up and first result are sampled across the whole run, so
            // their medians do not hinge on one moment of a shared machine.
            drop(timed_setup::<W>(args.seed, &mut setup_s)?);
            drop(timed_start::<W>(&inputs, &mut first_s)?);
            layers::set_phase(Phase::Loop);
            next_repeat += repeat_every;
        }
        let i = step_s.len();
        let step_span = layers::span("bench.step");
        let t0 = Instant::now();
        let stepped = W::step(&inputs, &mut state);
        step_s.push(t0.elapsed().as_secs_f64());
        drop(step_span);
        let mut d = Digest::default();
        let sampled = args.trace || i.is_multiple_of(SAMPLE_EVERY);
        if let Err(e) = stepped.and_then(|()| W::observe(&inputs, &mut state, &mut d, sampled)) {
            failed += 1;
            if errors.len() < 5 {
                errors.push(format!("step {i}: {e}"));
            }
        }
        if i < REPLAY_STEPS {
            digest.u64(d.value());
        }
    }
    let loop_wall_s = loop_start.elapsed().as_secs_f64();
    let kdtree_after = kdtree_counters();
    let peak_rss = peak_rss_mb();
    let mut extra = W::layer_metrics(&inputs, &state);
    let queries = kdtree_after.0.saturating_sub(kdtree_before.0).max(1);
    let points = kdtree_after.1.saturating_sub(kdtree_before.1);
    extra.push((
        "learners.kdtree_points_per_query",
        points as f64 / queries as f64,
    ));
    drop(state);

    // Replays: one worker thread, and tracing toggled.
    layers::set_phase(Phase::Verify);
    let replayed = step_s.len().min(REPLAY_STEPS);
    let single = replay::<W>(&inputs, replayed, 1, args.trace, name);
    let toggled = replay::<W>(&inputs, replayed, threads, !args.trace, name);
    set_threads(threads);
    set_tracing(false, name);
    let mut replay_line = format!("digest {:016x}", digest.value());
    for (label, result) in [("NDE_THREADS=1", &single), ("tracing toggled", &toggled)] {
        match result {
            Ok((d, _)) if *d == digest => {
                let _ = write!(replay_line, "; {label}: match");
            }
            Ok((d, _)) => {
                failed += 1;
                let _ = write!(replay_line, "; {label}: MISMATCH {:016x}", d.value());
            }
            Err(e) => {
                failed += 1;
                let _ = write!(replay_line, "; {label}: ERROR {e}");
            }
        }
    }

    let steps = step_s.len();
    let attempted = steps as u64;
    println!(
        "workload {name}: seed {}, {threads} worker thread(s), closed loop with 1 client, {}",
        args.seed,
        W::describe(&inputs)
    );
    println!(
        "{steps} steps in {loop_wall_s:.2} s (p90 of the steadiest of {} window(s) of at \
         least {P90_WINDOW} steps); {replay_line}",
        (steps / P90_WINDOW).max(1)
    );
    for e in &errors {
        eprintln!("perfbench: {name}: {e}");
    }

    let metrics = if args.trace {
        // Traced over untraced time of the same leading steps.
        let overhead = match &toggled {
            Ok((_, untraced)) if !untraced.is_empty() => {
                median(&step_s[..replayed]) / median(untraced)
            }
            _ => 0.0,
        };
        extra.push(("trace.overhead_ratio", overhead));
        print_self_times(name);
        per_layer(&extra)
    } else {
        let loop_time: f64 = step_s.iter().sum();
        vec![
            (
                "rows_per_s",
                W::ROWS_PER_STEP * steps as f64 / loop_time,
                "rows/s",
            ),
            ("first_result_s", median(&first_s), "s"),
            ("step_p50_ms", 1e3 * percentile(&step_s, 0.5), "ms"),
            (
                "step_p90_ms",
                1e3 * steadiest_window_percentile(&step_s, P90_WINDOW, 0.9),
                "ms",
            ),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss, "MiB"),
            (
                "ok_frac",
                (1.0 - failed as f64 / attempted as f64).max(0.0),
                "ratio",
            ),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run_named(&args) {
        Some(Ok(outcome)) => outcome,
        Some(Err(e)) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!(
                "perfbench: unknown workload {:?} (one of {})",
                args.workload,
                workloads::NAMES.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("{}", render_json(&outcome));
    ExitCode::SUCCESS
}
