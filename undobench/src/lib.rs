//! `undobench` — the PIVOT undo system's benchmark.
//!
//! One command runs one of three workloads for a fixed time and prints its
//! end-to-end metrics (untraced) or its per-layer metrics (traced) as one
//! JSON line. Each workload repeats whole *rounds* of fixed, seeded work
//! until the timed phase has lasted `--seconds`; every round does the same
//! operations with the same outputs, which the run checks against
//! computations made apart from the code under test. See `README.md`.

pub mod common;
pub mod layers;
pub mod search_walk;
pub mod serve_mixed;
pub mod undo_cascade;

use common::{mix, peak_rss_mb, quantile, Args, Checks, Metric, RunResult, END_TO_END, PER_LAYER};
use layers::Layers;
use std::time::Instant;

/// Set-ups timed before the first round; the last one's build is run.
pub const SETUP_MIN_REPS: usize = 5;
/// After every round, set-up is timed again (and its build dropped) until
/// this many seconds have passed, once at least. `setup_s` is the median
/// of every sample. The machine's speed changes by a third over spells of
/// a second or so, so samples taken only before the first round scatter
/// from run to run by as much; spread over the run they weigh its slow and
/// fast spells as the timed phase does.
pub const SETUP_GAP_S: f64 = 0.1;

/// What one round's timed phase did.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Ops completed.
    pub ops: usize,
    /// Latency of every completed op, milliseconds (not sampled in traced
    /// rounds).
    pub op_ms: Vec<f64>,
    /// Ops attempted that failed.
    pub failed: u64,
    /// Wall time of the timed phase, seconds.
    pub timed_s: f64,
    /// Process CPU time during the timed phase, seconds.
    pub cpu_s: f64,
}

/// A workload: set-up, then rounds of identical seeded work.
pub trait Workload: Sized {
    /// Build every session, history and request script the timed phase
    /// needs. `layers` receives `setup.build_ms` and `setup.apply_ms`.
    fn setup(seed: u64, layers: &mut Layers) -> std::io::Result<Self>;

    /// Run round `r`. With `trace`, time every layer into it. Correctness
    /// checks run outside the timed phase and land in `checks`.
    fn round(&mut self, r: usize, trace: Option<&mut Layers>, checks: &mut Checks) -> RoundOut;

    /// Lines worth reading beside the metrics (printed before the result).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Run `W` as `args` asks and collect the result line.
pub fn run<W: Workload>(args: &Args) -> std::io::Result<(RunResult, Checks)> {
    let mut checks = Checks::default();
    let mut setups: Vec<(f64, Layers)> = Vec::new();
    // One timed set-up; its seconds and its build.
    let time_setup = |setups: &mut Vec<(f64, Layers)>| -> std::io::Result<(f64, W)> {
        let mut l = Layers::default();
        let t0 = Instant::now();
        let b = W::setup(mix(args.seed, 0x5e7, 0), &mut l)?;
        let s = t0.elapsed().as_secs_f64();
        setups.push((s, l));
        Ok((s, b))
    };
    let mut bench = None;
    for _ in 0..SETUP_MIN_REPS {
        // Drop the previous build first so peak memory holds one set-up.
        drop(bench.take());
        bench = Some(time_setup(&mut setups)?.1);
    }
    let Some(mut bench) = bench else {
        unreachable!("SETUP_MIN_REPS > 0");
    };

    let mut op_ms = Vec::new();
    let (mut ops, mut failed, mut timed_s, mut cpu_s) = (0usize, 0u64, 0.0f64, 0.0f64);
    let mut traced = Layers::default();
    let (mut plain_ops, mut plain_s, mut traced_ops, mut traced_s, mut traced_rounds) =
        (0usize, 0.0f64, 0usize, 0.0f64, 0usize);
    let mut r = 0usize;
    let mut peak_rss = 0.0f64;
    // Traced runs alternate untraced and traced rounds (two at least), so
    // the tracing overhead is measured inside the run.
    while timed_s < args.seconds as f64 || (args.trace && r < 2) {
        let tracing = args.trace && r % 2 == 1;
        let out = bench.round(r, tracing.then_some(&mut traced), &mut checks);
        if tracing {
            traced_ops += out.ops;
            traced_s += out.timed_s;
            traced_rounds += 1;
        } else {
            plain_ops += out.ops;
            plain_s += out.timed_s;
        }
        ops += out.ops;
        failed += out.failed;
        timed_s += out.timed_s;
        cpu_s += out.cpu_s;
        op_ms.extend(out.op_ms);
        r += 1;
        if r == 1 {
            // Later rounds repeat the first; the set-up samples below hold
            // a second build beside the run's and are not the run's memory.
            peak_rss = peak_rss_mb();
        }
        let mut spent = 0.0;
        while spent < SETUP_GAP_S {
            spent += time_setup(&mut setups)?.0;
        }
    }
    // The median set-up, and its layer split.
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mid = setups.len() / 2;
    let (setup_s, setup_layers) = setups.swap_remove(mid);
    checks.check(ops > 0, || "the timed phase completed no op".to_string());

    let metrics = if args.trace {
        traced.scale(1.0 / traced_rounds.max(1) as f64);
        traced.set("setup.build_ms", setup_layers.get("setup.build_ms"));
        traced.set("setup.apply_ms", setup_layers.get("setup.apply_ms"));
        traced.set("trace.rounds", traced_rounds as f64);
        let plain_rate = plain_ops as f64 / plain_s.max(1e-9);
        let traced_rate = traced_ops as f64 / traced_s.max(1e-9);
        traced.set("trace.untraced_ops_per_s", plain_rate);
        traced.set("trace.traced_ops_per_s", traced_rate);
        traced.set(
            "trace.overhead_pct",
            (plain_rate / traced_rate.max(1e-9) - 1.0) * 100.0,
        );
        traced.finish();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: traced.get(name),
            })
            .collect()
    } else {
        let mut value = |name: &str| -> f64 {
            match name {
                "setup_s" => setup_s,
                "ops_per_s" => ops as f64 / timed_s.max(1e-9),
                "op_p50_ms" => quantile(&mut op_ms, 0.5),
                "op_p99_ms" => quantile(&mut op_ms, 0.99),
                "cpu_ms_per_op" => cpu_s * 1e3 / ops.max(1) as f64,
                "peak_rss_mb" => peak_rss,
                _ => unreachable!("END_TO_END names are matched above"),
            }
        };
        let mut ms = Vec::new();
        for &(name, unit) in &END_TO_END {
            ms.push(Metric {
                name,
                unit,
                value: value(name),
            });
        }
        ms
    };
    Ok((
        RunResult {
            correct: checks.passed(),
            attempted: ops as u64 + failed,
            failed,
            metrics,
            notes: bench.notes(),
        },
        checks,
    ))
}

/// Dispatch on the workload name.
pub fn run_named(args: &Args) -> std::io::Result<(RunResult, Checks)> {
    match args.workload.as_str() {
        "search_walk" => run::<search_walk::SearchWalk>(args),
        "undo_cascade" => run::<undo_cascade::UndoCascade>(args),
        "serve_mixed" => run::<serve_mixed::ServeMixed>(args),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload `{other}`"),
        )),
    }
}
