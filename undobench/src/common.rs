//! Shared plumbing: arguments, metric catalog, result line, correctness
//! checks, statistics, process accounting, scratch directories and the
//! per-run time limit.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["search_walk", "undo_cascade", "serve_mixed"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A layer
/// a workload does not exercise reads 0 there. Times and counts are per
/// round (one pass over the workload's fixed seeded work), so counts
/// repeat exactly from run to run.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("search.proposals", "count"),
    ("search.work_moves", "count"),
    ("search.useful_ratio", "ratio"),
    ("search.wall_ms", "ms"),
    ("search.residual_ms", "ms"),
    ("catalog.find_calls", "count"),
    ("catalog.find_ms", "ms"),
    ("catalog.opps_per_find", "count"),
    ("engine.apply_calls", "count"),
    ("engine.apply_us_p50", "us"),
    ("engine.apply_ms", "ms"),
    ("txn.checkpoint_calls", "count"),
    ("txn.checkpoint_us_p50", "us"),
    ("txn.checkpoint_ms", "ms"),
    ("txn.reject_calls", "count"),
    ("txn.reject_us_p50", "us"),
    ("txn.reject_ms", "ms"),
    ("txn.reject_fallbacks", "count"),
    ("txn.rollback_calls", "count"),
    ("txn.rollback_ms", "ms"),
    ("interp.score_ms", "ms"),
    ("interp.steps", "count"),
    ("undo.calls", "count"),
    ("undo.ms", "ms"),
    ("undo.cascade_len_mean", "count"),
    ("undo.affecting_chase_ms", "ms"),
    ("undo.reversibility_check_ms", "ms"),
    ("undo.region_scan_ms", "ms"),
    ("undo.safety_check_ms", "ms"),
    ("undo.inverse_action_ms", "ms"),
    ("undo.rep_rebuild_ms", "ms"),
    ("undo.candidates_considered", "count"),
    ("undo.safety_checks", "count"),
    ("undo.reversibility_checks", "count"),
    ("undo.affecting_chases", "count"),
    ("undo.rep_rebuilds", "count"),
    ("undo.affected_yield", "ratio"),
    ("undo.wall_ms", "ms"),
    ("undo.residual_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("setup.apply_ms", "ms"),
    ("serve.ping_ms_p50", "ms"),
    ("serve.open_ms_p50", "ms"),
    ("serve.apply_ms_p50", "ms"),
    ("serve.undo_ms_p50", "ms"),
    ("serve.undo_reverse_to_ms_p50", "ms"),
    ("serve.explain_ms_p50", "ms"),
    ("serve.source_ms_p50", "ms"),
    ("serve.fingerprint_ms_p50", "ms"),
    ("serve.checkpoint_ms_p50", "ms"),
    ("serve.audit_ms_p50", "ms"),
    ("serve.server_request_us_p50", "us"),
    ("serve.requests", "count"),
    ("serve.client_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("journal.bytes_per_op", "bytes"),
    ("journal.compactions", "count"),
    ("replica.engine_ms", "ms"),
    ("trace.rounds", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Hard wall-clock limit on one run, set-up and checks included. A run that
/// reaches it removes its scratch directories and exits with code 124.
pub const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

/// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&val.as_str()) {
                    return Err(format!(
                        "unknown workload `{val}` (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(val.clone());
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be between 1 and 120".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// Correctness checks of one run. Every failed check is kept with its
/// message; a run with any failure reports `correct: false` and exits
/// non-zero.
#[derive(Default, Debug)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// Messages of the failed checks (the first few are printed).
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `msg` is built only when it fails.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        self.run += 1;
        if !ok {
            self.failures.push(msg());
        }
        ok
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of a run: the last line of standard output.
#[derive(Debug)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// Workload-specific lines for a human reader (not part of the JSON).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of the metrics.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<32} {:>16} {}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out
    }
}

/// Render a float with all its digits (integers without a fraction).
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Value of `q` (0..=1) in `v` by the nearest-rank rule; 0 when empty.
/// Sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// This process's `getrusage(RUSAGE_SELF)` (all threads, the in-process
/// daemon included); `None` when the call fails.
fn rusage() -> Option<Rusage> {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the C layout of Linux's 64-bit `struct rusage`
    // (two `timeval`s followed by fourteen `long`s), the pointer is to a
    // live, writable value, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    (rc == 0).then_some(ru)
}

/// User plus system CPU time of this process, seconds. One system call and
/// nothing else, so it can bracket single ops.
pub fn cpu_s() -> f64 {
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    rusage().map_or(0.0, |ru| secs(&ru.utime) + secs(&ru.stime))
}

/// Peak resident set size of this process image, MiB, from `VmHWM` in
/// `/proc/self/status`. Unlike `ru_maxrss`, which survives `exec` and so
/// reports the launcher's peak when that is larger (about 15 MiB under
/// Python, 26 MiB under `cargo run`), `VmHWM` starts afresh with the
/// process's own address space. Read once per run.
pub fn peak_rss_mb() -> f64 {
    let vm_hwm_kib = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    // Both are in KiB.
    vm_hwm_kib().unwrap_or_else(|| rusage().map_or(0.0, |ru| ru.maxrss as f64)) / 1024.0
}

/// Scratch directories still on disk, removed by the time-limit watchdog
/// before it exits.
static LIVE_DIRS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Parent of every scratch directory, inside the working directory.
pub const SCRATCH_ROOT: &str = ".undobench_tmp";

/// A per-run scratch directory under [`SCRATCH_ROOT`] with a unique name
/// (process id, clock and a counter), removed when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create a fresh directory; `tag` names its use.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let root = std::env::current_dir()?.join(SCRATCH_ROOT);
        std::fs::create_dir_all(&root)?;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let path = root.join(format!(
            "{tag}-{}-{nanos}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir(&path)?;
        LIVE_DIRS
            .lock()
            .expect("scratch-dir registry poisoned")
            .push(path.clone());
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Ok(mut live) = LIVE_DIRS.lock() {
            live.retain(|p| p != &self.path);
        }
        // Removes the parent only once no other run is using it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Start the watchdog that ends the process after `limit`, removing the
/// scratch directories first.
pub fn arm_time_limit(limit: Duration) {
    std::thread::Builder::new()
        .name("undobench-limit".into())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!("undobench: run exceeded its {}s limit", limit.as_secs());
            if let Ok(live) = LIVE_DIRS.lock() {
                for p in live.iter() {
                    let _ = std::fs::remove_dir_all(p);
                    if let Some(parent) = p.parent() {
                        let _ = std::fs::remove_dir(parent);
                    }
                }
            }
            std::process::exit(124);
        })
        .expect("spawn the time-limit watchdog");
}

/// Generator seed of every workload's program ladder. The programs are the
/// same in every run, so runs with different `--seed`s differ only in what
/// the workload does with them (walk draws, undo targets, script choices);
/// a run's figures then vary little with its seed.
pub const PROGRAM_SEED: u64 = 0x1994_0dd5;

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn args_round_trip_and_reject_garbage() {
        let argv: Vec<String> = "--workload undo_cascade --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("valid arguments");
        assert_eq!(a.workload, "undo_cascade");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_mixed --seed x --seconds 1 --trace 0",
            "--workload serve_mixed --seed 1 --seconds 0 --trace 0",
            "--workload serve_mixed --seed 1 --seconds 1 --trace 2",
            "--workload serve_mixed --seed 1",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn result_line_is_json() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: 12.0,
            }],
            notes: Vec::new(),
        };
        let v = pivot_obs::json::parse(&r.to_json()).expect("result line parses");
        assert_eq!(v.get("attempted").and_then(|a| a.as_int()), Some(3));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("ops_per_s"))
                .and_then(|m| m.get("unit"))
                .and_then(|u| u.as_str()),
            Some("1/s")
        );
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed() {
        let a = ScratchDir::new("t").expect("scratch dir");
        let b = ScratchDir::new("t").expect("scratch dir");
        assert_ne!(a.path(), b.path());
        let pa = a.path().to_path_buf();
        drop(a);
        assert!(!pa.exists());
        assert!(b.path().exists());
    }
}
