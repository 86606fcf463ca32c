//! `serve_mixed`: an in-process `pivot-serve` daemon on loopback TCP,
//! journaling to disk, driven by two closed-loop connections over disjoint
//! sessions with a precomputed script of reads and writes. An op is one
//! request and its reply.
//!
//! The scripts are computed at set-up by an in-process replica session per
//! script (no journal, no wire), which also fixes every expected reply. The
//! programs are fixed; `--seed` draws the kinds and targets of the script.

use crate::common::{cpu_s, mix, ms_since, Checks, ScratchDir, PROGRAM_SEED};
use crate::layers::Layers;
use crate::search_walk::outputs;
use crate::{RoundOut, Workload};
use pivot_obs::json::{self, ObjectWriter, Value};
use pivot_serve::{DaemonHandle, ServeConfig};
use pivot_undo::engine::Session;
use pivot_undo::{snapshot, Strategy, XformId, ALL_KINDS};
use pivot_workload::WorkloadCfg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Client connections (closed loop, one thread each).
pub const CONNS: usize = 2;
/// Sessions each connection drives per round, one after the other.
pub const SESSIONS_PER_CONN: usize = 3;
/// Enabling fragments of the program of each connection's i-th session.
pub const FRAGMENTS: [usize; SESSIONS_PER_CONN] = [6, 9, 12];
/// The daemon compacts a session's journal after this many commits.
pub const CHECKPOINT_EVERY: u64 = 4;

/// Op classes of a session script, in order, between its `open` and its
/// final `fingerprint` and `source`. An op that the session's state cannot
/// serve (no opportunity, nothing to undo or explain) becomes a `ping`.
pub const PATTERN: [Class; 20] = [
    Class::Apply,
    Class::Apply,
    Class::Ping,
    Class::Apply,
    Class::Source,
    Class::Apply,
    Class::Undo,
    Class::Explain,
    Class::Fingerprint,
    Class::Apply,
    Class::Apply,
    Class::Checkpoint,
    Class::Apply,
    Class::UndoReverseTo,
    Class::Ping,
    Class::Apply,
    Class::Undo,
    Class::Explain,
    Class::Audit,
    Class::Apply,
];

/// Request kinds of the script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `open`
    Open,
    /// `apply`
    Apply,
    /// `undo` (regional)
    Undo,
    /// `undo_reverse_to`
    UndoReverseTo,
    /// `explain`
    Explain,
    /// `source`
    Source,
    /// `fingerprint`
    Fingerprint,
    /// `ping`
    Ping,
    /// `checkpoint`
    Checkpoint,
    /// `audit`
    Audit,
}

impl Class {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Open => "open",
            Class::Apply => "apply",
            Class::Undo => "undo",
            Class::UndoReverseTo => "undo_reverse_to",
            Class::Explain => "explain",
            Class::Source => "source",
            Class::Fingerprint => "fingerprint",
            Class::Ping => "ping",
            Class::Checkpoint => "checkpoint",
            Class::Audit => "audit",
        }
    }

    fn p50_metric(self) -> &'static str {
        match self {
            Class::Open => "serve.open_ms_p50",
            Class::Apply => "serve.apply_ms_p50",
            Class::Undo => "serve.undo_ms_p50",
            Class::UndoReverseTo => "serve.undo_reverse_to_ms_p50",
            Class::Explain => "serve.explain_ms_p50",
            Class::Source => "serve.source_ms_p50",
            Class::Fingerprint => "serve.fingerprint_ms_p50",
            Class::Ping => "serve.ping_ms_p50",
            Class::Checkpoint => "serve.checkpoint_ms_p50",
            Class::Audit => "serve.audit_ms_p50",
        }
    }

    /// Requests that append to (or rewrite) the session's journal.
    fn writes_journal(self) -> bool {
        matches!(
            self,
            Class::Apply | Class::Undo | Class::UndoReverseTo | Class::Checkpoint
        )
    }
}

/// One scripted request and the reply it must get.
#[derive(Clone, Debug)]
pub struct Step {
    /// Request kind.
    pub class: Class,
    /// Kind abbreviation (apply) or target number (undo, undo_reverse_to,
    /// explain).
    pub arg: Arg,
    /// What the reply must carry.
    pub expect: Expect,
}

/// Request argument.
#[derive(Clone, Debug)]
pub enum Arg {
    /// No argument.
    None,
    /// A transformation kind.
    Kind(&'static str),
    /// A transformation number.
    Target(u32),
}

/// Expected reply content beyond `"ok": true`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Nothing more.
    Ok,
    /// `"xform"`: the new record's number.
    Xform(i64),
    /// `"undone"`: the removed records.
    Undone(Vec<i64>),
    /// A string field and its value.
    Text(&'static str, String),
    /// `"findings": 0`.
    NoFindings,
    /// `"compacted": true`.
    Compacted,
}

/// The script of one session.
pub struct Script {
    /// Program source the session opens with.
    pub source: String,
    /// Requests after `open`, the final `fingerprint` and `source` last.
    pub steps: Vec<Step>,
    /// The replica's final fingerprint (hex) and source.
    pub final_fp: String,
    /// The replica's final source.
    pub final_source: String,
    inputs: Vec<Vec<i64>>,
    expect_out: Vec<Option<Vec<i64>>>,
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Send one request line (a single write) and read its reply line.
    fn call(&mut self, line: &str) -> io::Result<(String, f64)> {
        let t0 = Instant::now();
        self.stream.write_all(line.as_bytes())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        Ok((reply, ms_since(t0)))
    }
}

/// One request as sent: class, latency, reply, journal bytes it wrote
/// (traced rounds only).
struct Sent {
    class: Class,
    ms: f64,
    reply: String,
    journal_bytes: u64,
}

/// The workload state.
pub struct ServeMixed {
    /// Scripts per connection.
    scripts: Vec<Vec<Script>>,
    daemon: Option<DaemonHandle>,
    clients: Vec<Client>,
    journal_dir: PathBuf,
    _dir: ScratchDir,
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
    }
}

fn session_name(r: usize, c: usize, i: usize) -> String {
    format!("r{r}c{c}s{i}")
}

/// Build the request line (newline included) for `step` on `session`.
fn request_line(session: &str, class: Class, arg: &Arg, source: &str) -> String {
    let mut w = ObjectWriter::new();
    w.str("req", class.name());
    if class != Class::Ping {
        w.str("session", session);
    }
    match (class, arg) {
        (Class::Open, _) => {
            w.str("source", source);
        }
        (_, Arg::Kind(k)) => {
            w.str("kind", k);
        }
        (Class::Undo, Arg::Target(t)) => {
            w.uint("target", u64::from(*t)).str("strategy", "regional");
        }
        (_, Arg::Target(t)) => {
            w.uint("target", u64::from(*t));
        }
        _ => {}
    }
    let mut line = w.finish();
    line.push('\n');
    line
}

/// Compute one session's script on an in-process replica: each op is
/// tried on a fork and kept only when it succeeds, so every scripted
/// request must succeed on the daemon too. `prog_seed` generates the
/// program, `seed` draws the kinds and targets.
pub fn make_script(prog_seed: u64, seed: u64, fragments: usize) -> Script {
    let cfg = WorkloadCfg {
        fragments,
        figure1_chains: 1,
        ..WorkloadCfg::default()
    };
    let start = pivot_workload::gen_program(prog_seed, &cfg);
    let source = pivot_lang::printer::to_source(&start);
    let mut s = Session::from_source(&source).expect("printed programs parse");
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5c41, 0));
    let mut steps = Vec::new();
    for &class in &PATTERN {
        steps.push(replica_step(&mut s, class, &mut rng));
    }
    let final_fp = format!("{:016x}", snapshot::fingerprint(&s));
    let final_source = s.source();
    steps.push(Step {
        class: Class::Fingerprint,
        arg: Arg::None,
        expect: Expect::Text("fingerprint", final_fp.clone()),
    });
    steps.push(Step {
        class: Class::Source,
        arg: Arg::None,
        expect: Expect::Text("source", final_source.clone()),
    });
    let inputs: Vec<Vec<i64>> = (0..2)
        .map(|k| pivot_workload::gen_inputs(mix(prog_seed, 0x10, k), 64))
        .collect();
    let expect_out = outputs(&start, &inputs);
    Script {
        source,
        steps,
        final_fp,
        final_source,
        inputs,
        expect_out,
    }
}

fn ping() -> Step {
    Step {
        class: Class::Ping,
        arg: Arg::None,
        expect: Expect::Text("pong", "pivot-serve".to_string()),
    }
}

fn ids(v: &[XformId]) -> Vec<i64> {
    v.iter().map(|x| i64::from(x.0)).collect()
}

/// Perform `class` on the replica `s` and return the step that reproduces
/// it on the daemon (a ping when the state cannot serve it).
fn replica_step(s: &mut Session, class: Class, rng: &mut StdRng) -> Step {
    match class {
        Class::Apply => {
            let mut kinds: Vec<_> = ALL_KINDS
                .iter()
                .copied()
                .filter(|&k| !s.find(k).is_empty())
                .collect();
            while !kinds.is_empty() {
                let k = kinds.swap_remove(rng.gen_range(0..kinds.len()));
                let opp = s.find(k)[0].clone();
                let mut f = s.fork();
                if f.apply(&opp).is_ok() {
                    let id = s.apply(&opp).expect("apply succeeded on a fork");
                    return Step {
                        class,
                        arg: Arg::Kind(k.abbrev()),
                        expect: Expect::Xform(i64::from(id.0)),
                    };
                }
            }
            ping()
        }
        Class::Undo | Class::UndoReverseTo => {
            let mut active: Vec<XformId> = s.history.active().map(|x| x.id).collect();
            if class == Class::UndoReverseTo {
                // The two newest records keep reverse-order undo short.
                let keep = active.len().min(2);
                active.drain(..active.len() - keep);
            }
            while !active.is_empty() {
                let t = active.swap_remove(rng.gen_range(0..active.len()));
                let mut f = s.fork();
                let ok = match class {
                    Class::Undo => f.undo(t, Strategy::Regional).is_ok(),
                    _ => f.undo_reverse_to(t).is_ok(),
                };
                if ok {
                    let rep = match class {
                        Class::Undo => s.undo(t, Strategy::Regional),
                        _ => s.undo_reverse_to(t),
                    }
                    .expect("undo succeeded on a fork");
                    return Step {
                        class,
                        arg: Arg::Target(t.0),
                        expect: Expect::Undone(ids(&rep.undone)),
                    };
                }
            }
            ping()
        }
        Class::Explain => {
            let explained: Vec<XformId> = s
                .history
                .records
                .iter()
                .map(|r| r.id)
                .filter(|&x| s.explain(x).is_some())
                .collect();
            if explained.is_empty() {
                return ping();
            }
            let t = explained[rng.gen_range(0..explained.len())];
            let text = s.explain(t).map(|tree| tree.render()).unwrap_or_default();
            Step {
                class,
                arg: Arg::Target(t.0),
                expect: Expect::Text("explanation", text),
            }
        }
        Class::Source => Step {
            class,
            arg: Arg::None,
            expect: Expect::Text("source", s.source()),
        },
        Class::Fingerprint => Step {
            class,
            arg: Arg::None,
            expect: Expect::Text("fingerprint", format!("{:016x}", snapshot::fingerprint(s))),
        },
        Class::Checkpoint => Step {
            class,
            arg: Arg::None,
            expect: Expect::Compacted,
        },
        Class::Audit => Step {
            class,
            arg: Arg::None,
            expect: Expect::NoFindings,
        },
        Class::Ping | Class::Open => ping(),
    }
}

/// Why `reply` does not satisfy `expect` (None when it does).
pub fn reply_mismatch(reply: &str, expect: &Expect) -> Option<String> {
    let v = match json::parse(reply.trim_end()) {
        Ok(v) => v,
        Err(e) => return Some(format!("unparsable reply ({e}): {reply}")),
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Some(format!("reply is not ok: {}", reply.trim_end()));
    }
    let ok = match expect {
        Expect::Ok => true,
        Expect::Xform(x) => v.get("xform").and_then(Value::as_int) == Some(*x),
        Expect::Undone(xs) => {
            let got: Option<Vec<i64>> = v
                .get("undone")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_int).collect());
            got.as_ref() == Some(xs)
        }
        Expect::Text(field, text) => v.get(field).and_then(Value::as_str) == Some(text.as_str()),
        Expect::NoFindings => v.get("findings").and_then(Value::as_int) == Some(0),
        Expect::Compacted => v.get("compacted").and_then(Value::as_bool) == Some(true),
    };
    (!ok).then(|| format!("expected {expect:?}, got {}", reply.trim_end()))
}

/// Bytes `path` gained since `prev` (size, inode); a rewritten file
/// (compaction renames a new inode in) counts whole.
fn journal_growth(path: &Path, prev: &mut (u64, u64)) -> u64 {
    let Ok(md) = std::fs::metadata(path) else {
        return 0;
    };
    let now = (md.len(), md.ino());
    let grew = if now.1 != prev.1 {
        now.0
    } else {
        now.0.saturating_sub(prev.0)
    };
    *prev = now;
    grew
}

/// Drive connection `c`'s scripts for round `r`.
fn drive(
    client: &mut Client,
    scripts: &[Script],
    r: usize,
    c: usize,
    journal_dir: &Path,
    traced: bool,
) -> io::Result<Vec<Sent>> {
    let mut sent = Vec::new();
    for (i, script) in scripts.iter().enumerate() {
        let name = session_name(r, c, i);
        let jpath = journal_dir.join(format!("{name}.journal"));
        let mut jstate = (0u64, 0u64);
        let open = std::iter::once((Class::Open, &Arg::None));
        for (class, arg) in open.chain(script.steps.iter().map(|s| (s.class, &s.arg))) {
            let line = request_line(&name, class, arg, &script.source);
            let (reply, ms) = client.call(&line)?;
            let journal_bytes = if traced && (class.writes_journal() || class == Class::Open) {
                journal_growth(&jpath, &mut jstate)
            } else {
                0
            };
            sent.push(Sent {
                class,
                ms,
                reply,
                journal_bytes,
            });
        }
    }
    Ok(sent)
}

/// Counters and the request histogram from the daemon's `/metrics.json`.
struct Scrape {
    requests: i64,
    request_sum_ns: i64,
    request_p50_ns: i64,
    checkpoints: i64,
}

fn scrape(d: &DaemonHandle) -> Option<Scrape> {
    let addr = d.scrape_addr()?;
    let body = pivot_obs::export::http_get(&addr, "/metrics.json").ok()?;
    let v = json::parse(body.trim()).ok()?;
    let counter = |k: &str| {
        v.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Value::as_int)
            .unwrap_or(0)
    };
    let hist = v
        .get("histograms")
        .and_then(|h| h.get("serve.request_ns"))?;
    let field = |k: &str| hist.get(k).and_then(Value::as_int).unwrap_or(0);
    Some(Scrape {
        requests: field("count"),
        request_sum_ns: field("sum_ns"),
        request_p50_ns: field("p50_ns"),
        checkpoints: counter("serve.checkpoints"),
    })
}

/// Replay `script` on a fresh in-process session (no journal, no wire)
/// and return its final fingerprint.
fn replay(script: &Script) -> String {
    let mut s = Session::from_source(&script.source).expect("printed programs parse");
    for step in &script.steps {
        match (step.class, &step.arg) {
            (Class::Apply, Arg::Kind(k)) => {
                let kind = pivot_undo::XformKind::from_abbrev(k).expect("scripted kind");
                let opp = s.find(kind)[0].clone();
                let _ = s.apply(&opp);
            }
            (Class::Undo, Arg::Target(t)) => {
                let _ = s.undo(XformId(*t), Strategy::Regional);
            }
            (Class::UndoReverseTo, Arg::Target(t)) => {
                let _ = s.undo_reverse_to(XformId(*t));
            }
            _ => {}
        }
    }
    format!("{:016x}", snapshot::fingerprint(&s))
}

impl Workload for ServeMixed {
    fn setup(seed: u64, layers: &mut Layers) -> io::Result<ServeMixed> {
        let t0 = Instant::now();
        let dir = ScratchDir::new("serve")?;
        let journal_dir = dir.path().join("journals");
        let mut cfg = ServeConfig::new(&journal_dir);
        cfg.scrape_addr = Some("127.0.0.1:0".to_string());
        cfg.checkpoint_every = CHECKPOINT_EVERY;
        cfg.max_conns = 8;
        let daemon = pivot_serve::spawn(cfg)?;
        let clients = (0..CONNS)
            .map(|_| Client::connect(daemon.tcp_addr()))
            .collect::<io::Result<Vec<_>>>()?;
        layers.add("setup.build_ms", ms_since(t0));
        let t0 = Instant::now();
        let scripts = (0..CONNS)
            .map(|c| {
                FRAGMENTS
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| {
                        let (c, i) = (c as u64, i as u64);
                        make_script(mix(PROGRAM_SEED, c, i), mix(seed, c, i), f)
                    })
                    .collect()
            })
            .collect();
        layers.add("setup.apply_ms", ms_since(t0));
        Ok(ServeMixed {
            scripts,
            daemon: Some(daemon),
            clients,
            journal_dir,
            _dir: dir,
        })
    }

    fn round(&mut self, r: usize, trace: Option<&mut Layers>, checks: &mut Checks) -> RoundOut {
        let mut out = RoundOut::default();
        let traced = trace.is_some();
        let Some(daemon) = self.daemon.as_ref() else {
            checks.check(false, || "daemon is gone".to_string());
            return out;
        };
        let before = if traced { scrape(daemon) } else { None };
        let c0 = cpu_s();
        let t0 = Instant::now();
        let journal_dir = &self.journal_dir;
        let results: Vec<io::Result<Vec<Sent>>> = std::thread::scope(|sc| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.scripts)
                .enumerate()
                .map(|(c, (client, scripts))| {
                    sc.spawn(move || drive(client, scripts, r, c, journal_dir, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
                })
                .collect()
        });
        out.timed_s = t0.elapsed().as_secs_f64();
        out.cpu_s = cpu_s() - c0;
        let after = if traced { scrape(daemon) } else { None };

        let mut trace = trace;
        for (c, res) in results.into_iter().enumerate() {
            let sent = match res {
                Ok(s) => s,
                Err(e) => {
                    checks.check(false, || format!("round {r} connection {c}: {e}"));
                    continue;
                }
            };
            let mut k = 0usize;
            for (i, script) in self.scripts[c].iter().enumerate() {
                let name = session_name(r, c, i);
                let open = Step {
                    class: Class::Open,
                    arg: Arg::None,
                    expect: Expect::Text("session", name.clone()),
                };
                for step in std::iter::once(&open).chain(&script.steps) {
                    let Some(got) = sent.get(k) else {
                        out.failed += 1;
                        checks.check(false, || format!("{name}: reply missing"));
                        continue;
                    };
                    k += 1;
                    match reply_mismatch(&got.reply, &step.expect) {
                        None => {
                            out.ops += 1;
                            match trace.as_deref_mut() {
                                Some(l) => {
                                    l.sample(got.class.p50_metric(), got.ms);
                                    l.add("serve.client_ms", got.ms);
                                    if got.class.writes_journal() {
                                        l.add("journal.write_ops", 1.0);
                                    }
                                    l.add("journal.bytes", got.journal_bytes as f64);
                                }
                                None => out.op_ms.push(got.ms),
                            }
                        }
                        Some(why) => {
                            out.failed += 1;
                            checks.check(false, || format!("{name}: {} {why}", step.class.name()));
                        }
                    }
                }
                check_session(script, &name, &self.journal_dir, checks);
            }
        }

        if let Some(l) = trace {
            if let (Some(b), Some(a)) = (before, after) {
                l.add(
                    "serve.server_ms",
                    (a.request_sum_ns - b.request_sum_ns) as f64 / 1e6,
                );
                l.add("serve.requests", (a.requests - b.requests) as f64);
                l.add(
                    "journal.compactions",
                    (a.checkpoints - b.checkpoints) as f64,
                );
                l.set("serve.server_request_us_p50", a.request_p50_ns as f64 / 1e3);
            }
            let t0 = Instant::now();
            let fps: Vec<String> = self.scripts.iter().flatten().map(replay).collect();
            l.add("replica.engine_ms", ms_since(t0));
            for (fp, script) in fps.iter().zip(self.scripts.iter().flatten()) {
                checks.check(fp == &script.final_fp, || {
                    "replayed replica fingerprint differs from the script's".to_string()
                });
            }
        }
        self.close_round(r, checks);
        out
    }
}

/// Checks of one finished session apart from its replies: recovery from
/// its journal reproduces the replica's fingerprint, and the final
/// program's outputs equal the original's.
pub fn check_session(script: &Script, name: &str, journal_dir: &Path, checks: &mut Checks) {
    let jpath = journal_dir.join(format!("{name}.journal"));
    let prog = pivot_lang::parser::parse(&script.source).expect("printed programs parse");
    match Session::recover(prog, &jpath) {
        Ok(rec) => {
            let fp = format!("{:016x}", snapshot::fingerprint(&rec.session));
            checks.check(fp == script.final_fp, || {
                format!(
                    "{name}: recovered fingerprint {fp} differs from the replica's {}",
                    script.final_fp
                )
            });
        }
        Err(e) => {
            checks.check(false, || format!("{name}: recovery failed: {e}"));
        }
    }
    match pivot_lang::parser::parse(&script.final_source) {
        Ok(p) => {
            checks.check(outputs(&p, &script.inputs) == script.expect_out, || {
                format!("{name}: final program's outputs differ from the original's")
            });
        }
        Err(e) => {
            checks.check(false, || {
                format!("{name}: final source does not parse: {e}")
            });
        }
    }
}

impl ServeMixed {
    /// Close the round's sessions and delete their files (outside the
    /// timed phase), so every round starts from the same daemon state.
    fn close_round(&mut self, r: usize, checks: &mut Checks) {
        for c in 0..CONNS {
            for i in 0..SESSIONS_PER_CONN {
                let name = session_name(r, c, i);
                let mut w = ObjectWriter::new();
                w.str("req", "close").str("session", &name);
                let line = w.finish() + "\n";
                let res = self.clients[c].call(&line);
                checks.check(
                    matches!(&res, Ok((reply, _)) if reply_mismatch(reply, &Expect::Ok).is_none()),
                    || format!("{name}: close failed: {res:?}"),
                );
                for ext in ["journal", "src"] {
                    let _ = std::fs::remove_file(self.journal_dir.join(format!("{name}.{ext}")));
                }
            }
        }
    }
}
