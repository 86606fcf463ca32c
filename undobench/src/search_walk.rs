//! `search_walk`: seeded simulated-annealing walks over a ladder of program
//! sizes, with undo as the reject step (`RejectMode::UndoReject`). The
//! programs are fixed; `--seed` seeds each walk's draws and scoring inputs.
//!
//! An op is one *work move*: propose, apply, score, then accept or
//! undo-reject. Draws of a kind with no opportunity are not ops (they are
//! idle work), but their time stays in the timed phase.

use crate::common::{cpu_s, mix, ms_since, Checks, PROGRAM_SEED};
use crate::layers::Layers;
use crate::{RoundOut, Workload};
use pivot_lang::equiv::programs_equal;
use pivot_lang::interp::{self, Limits};
use pivot_lang::Program;
use pivot_undo::engine::Session;
use pivot_undo::{Opportunity, RejectPath, Strategy, XformState, ALL_KINDS};
use pivot_workload::search::{
    accepts, cost_of, search_inputs, RejectMode, Search, SearchCfg, StepKind, WORST_COST,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Program sizes (enabling fragments) of the walks.
pub const LADDER: [usize; 4] = [8, 12, 16, 24];
/// Walks per ladder rung, each on its own program.
pub const WALKS_PER_SIZE: usize = 32;
/// Proposals per walk.
pub const MOVES: u64 = 600;
/// Proposals without a new best before a restart.
pub const PLATEAU: u64 = 200;
/// Restarts per walk before the plateau rule stops it.
pub const MAX_RESTARTS: u64 = 2;
/// Held-out input sets (never used for scoring) the final program must
/// agree with the starting program on.
pub const HELD_OUT: usize = 3;

/// One walk: its configuration, its starting session, and what the first
/// round found (later rounds must reproduce it exactly).
pub struct Walk {
    /// Search configuration (seeded).
    pub cfg: SearchCfg,
    /// Starting session (cloned per round; copy-on-write).
    pub start: Session,
    held_out: Vec<Vec<i64>>,
    held_out_expect: Option<Vec<Option<Vec<i64>>>>,
    first: Option<WalkEnd>,
}

/// The end state of a walk, as compared between rounds and modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkEnd {
    /// Final program source.
    pub source: String,
    /// Final cost as the walk reported it.
    pub cost: u64,
    /// Structural digest (`Search::digest`).
    pub digest: u64,
}

/// The workload state.
pub struct SearchWalk {
    /// Every walk of a round, in order.
    pub walks: Vec<Walk>,
    seed: u64,
    /// Walks compared with the fork oracle.
    pub oracle_checks: u64,
    /// Of those, walks equal to the oracle only up to the names of fresh
    /// variables (see [`canonical_source`]).
    pub oracle_renamed: u64,
}

impl Workload for SearchWalk {
    fn setup(seed: u64, layers: &mut Layers) -> std::io::Result<SearchWalk> {
        let mut walks = Vec::new();
        let t0 = Instant::now();
        for (rung, &fragments) in LADDER.iter().enumerate() {
            for i in 0..WALKS_PER_SIZE {
                let cfg = SearchCfg {
                    seed: mix(seed, rung as u64, i as u64),
                    moves: MOVES,
                    plateau: PLATEAU,
                    max_restarts: MAX_RESTARTS,
                    fragments,
                    ..SearchCfg::default()
                };
                let wcfg = pivot_workload::WorkloadCfg {
                    fragments,
                    ..Default::default()
                };
                let prog_seed = mix(PROGRAM_SEED, rung as u64, i as u64);
                let start = Session::new(pivot_workload::gen_program(prog_seed, &wcfg));
                let held_out = (0..HELD_OUT)
                    .map(|k| pivot_workload::gen_inputs(mix(cfg.seed, 0x4e1d, k as u64), 64))
                    .collect();
                walks.push(Walk {
                    cfg,
                    start,
                    held_out,
                    held_out_expect: None,
                    first: None,
                });
            }
        }
        layers.add("setup.build_ms", ms_since(t0));
        Ok(SearchWalk {
            walks,
            seed,
            oracle_checks: 0,
            oracle_renamed: 0,
        })
    }

    fn round(&mut self, r: usize, trace: Option<&mut Layers>, checks: &mut Checks) -> RoundOut {
        let mut out = RoundOut::default();
        let nwalks = self.walks.len();
        match trace {
            None => {
                for (i, w) in self.walks.iter_mut().enumerate() {
                    let mut s = Search::new(w.start.clone(), w.cfg.clone(), RejectMode::UndoReject);
                    let c0 = cpu_s();
                    let t0 = Instant::now();
                    loop {
                        let ts = Instant::now();
                        match s.step() {
                            StepKind::Accepted | StepKind::AcceptedUphill | StepKind::Rejected => {
                                out.ops += 1;
                                out.op_ms.push(ms_since(ts));
                            }
                            StepKind::ApplyError => out.failed += 1,
                            StepKind::NoOpportunity => {}
                            StepKind::Budget | StepKind::Plateaued => break,
                        }
                    }
                    out.timed_s += t0.elapsed().as_secs_f64();
                    out.cpu_s += cpu_s() - c0;
                    let session = s.session().clone();
                    let outcome = s.finish();
                    let end = WalkEnd {
                        source: outcome.final_source.clone(),
                        cost: outcome.final_cost,
                        digest: outcome.digest,
                    };
                    let label = format!("round {r} walk {i} (seed {})", w.cfg.seed);
                    checks.check(outcome.output_divergences == 0, || {
                        format!(
                            "{label}: {} candidates diverged",
                            outcome.output_divergences
                        )
                    });
                    // Later rounds must reproduce the first round exactly
                    // (checked below); the independent checks run on the
                    // first round and on any round that does not.
                    if w.first.as_ref() != Some(&end) {
                        check_walk(w, &session, &end, &label, self.seed, checks);
                    }
                    // One walk per round against the fork oracle, stepping
                    // through the rungs (33 is coprime with the walk count).
                    if i == (r * 33) % nwalks {
                        let oracle =
                            Search::new(w.start.clone(), w.cfg.clone(), RejectMode::ForkOracle)
                                .run();
                        let exact = oracle.digest == end.digest;
                        let renamed = oracle.final_cost == end.cost
                            && oracle.active_len == outcome.active_len
                            && canonical_source(&oracle.final_source, &w.start.prog)
                                == canonical_source(&end.source, &w.start.prog);
                        checks.check(exact || renamed, || {
                            format!("{label}: fork oracle ends elsewhere than the undo-reject walk")
                        });
                        self.oracle_checks += 1;
                        self.oracle_renamed += u64::from(!exact && renamed);
                    }
                    match &w.first {
                        None => w.first = Some(end),
                        Some(first) => {
                            checks.check(first == &end, || {
                                format!("{label}: walk differs from its first round")
                            });
                        }
                    }
                }
            }
            Some(layers) => {
                for (i, w) in self.walks.iter().enumerate() {
                    let c0 = cpu_s();
                    let t0 = Instant::now();
                    let (end_source, end_cost, work) = traced_walk(w, layers);
                    let wall = t0.elapsed();
                    layers.add("search.wall_ms", wall.as_secs_f64() * 1e3);
                    out.timed_s += wall.as_secs_f64();
                    out.cpu_s += cpu_s() - c0;
                    out.ops += work;
                    let label = format!("round {r} walk {i} (traced)");
                    match &w.first {
                        Some(first) => {
                            checks.check(
                                first.source == end_source && first.cost == end_cost,
                                || format!("{label}: traced walk ends elsewhere than the untraced walk"),
                            );
                        }
                        None => {
                            checks.check(false, || format!("{label}: no untraced walk to compare"));
                        }
                    }
                }
            }
        }
        out
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "fork oracle: {} walks compared, {} equal only up to fresh-variable names",
            self.oracle_checks, self.oracle_renamed
        )]
    }
}

/// Check one finished walk against computations apart from the search:
/// held-out outputs, an independent cost, and an undo of every active
/// record in seeded random order back to the starting program.
pub fn check_walk(
    w: &mut Walk,
    session: &Session,
    end: &WalkEnd,
    label: &str,
    seed: u64,
    checks: &mut Checks,
) {
    let expect = w
        .held_out_expect
        .get_or_insert_with(|| outputs(&w.start.prog, &w.held_out));
    let got = outputs(&session.prog, &w.held_out);
    checks.check(&got == expect, || {
        format!("{label}: final program's held-out outputs differ from the start's")
    });
    let cost = cost_of(&session.prog, &search_inputs(&w.cfg), w.cfg.fuel);
    checks.check(cost == end.cost && cost != WORST_COST, || {
        format!(
            "{label}: reported cost {} but the final program costs {cost}",
            end.cost
        )
    });
    checks.check(session.source() == end.source, || {
        format!("{label}: reported source differs from the session's")
    });
    let mut s = session.clone();
    let mut rng = StdRng::seed_from_u64(mix(seed, w.cfg.seed, 0x0dd0));
    loop {
        let active: Vec<_> = s.history.active().map(|x| x.id).collect();
        if active.is_empty() {
            break;
        }
        let target = active[rng.gen_range(0..active.len())];
        let ok = match s.undo(target, Strategy::Regional) {
            Ok(rep) => {
                rep.undone.contains(&target)
                    && rep
                        .undone
                        .iter()
                        .all(|x| s.history.get(*x).map(|h| h.state) == Ok(XformState::Undone))
            }
            Err(_) => false,
        };
        if !checks.check(ok, || {
            format!("{label}: undo of #{} failed during unwind", target.0)
        }) {
            return;
        }
    }
    checks.check(programs_equal(&s.prog, &w.start.prog), || {
        format!("{label}: undoing every record does not restore the starting program")
    });
}

/// `src` with every identifier that `start` does not name replaced by
/// `fresh<k>`, numbered by first appearance. Two walks that agree up to the
/// names the transformations invented for fresh variables (strip-mining's
/// `i_s`, `i_s_1`, ...) have equal canonical sources. Undo leaves a fresh
/// name interned in the symbol table, so a later transformation can pick a
/// different suffix than a walk that never undid; only that difference is
/// tolerated between the undo-reject walk and the fork oracle.
pub fn canonical_source(src: &str, start: &Program) -> String {
    let mut fresh: Vec<String> = Vec::new();
    let mut out = String::with_capacity(src.len());
    let mut chars = src.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c.is_ascii_alphabetic() || c == '_' {
            let mut end = i + c.len_utf8();
            while let Some(&(j, d)) = chars.peek() {
                if d.is_ascii_alphanumeric() || d == '_' {
                    end = j + d.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            let word = &src[i..end];
            if start.symbols.get(word).is_some() {
                out.push_str(word);
            } else {
                let k = match fresh.iter().position(|f| f == word) {
                    Some(k) => k,
                    None => {
                        fresh.push(word.to_string());
                        fresh.len() - 1
                    }
                };
                out.push_str(&format!("fresh{k}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Output streams of `prog` on `inputs` (None for a run that fails).
pub fn outputs(prog: &Program, inputs: &[Vec<i64>]) -> Vec<Option<Vec<i64>>> {
    inputs
        .iter()
        .map(|inp| interp::run(prog, inp, Limits { fuel: 1_000_000 }).ok())
        .collect()
}

/// The walk of `Search::step` in `RejectMode::UndoReject`, driven through
/// the public calls of each layer with a timer around each. Returns the
/// final source, the final cost and the number of work moves.
fn traced_walk(w: &Walk, l: &mut Layers) -> (String, u64, usize) {
    let cfg = &w.cfg;
    let mut s = w.start.clone();
    let inputs = search_inputs(cfg);
    let (initial, baseline) = score(&s.prog, &inputs, cfg.fuel, l);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x005E_A2C4_1994);
    let (mut temp, mut cur, mut best) = (cfg.temp, initial, initial);
    let mut best_cp = checkpoint(&s, l);
    let (mut since_improve, mut proposed, mut restarts, mut work) = (0u64, 0u64, 0u64, 0usize);
    let mut found: Vec<Option<Vec<Opportunity>>> = vec![None; ALL_KINDS.len()];
    loop {
        if proposed >= cfg.moves || (since_improve >= cfg.plateau && restarts >= cfg.max_restarts) {
            break;
        }
        proposed += 1;
        l.add("search.proposals", 1.0);
        let ki = rng.gen_range(0..ALL_KINDS.len());
        if found[ki].is_none() {
            let (opps, _) = l.time("catalog.find_ms", || s.find(ALL_KINDS[ki]));
            l.add("catalog.find_calls", 1.0);
            l.add("catalog.opps", opps.len() as f64);
            found[ki] = Some(opps);
        }
        let n = found[ki].as_ref().map_or(0, Vec::len);
        if n > 0 {
            let pick = rng.gen_range(0..n);
            let opp = found[ki].as_ref().map(|o| o[pick].clone());
            let Some(opp) = opp else {
                unreachable!("n > 0");
            };
            found.iter_mut().for_each(|f| *f = None);
            since_improve += 1;
            work += 1;
            l.add("search.work_moves", 1.0);
            let cp = checkpoint(&s, l);
            let (applied, us) = l.time("engine.apply_ms", || s.apply(&opp));
            l.add("engine.apply_calls", 1.0);
            l.sample("engine.apply_us_p50", us);
            if let Ok(id) = applied {
                let (cand, outs) = score(&s.prog, &inputs, cfg.fuel, l);
                let ok = match (&baseline, &outs) {
                    (Some(b), Some(o)) => b == o,
                    _ => true,
                };
                if ok && accepts(&mut rng, temp, cur, cand) {
                    cur = cand;
                    if cand < best {
                        best = cand;
                        best_cp = checkpoint(&s, l);
                        since_improve = 0;
                    }
                } else {
                    let (path, us) = l.time("txn.reject_ms", || s.reject(id, cfg.strategy, cp));
                    l.add("txn.reject_calls", 1.0);
                    l.sample("txn.reject_us_p50", us);
                    match &path {
                        RejectPath::Undone(rep) => l.add_undo(rep),
                        RejectPath::Overshot(rep) => {
                            l.add_undo(rep);
                            l.add("txn.reject_fallbacks", 1.0);
                        }
                        RejectPath::RolledBack(_) => l.add("txn.reject_fallbacks", 1.0),
                    }
                }
            }
        } else {
            since_improve += 1;
        }
        temp *= cfg.cooling;
        if since_improve >= cfg.plateau && restarts < cfg.max_restarts {
            restarts += 1;
            let cp = best_cp.clone();
            l.time("txn.rollback_ms", || s.rollback(cp));
            l.add("txn.rollback_calls", 1.0);
            cur = best;
            temp = cfg.temp;
            since_improve = 0;
            found.iter_mut().for_each(|f| *f = None);
        }
    }
    (s.source(), cur, work)
}

fn checkpoint(s: &Session, l: &mut Layers) -> pivot_undo::Checkpoint {
    let (cp, us) = l.time("txn.checkpoint_ms", || s.checkpoint());
    l.add("txn.checkpoint_calls", 1.0);
    l.sample("txn.checkpoint_us_p50", us);
    cp
}

/// Score as the search does: total interpreter steps over the input sets
/// and the output streams, or `WORST_COST` if any run fails.
fn score(
    prog: &Program,
    inputs: &[Vec<i64>],
    fuel: u64,
    l: &mut Layers,
) -> (u64, Option<Vec<Vec<i64>>>) {
    let (res, _) = l.time("interp.score_ms", || {
        let mut total = 0u64;
        let mut outs = Vec::with_capacity(inputs.len());
        for input in inputs {
            match interp::run_counted(prog, input, Limits { fuel }) {
                Ok(c) => {
                    total = total.saturating_add(c.steps);
                    outs.push(c.output);
                }
                Err(_) => return (WORST_COST, None),
            }
        }
        (total, Some(outs))
    });
    if res.0 != WORST_COST {
        l.add("interp.steps", res.0 as f64);
    }
    res
}
