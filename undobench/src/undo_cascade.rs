//! `undo_cascade`: `Session::undo(target, Strategy::Regional)` on targets
//! drawn at random among the active records of sessions prepared over a
//! size ladder with Figure-1 interaction chains — the paper's own
//! operation. An op is one undo request; each prepared session is undone
//! until no record is active, [`ORDERS`] times per round in different
//! seeded target orders. The programs and their histories are fixed;
//! `--seed` draws the targets.

use crate::common::{cpu_s, mix, ms_since, Checks, PROGRAM_SEED};
use crate::layers::Layers;
use crate::search_walk::outputs;
use crate::{RoundOut, Workload};
use pivot_audit::{audit_session, AuditConfig};
use pivot_lang::equiv::programs_equal;
use pivot_lang::Program;
use pivot_undo::engine::Session;
use pivot_undo::{Strategy, XformId, XformKind, XformState, ALL_KINDS};
use pivot_workload::WorkloadCfg;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// `(enabling fragments, Figure-1 chains, applies)` of the prepared
/// sessions.
pub const LADDER: [(usize, usize, usize); 4] = [(8, 1, 16), (24, 2, 40), (48, 3, 80), (64, 4, 100)];
/// Sessions per ladder rung, each on its own program.
pub const SESSIONS_PER_SIZE: usize = 4;
/// Target orders each session is undone in per round.
pub const ORDERS: usize = 6;
/// Input sets the program's outputs are compared on after every request.
pub const INPUT_SETS: usize = 2;

/// One prepared session and what its first round removed per request,
/// per target order.
struct Prepared {
    /// The session with every greedy apply done.
    session: Session,
    /// The generated program before any transformation.
    start: Program,
    /// Seeds of the target draws, one per order.
    draw_seeds: [u64; ORDERS],
    inputs: Vec<Vec<i64>>,
    expect_out: Option<Vec<Option<Vec<i64>>>>,
    first: [Option<Vec<Vec<XformId>>>; ORDERS],
}

/// The workload state.
pub struct UndoCascade {
    /// Every session of a round, in order.
    sessions: Vec<Prepared>,
}

/// Build a session and greedily apply up to `max` opportunities,
/// round-robin over the kinds in a seeded order (the shape of
/// `pivot_workload::prepare`, with build and applies timed apart).
pub fn prepare(seed: u64, cfg: &WorkloadCfg, max: usize, layers: &mut Layers) -> Session {
    let t0 = Instant::now();
    let mut session = Session::new(pivot_workload::gen_program(seed, cfg));
    layers.add("setup.build_ms", ms_since(t0));
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut kinds: Vec<XformKind> = ALL_KINDS.to_vec();
    let mut applied = 0usize;
    while applied < max {
        kinds.shuffle(&mut rng);
        let before = applied;
        for &k in &kinds {
            if applied < max && session.apply_kind(k).is_some() {
                applied += 1;
            }
        }
        if applied == before {
            break;
        }
    }
    layers.add("setup.apply_ms", ms_since(t0));
    session
}

impl Workload for UndoCascade {
    fn setup(seed: u64, layers: &mut Layers) -> std::io::Result<UndoCascade> {
        let mut sessions = Vec::new();
        for (rung, &(fragments, chains, max)) in LADDER.iter().enumerate() {
            for i in 0..SESSIONS_PER_SIZE {
                let s_seed = mix(PROGRAM_SEED, rung as u64, i as u64);
                let cfg = WorkloadCfg {
                    fragments,
                    figure1_chains: chains,
                    ..WorkloadCfg::default()
                };
                let session = prepare(s_seed, &cfg, max, layers);
                let start = session.original.clone();
                let inputs = (0..INPUT_SETS)
                    .map(|k| pivot_workload::gen_inputs(mix(s_seed, 0x1a9, k as u64), 64))
                    .collect();
                sessions.push(Prepared {
                    session,
                    start,
                    draw_seeds: std::array::from_fn(|k| mix(seed, s_seed, k as u64)),
                    inputs,
                    expect_out: None,
                    first: std::array::from_fn(|_| None),
                });
            }
        }
        Ok(UndoCascade { sessions })
    }

    fn round(&mut self, r: usize, mut trace: Option<&mut Layers>, checks: &mut Checks) -> RoundOut {
        let mut out = RoundOut::default();
        for (si, p) in self.sessions.iter_mut().enumerate() {
            for k in 0..ORDERS {
                let label = format!("round {r} session {si} order {k}");
                let expect = p
                    .expect_out
                    .get_or_insert_with(|| outputs(&p.start, &p.inputs))
                    .clone();
                let mut s = p.session.clone();
                let mut rng = StdRng::seed_from_u64(p.draw_seeds[k]);
                let initial_active = s.history.active_len();
                let mut audited = false;
                let mut removed_log: Vec<Vec<XformId>> = Vec::new();
                loop {
                    let active: Vec<XformId> = s.history.active().map(|x| x.id).collect();
                    if active.is_empty() {
                        break;
                    }
                    if r == 0 && !audited && active.len() * 2 <= initial_active {
                        audited = true;
                        check_audit(&s, &label, checks);
                    }
                    let target = active[rng.gen_range(0..active.len())];
                    let c0 = cpu_s();
                    let t0 = Instant::now();
                    let res = s.undo(target, Strategy::Regional);
                    let ms = ms_since(t0);
                    out.cpu_s += cpu_s() - c0;
                    out.timed_s += ms / 1e3;
                    let rep = match res {
                        Ok(rep) => rep,
                        Err(e) => {
                            out.failed += 1;
                            checks.check(false, || {
                                format!("{label}: undo #{} failed: {e}", target.0)
                            });
                            break;
                        }
                    };
                    out.ops += 1;
                    if let Some(l) = trace.as_deref_mut() {
                        l.add("undo.wall_ms", ms);
                        l.add_undo(&rep);
                    } else {
                        out.op_ms.push(ms);
                    }
                    if r == 0 {
                        check_request(&s, target, &rep.undone, &p.inputs, &expect, &label, checks);
                    }
                    removed_log.push(rep.undone);
                }
                checks.check(programs_equal(&s.prog, &p.start), || {
                    format!("{label}: the emptied session differs from its original program")
                });
                // Later rounds must remove exactly what the first round
                // (fully checked, request by request) removed.
                match &p.first[k] {
                    None => p.first[k] = Some(removed_log),
                    Some(first) => {
                        checks.check(first == &removed_log, || {
                            format!("{label}: cascades differ from the first round's")
                        });
                    }
                }
            }
        }
        out
    }
}

/// After undoing `target`: it and everything the request removed are
/// inactive, and the program's outputs still equal the original's.
pub fn check_request(
    s: &Session,
    target: XformId,
    undone: &[XformId],
    inputs: &[Vec<i64>],
    expect: &[Option<Vec<i64>>],
    label: &str,
    checks: &mut Checks,
) {
    let gone = undone.contains(&target)
        && undone
            .iter()
            .all(|x| s.history.get(*x).map(|h| h.state) == Ok(XformState::Undone));
    checks.check(gone, || {
        format!(
            "{label}: after undo #{} a removed record is still active",
            target.0
        )
    });
    checks.check(outputs(&s.prog, inputs) == expect, || {
        format!("{label}: outputs changed after undo #{}", target.0)
    });
}

/// `pivot-audit`'s independent re-derivation finds nothing in `s`.
pub fn check_audit(s: &Session, label: &str, checks: &mut Checks) {
    let report = audit_session(s, &AuditConfig::default());
    checks.check(report.findings.is_empty(), || {
        format!(
            "{label}: audit found {} findings:\n{}",
            report.findings.len(),
            report.render_human()
        )
    });
}
