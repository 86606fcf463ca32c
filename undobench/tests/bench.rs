//! The benchmark's own tests: its names match `BENCHMARK.json` and follow
//! the naming rule, a short run of each workload passes its checks, and
//! each check fails when handed a corrupted result.
//!
//! Run with `cargo test --release --manifest-path undobench/Cargo.toml`
//! (a debug build of the engine makes the short runs slow).

use pivot_undo::engine::Session;
use pivot_undo::{Journal, Strategy, XformId, ALL_KINDS};
use undobench::common::{parse_args, Args, Checks, ScratchDir, END_TO_END, PER_LAYER, WORKLOADS};
use undobench::layers::Layers;
use undobench::search_walk::{canonical_source, check_walk, SearchWalk, WalkEnd};
use undobench::serve_mixed::{check_session, make_script, reply_mismatch, Arg, Class, Expect};
use undobench::undo_cascade::{check_audit, check_request};
use undobench::Workload;

/// `BENCHMARK.json`, whose layout is fixed: one entry per line, keys in
/// the order `name`, then `unit` or `why`.
const SPEC: &str = include_str!("../../BENCHMARK.json");

fn name_ok(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.as_bytes()[0].is_ascii_alphanumeric()
        && n.bytes()
            .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
}

fn unit_ok(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
}

/// The position just past `frag` in `SPEC`, searching from `from`.
fn find_after(frag: &str, from: usize) -> usize {
    match SPEC[from..].find(frag) {
        Some(i) => from + i + frag.len(),
        None => panic!("BENCHMARK.json lacks `{frag}` (in catalog order)"),
    }
}

#[test]
fn names_follow_the_rule_and_match_benchmark_json() {
    // Every catalog entry appears in order, and nothing else is named.
    let mut at = find_after("\"workloads\"", 0);
    for w in WORKLOADS {
        at = find_after(&format!("{{\"name\": \"{w}\", \"why\": "), at);
    }
    for (section, catalog) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        at = find_after(&format!("\"{section}\""), at);
        for (name, unit) in catalog {
            at = find_after(
                &format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", "),
                at,
            );
            if section == "end_to_end" {
                let rest = &SPEC[at..SPEC[at..].find('}').map_or(SPEC.len(), |e| at + e)];
                let bound: f64 = rest
                    .split("\"bound\": ")
                    .nth(1)
                    .and_then(|b| b.trim().parse().ok())
                    .unwrap_or_else(|| panic!("{name}: no bound in `{rest}`"));
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
                let lower = rest.starts_with("\"better\": \"lower\"");
                assert!(
                    lower || rest.starts_with("\"better\": \"higher\""),
                    "{name}: {rest}"
                );
                assert_eq!(lower, *name != "ops_per_s", "{name}: wrong direction");
            }
        }
    }
    let named = SPEC.matches("\"name\": ").count();
    assert_eq!(named, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    assert_eq!(END_TO_END[0], ("setup_s", "s"));

    let mut seen = std::collections::BTreeSet::new();
    let all = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0));
    for n in all {
        assert!(name_ok(n), "bad name {n}");
        assert!(seen.insert(n), "name {n} used twice");
    }
    for (_, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(unit_ok(u), "bad unit {u}");
    }
}

fn short_run(workload: &str, trace: bool) {
    let args = Args {
        workload: workload.to_string(),
        seed: 3,
        seconds: 1,
        trace,
    };
    let (res, checks) = undobench::run_named(&args).expect("set-up");
    assert!(res.correct, "{workload}: {:?}", checks.failures);
    assert_eq!(res.failed, 0);
    assert!(res.attempted > 0);
    let names: Vec<&str> = res.metrics.iter().map(|m| m.name).collect();
    let expect: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    assert_eq!(names, expect);
    if !trace {
        for m in &res.metrics {
            assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
        }
    }
    let line = res.to_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn short_search_walk_passes_its_checks() {
    short_run("search_walk", false);
    short_run("search_walk", true);
}

#[test]
fn short_undo_cascade_passes_its_checks() {
    short_run("undo_cascade", false);
    short_run("undo_cascade", true);
}

#[test]
fn short_serve_mixed_passes_its_checks() {
    short_run("serve_mixed", false);
    short_run("serve_mixed", true);
}

#[test]
fn bad_arguments_are_refused() {
    let argv: Vec<String> = ["--workload", "search_walk", "--seed", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(parse_args(&argv).is_err());
}

// ---------------------------------------------------------------------
// Each check fails on a corrupted result.
// ---------------------------------------------------------------------

#[test]
fn search_walk_checks_catch_corrupted_results() {
    let mut bench = SearchWalk::setup(5, &mut Layers::default()).expect("set-up");
    let w = &mut bench.walks[0];
    let out = pivot_workload::search::Search::new(
        w.start.clone(),
        w.cfg.clone(),
        pivot_workload::search::RejectMode::UndoReject,
    );
    let mut s = out;
    while !matches!(
        s.step(),
        pivot_workload::search::StepKind::Budget | pivot_workload::search::StepKind::Plateaued
    ) {}
    let session = s.session().clone();
    let o = s.finish();
    let good = WalkEnd {
        source: o.final_source.clone(),
        cost: o.final_cost,
        digest: o.digest,
    };
    let mut ok = Checks::default();
    check_walk(w, &session, &good, "good", 5, &mut ok);
    assert!(ok.passed(), "{:?}", ok.failures);

    // A wrong reported cost.
    let mut c = Checks::default();
    let bad = WalkEnd {
        cost: good.cost + 1,
        ..good.clone()
    };
    check_walk(w, &session, &bad, "cost", 5, &mut c);
    assert!(!c.passed());

    // A mutated final program: an extra write changes the outputs, and
    // undoing every record cannot give back the start.
    let mut mutated = session.clone();
    let src = mutated.source() + "write 7\n";
    mutated.prog = pivot_lang::parser::parse(&src).expect("parse");
    let mut c = Checks::default();
    check_walk(w, &mutated, &good, "mutated", 5, &mut c);
    assert!(c.failures.len() >= 2, "{:?}", c.failures);

    // The fork-oracle comparison tolerates fresh-variable names only.
    let start = &w.start.prog;
    let a = "do i_s = 1, 4\n  x = y\nenddo\n";
    let b = "do i_s_2 = 1, 4\n  x = y\nenddo\n";
    assert_eq!(canonical_source(a, start), canonical_source(b, start));
    let known = start
        .symbols
        .iter()
        .next()
        .map(|(_, n)| n.to_string())
        .expect("a symbol");
    let c1 = format!("{known} = 1\n");
    let c2 = format!("{known} = 2\n");
    assert_ne!(canonical_source(&c1, start), canonical_source(&c2, start));
}

#[test]
fn undo_cascade_checks_catch_corrupted_results() {
    let mut l = Layers::default();
    let cfg = pivot_workload::WorkloadCfg {
        fragments: 12,
        figure1_chains: 1,
        ..Default::default()
    };
    let mut s = undobench::undo_cascade::prepare(9, &cfg, 20, &mut l);
    let inputs = vec![pivot_workload::gen_inputs(1, 64)];
    let expect = undobench::search_walk::outputs(&s.original, &inputs);
    let mut clean = Checks::default();
    check_audit(&s, "clean", &mut clean);
    assert!(clean.passed(), "{:?}", clean.failures);

    let active: Vec<XformId> = s.history.active().map(|x| x.id).collect();
    let target = active[active.len() / 2];
    let rep = s.undo(target, Strategy::Regional).expect("undo");
    let mut ok = Checks::default();
    check_request(&s, target, &rep.undone, &inputs, &expect, "ok", &mut ok);
    assert!(ok.passed(), "{:?}", ok.failures);

    // A report claiming a record that is still active.
    let still = s
        .history
        .active()
        .next()
        .map(|x| x.id)
        .expect("an active record");
    let mut c = Checks::default();
    check_request(
        &s,
        target,
        &[target, still],
        &inputs,
        &expect,
        "claim",
        &mut c,
    );
    assert!(!c.passed());

    // A mutated program: outputs differ and the audit sees a program that
    // no longer matches its history.
    let mut m = s.clone();
    let src = m.source() + "write 7\n";
    m.prog = pivot_lang::parser::parse(&src).expect("parse");
    let mut c = Checks::default();
    check_request(&m, target, &rep.undone, &inputs, &expect, "mutated", &mut c);
    assert!(!c.passed());
    let mut c = Checks::default();
    check_audit(&m, "mutated", &mut c);
    assert!(!c.passed());
}

#[test]
fn serve_mixed_checks_catch_corrupted_results() {
    let script = make_script(11, 12, 6);
    assert!(script.steps.iter().any(|s| s.class == Class::Apply));
    // Replay the script on a journaled session, as the daemon would.
    let dir = ScratchDir::new("test-serve").expect("scratch dir");
    let name = "t0";
    let mut s = Session::from_source(&script.source).expect("parse");
    s.set_journal(Journal::open(&dir.path().join(format!("{name}.journal"))).expect("journal"));
    for step in &script.steps {
        match (step.class, &step.arg) {
            (Class::Apply, Arg::Kind(k)) => {
                let kind = ALL_KINDS
                    .iter()
                    .copied()
                    .find(|x| x.abbrev() == *k)
                    .expect("kind");
                let opp = s.find(kind)[0].clone();
                s.apply(&opp).expect("apply");
            }
            (Class::Undo, Arg::Target(t)) => {
                s.undo(XformId(*t), Strategy::Regional).expect("undo");
            }
            (Class::UndoReverseTo, Arg::Target(t)) => {
                s.undo_reverse_to(XformId(*t)).expect("undo_reverse_to");
            }
            _ => {}
        }
    }
    let mut ok = Checks::default();
    check_session(&script, name, dir.path(), &mut ok);
    assert!(ok.passed(), "{:?}", ok.failures);

    // A wrong replica fingerprint.
    let mut bad = make_script(11, 12, 6);
    bad.final_fp = "0000000000000000".to_string();
    let mut c = Checks::default();
    check_session(&bad, name, dir.path(), &mut c);
    assert!(!c.passed());

    // A mutated final program.
    let mut bad = make_script(11, 12, 6);
    bad.final_source.push_str("write 7\n");
    let mut c = Checks::default();
    check_session(&bad, name, dir.path(), &mut c);
    assert!(!c.passed());

    // Replies: not ok, or ok with the wrong content.
    let fp = Expect::Text("fingerprint", script.final_fp.clone());
    let good = format!("{{\"ok\":true,\"fingerprint\":\"{}\"}}\n", script.final_fp);
    assert_eq!(reply_mismatch(&good, &fp), None);
    assert!(reply_mismatch("{\"ok\":true,\"fingerprint\":\"00\"}\n", &fp).is_some());
    assert!(reply_mismatch("{\"ok\":false,\"error\":\"engine\"}\n", &Expect::Ok).is_some());
    assert!(reply_mismatch("not json\n", &Expect::Ok).is_some());
    assert!(reply_mismatch(
        "{\"ok\":true,\"undone\":[3]}\n",
        &Expect::Undone(vec![3, 4])
    )
    .is_some());
}
