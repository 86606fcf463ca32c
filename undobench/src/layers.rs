//! Per-layer accumulators filled by the traced rounds: sums (times in
//! milliseconds, counts) and latency samples (for the `_p50` metrics).
//! Helper sums that are not metrics themselves (divisors of ratios) live
//! beside them under names outside the catalog.

use crate::common::quantile;
use pivot_obs::Phase;
use pivot_undo::UndoReport;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer sums and samples of the traced rounds.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

/// The Figure-4 phases reported as `undo.<phase>_ms`.
const UNDO_PHASES: [(Phase, &str); 6] = [
    (Phase::AffectingChase, "undo.affecting_chase_ms"),
    (Phase::ReversibilityCheck, "undo.reversibility_check_ms"),
    (Phase::RegionScan, "undo.region_scan_ms"),
    (Phase::SafetyCheck, "undo.safety_check_ms"),
    (Phase::InverseAction, "undo.inverse_action_ms"),
    (Phase::RepRebuild, "undo.rep_rebuild_ms"),
];

impl Layers {
    /// Add `v` to the sum `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Overwrite the sum `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.sums.insert(name, v);
    }

    /// The sum `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Record one latency sample for the `_p50` metric `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Time `f`, add its milliseconds to `ms_name`, and return its value
    /// and its duration in microseconds.
    pub fn time<T>(&mut self, ms_name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let v = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.add(ms_name, us / 1e3);
        (v, us)
    }

    /// Fold one undo request's own report into the `undo.*` layer.
    pub fn add_undo(&mut self, rep: &UndoReport) {
        self.add("undo.calls", 1.0);
        self.add("undo.ms", rep.phase_ns.get(Phase::Undo) as f64 / 1e6);
        for (phase, name) in UNDO_PHASES {
            self.add(name, rep.phase_ns.get(phase) as f64 / 1e6);
        }
        self.add("undo.removed", rep.undone.len() as f64);
        self.add(
            "undo.candidates_considered",
            rep.candidates_considered as f64,
        );
        self.add("undo.safety_checks", rep.safety_checks as f64);
        self.add("undo.reversibility_checks", rep.reversibility_checks as f64);
        self.add("undo.affecting_chases", rep.affecting_chases as f64);
        self.add("undo.rep_rebuilds", rep.rep_rebuilds as f64);
    }

    /// Divide every sum by `k` (sums over several rounds become per-round
    /// figures; ratios computed by [`Layers::finish`] are unaffected).
    pub fn scale(&mut self, k: f64) {
        for v in self.sums.values_mut() {
            *v *= k;
        }
    }

    /// Derive the medians, ratios and residuals from the sums.
    pub fn finish(&mut self) {
        let p50s: Vec<(&'static str, f64)> = self
            .samples
            .iter_mut()
            .map(|(name, v)| (*name, quantile(v, 0.5)))
            .collect();
        for (name, v) in p50s {
            self.set(name, v);
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        self.set(
            "search.useful_ratio",
            ratio(self.get("search.work_moves"), self.get("search.proposals")),
        );
        self.set(
            "catalog.opps_per_find",
            ratio(self.get("catalog.opps"), self.get("catalog.find_calls")),
        );
        self.set(
            "undo.cascade_len_mean",
            ratio(self.get("undo.removed"), self.get("undo.calls")),
        );
        self.set(
            "undo.affected_yield",
            ratio(
                self.get("undo.removed") - self.get("undo.calls"),
                self.get("undo.candidates_considered"),
            ),
        );
        self.set(
            "journal.bytes_per_op",
            ratio(self.get("journal.bytes"), self.get("journal.write_ops")),
        );
        if self.get("search.wall_ms") > 0.0 {
            let covered: f64 = [
                "catalog.find_ms",
                "txn.checkpoint_ms",
                "engine.apply_ms",
                "interp.score_ms",
                "txn.reject_ms",
                "txn.rollback_ms",
            ]
            .iter()
            .map(|n| self.get(n))
            .sum();
            self.set("search.residual_ms", self.get("search.wall_ms") - covered);
        }
        if self.get("undo.wall_ms") > 0.0 {
            let covered: f64 = UNDO_PHASES.iter().map(|(_, n)| self.get(n)).sum();
            self.set("undo.residual_ms", self.get("undo.wall_ms") - covered);
        }
        if self.get("serve.client_ms") > 0.0 {
            self.set(
                "serve.wire_ms",
                self.get("serve.client_ms") - self.get("serve.server_ms"),
            );
        }
    }
}
