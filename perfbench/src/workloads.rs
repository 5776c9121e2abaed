//! The workloads, their arguments and what a run reports.

use std::time::{Duration, Instant};

use tileqr_matrix::norms::frobenius_norm;
use tileqr_matrix::Matrix;
use tileqr_runtime::QrError;

use crate::dense;
use crate::metrics::per_layer_key;
use crate::probes::Values;
use crate::service;
use crate::stats::{median, ratio};
use crate::trace::{self_time_by_name, Span};

/// Bound on the reference's `‖A − QR‖/‖A‖`, `‖QᴴQ − I‖` and relative
/// normal-equation residual.
pub const VALIDATE_TOL: f64 = 1e-12;
/// Relative Frobenius distance a timed result may have from the reference.
/// Not bitwise, so a kernel change that only alters rounding still passes.
pub const MATCH_RTOL: f64 = 1e-10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TallLsq,
    SquareQr,
    ServiceMix,
}

impl Workload {
    pub const ALL: [(&'static str, Workload); 3] = [
        ("tall_lsq", Workload::TallLsq),
        ("square_qr", Workload::SquareQr),
        ("service_mix", Workload::ServiceMix),
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub refused: u64,
    pub errors: u64,
    pub mismatches: u64,
    pub values: Values,
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.mismatches
    }

    /// Refusals are load shedding, not wrong answers; errors and mismatches
    /// are.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.errors == 0 && self.mismatches == 0
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }
}

pub fn run(args: &Args) -> Result<Outcome, QrError> {
    match args.workload {
        Workload::TallLsq => dense::run(args, &dense::TALL),
        Workload::SquareQr => dense::run(args, &dense::SQUARE),
        Workload::ServiceMix => service::run(args),
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `‖a − b‖_F / ‖b‖_F`.
pub fn rel_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    ratio(frobenius_norm(&a.sub(b)), frobenius_norm(b))
}

/// Builds the workload's state at least five times and for at least a
/// second, keeping the last one; returns it with the median build time
/// (`setup_s`).
pub fn timed_setup<S>(mut build: impl FnMut() -> Result<S, QrError>) -> Result<(S, f64), QrError> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut built = None;
    while samples.len() < 5 || (secs(start.elapsed()) < 1.0 && samples.len() < 200) {
        drop(built.take());
        let t = Instant::now();
        built = Some(build()?);
        samples.push(secs(t.elapsed()));
    }
    Ok((built.expect("set-up ran"), median(&samples)))
}

/// The values of the samples taken while the host stole at most the median
/// sample's share of CPU time (`samples` pairs a value with its steal).
/// Time stolen by other guests only ever slows a run, so the quieter half
/// is what the code under test sets; a burst of steal cannot move a median
/// taken over it.
pub fn quiet_half(samples: &[(f64, f64)]) -> Vec<f64> {
    let cut = median(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    samples.iter().filter(|s| s.1 <= cut).map(|s| s.0).collect()
}

/// Per traced item self time of each span name, in ms.
pub fn insert_self_times(v: &mut Values, spans: &[Span], items: usize) {
    for (name, ns) in self_time_by_name(spans) {
        let key = per_layer_key(&format!("self_ms.{name}"));
        v.insert(key, ratio(ns as f64 / 1e6, items as f64));
    }
    v.insert("trace.spans", spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_half_drops_the_samples_with_more_steal() {
        let samples = [
            (10.0, 0.0),
            (30.0, 0.4),
            (11.0, 0.01),
            (12.0, 0.0),
            (25.0, 0.2),
        ];
        assert_eq!(quiet_half(&samples), vec![10.0, 11.0, 12.0]);
        // Ties at the cut are kept: a quiet host keeps every sample.
        let quiet = [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
        assert_eq!(quiet_half(&quiet), vec![1.0, 2.0, 3.0]);
    }
}
