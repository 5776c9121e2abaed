//! Per-layer probes of the traced run: each times one layer through its
//! public calls, outside the end-to-end loop.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tileqr_core::perfmodel::{predicted_rate, PredictionInput};
use tileqr_core::sim::critical_path;
use tileqr_core::{TaskDag, TaskKind};
use tileqr_kernels::flops::{gemm_flops, KernelKind};
use tileqr_kernels::microblas::{gemm_matrix, AMode};
use tileqr_kernels::{geqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace};
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::driver::{elimination_list_for, QrConfig};
use tileqr_runtime::{QrContext, QrPlan};

use crate::inputs;
use crate::stats::{median, ratio};

pub type Values = BTreeMap<&'static str, f64>;

/// Median seconds per call of `f`: two warm-up calls, then batches sized to
/// about a millisecond until `budget` has passed.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-7);
    let batch = ((1e-3 / one) as usize).max(1);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples)
}

/// Warm, isolated seconds per call of the GEMM ceiling and the four TT
/// kernels at tile order `nb` and inner blocking `ib`.
pub struct KernelTimes {
    nb: usize,
    gemm: f64,
    geqrt: f64,
    ttqrt: f64,
    unmqr: f64,
    ttmqr: f64,
}

pub fn kernel_times(nb: usize, ib: usize, seed: u64) -> KernelTimes {
    const BUDGET: Duration = Duration::from_millis(200);
    let mut ws: Workspace<f64> = Workspace::with_inner_block(nb, ib);
    let tile = |stream: u64| inputs::matrix(seed, 0x4B00 + stream, nb, nb);
    let upper = |stream: u64| {
        let mut r = tile(stream);
        r.zero_below_diagonal();
        r
    };

    let (a, b) = (tile(1), tile(2));
    let mut c = tile(3);
    let gemm = per_call(BUDGET, || {
        gemm_matrix(&mut c, AMode::NoTrans, &a, &b, false)
    });

    let src = tile(4);
    let mut work = src.clone();
    let mut t = Matrix::zeros(ib, nb);
    let geqrt = per_call(BUDGET, || {
        work.as_mut_slice().copy_from_slice(src.as_slice());
        geqrt_ws(&mut work, &mut t, &mut ws);
    });
    // `work`/`t` now hold a factored tile: the reflectors UNMQR replays.
    let mut c1 = tile(5);
    let unmqr = per_call(BUDGET, || {
        unmqr_ws(&work, &t, &mut c1, Trans::ConjTrans, &mut ws)
    });

    let (r1_src, r2_src) = (upper(6), upper(7));
    let (mut r1, mut r2) = (r1_src.clone(), r2_src.clone());
    let mut t2 = Matrix::zeros(ib, nb);
    let ttqrt = per_call(BUDGET, || {
        r1.as_mut_slice().copy_from_slice(r1_src.as_slice());
        r2.as_mut_slice().copy_from_slice(r2_src.as_slice());
        ttqrt_ws(&mut r1, &mut r2, &mut t2, &mut ws);
    });
    let (mut d1, mut d2) = (tile(8), tile(9));
    let ttmqr = per_call(BUDGET, || {
        ttmqr_ws(&r2, &t2, &mut d1, &mut d2, Trans::ConjTrans, &mut ws)
    });
    KernelTimes {
        nb,
        gemm,
        geqrt,
        ttqrt,
        unmqr,
        ttmqr,
    }
}

impl KernelTimes {
    pub fn insert(&self, v: &mut Values) {
        let rate = |kind: KernelKind, secs: f64| kind.flops(self.nb) / secs / 1e9;
        v.insert("kernels.gemm_gflops", gemm_flops(self.nb) / self.gemm / 1e9);
        v.insert("kernels.geqrt_gflops", rate(KernelKind::Geqrt, self.geqrt));
        v.insert("kernels.ttqrt_gflops", rate(KernelKind::Ttqrt, self.ttqrt));
        v.insert("kernels.unmqr_gflops", rate(KernelKind::Unmqr, self.unmqr));
        v.insert("kernels.ttmqr_gflops", rate(KernelKind::Ttmqr, self.ttmqr));
    }

    /// The isolated kernel times summed over every task of `dag`.
    pub fn seq_model_s(&self, dag: &TaskDag) -> f64 {
        dag.tasks
            .iter()
            .map(|t| match t.kind {
                TaskKind::Geqrt { .. } => self.geqrt,
                TaskKind::Unmqr { .. } => self.unmqr,
                TaskKind::Ttqrt { .. } => self.ttqrt,
                TaskKind::Ttmqr { .. } => self.ttmqr,
                other => panic!(
                    "{} is a TS kernel; the workloads use the TT family",
                    other.kernel_name()
                ),
            })
            .sum()
    }
}

/// The task DAG a plan executes, rebuilt from its public shape parameters.
fn dag_of(plan: &QrPlan<f64>) -> TaskDag {
    let list = elimination_list_for(plan.algorithm(), plan.tile_rows(), plan.tile_cols());
    TaskDag::build(&list, plan.family())
}

/// Median seconds of `QrPlan::new` for one shape.
pub fn plan_build_s(m: usize, n: usize, config: QrConfig) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let plan = QrPlan::<f64>::new(m, n, config).expect("benchmark shapes are valid");
            let s = t.elapsed().as_secs_f64();
            drop(plan);
            s
        })
        .collect();
    median(&samples)
}

/// Median seconds of `TiledMatrix::from_dense_padded` and the bytes it
/// moves (dense read plus tile write, computed from the sizes).
pub fn tile_copy(a: &Matrix<f64>, nb: usize) -> (f64, f64) {
    let mut bytes = 0.0;
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let tiles = TiledMatrix::from_dense_padded(a, nb);
            let s = t.elapsed().as_secs_f64();
            let padded = tiles.tile_rows() * tiles.tile_cols() * nb * nb;
            bytes = ((a.rows() * a.cols() + padded) * std::mem::size_of::<f64>()) as f64;
            s
        })
        .collect();
    (median(&samples), bytes)
}

/// Median seconds of `reps` factorizations of `a` on `ctx`.
pub fn factor_s(ctx: &QrContext, plan: &QrPlan<f64>, a: &Matrix<f64>, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let f = ctx.factorize(plan, a).expect("reference inputs factor");
            let s = t.elapsed().as_secs_f64();
            drop(f);
            s
        })
        .collect();
    median(&samples)
}

/// What the paper's model needs about the work a workload's item runs.
pub struct ModelInputs {
    pub flops: f64,
    pub tasks: usize,
    pub total_weight: u64,
    pub cp_weight: u64,
    pub seq_model_s: f64,
}

impl ModelInputs {
    /// The model quantities of one item of each plan, run together: work
    /// adds up, the critical path is the longest one.
    pub fn of(plans: &[&QrPlan<f64>], kernels: &KernelTimes) -> Self {
        let mut out = ModelInputs {
            flops: 0.0,
            tasks: 0,
            total_weight: 0,
            cp_weight: 0,
            seq_model_s: 0.0,
        };
        for plan in plans {
            let dag = dag_of(plan);
            let list = elimination_list_for(plan.algorithm(), plan.tile_rows(), plan.tile_cols());
            out.flops += tileqr_kernels::flops::qr_flops(plan.m(), plan.n());
            out.tasks += plan.task_count();
            out.total_weight += dag.total_weight();
            out.cp_weight = out.cp_weight.max(critical_path(&list, plan.family()));
            out.seq_model_s += kernels.seq_model_s(&dag);
        }
        out
    }

    /// Inserts the `core.*` counts and the `context.*` figures of one item
    /// timed at `factor_s` on `workers` threads and `factor_1t_s` on one;
    /// γ_seq is this run's one-thread rate.
    pub fn insert(&self, v: &mut Values, workers: usize, factor_s: f64, factor_1t_s: f64) {
        let gamma_seq = ratio(self.flops, factor_1t_s) / 1e9;
        let pred = predicted_rate(PredictionInput {
            total_weight: self.total_weight,
            critical_path: self.cp_weight,
            processors: workers,
            gamma_seq,
        });
        v.insert("core.tasks", self.tasks as f64);
        v.insert("core.total_weight", self.total_weight as f64);
        v.insert("core.cp_weight", self.cp_weight as f64);
        v.insert("core.pred_gflops", pred);
        v.insert("kernels.seq_model_s", self.seq_model_s);
        v.insert("context.factor_s_p50", factor_s);
        v.insert("context.factor_1t_s_p50", factor_1t_s);
        v.insert("context.speedup", ratio(factor_1t_s, factor_s));
        v.insert(
            "context.model_eff",
            ratio(ratio(self.flops, factor_s) / 1e9, pred),
        );
        v.insert(
            "context.insitu_overhead",
            ratio(factor_1t_s, self.seq_model_s),
        );
    }
}
