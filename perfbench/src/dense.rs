//! The closed-loop dense workloads: one caller, one `QrContext`.

use std::time::Instant;

use tileqr_kernels::flops::qr_flops;
use tileqr_matrix::norms::frobenius_norm;
use tileqr_matrix::Matrix;
use tileqr_runtime::driver::QrConfig;
use tileqr_runtime::{QrContext, QrError, QrPlan};

use crate::inputs;
use crate::probes::{self, ModelInputs};
use crate::provenance::{cpu_ticks, peak_rss_mb, steal_frac};
use crate::stats::{median, ratio, sorted, tail};
use crate::trace::Tracer;
use crate::workloads::{
    insert_self_times, quiet_half, rel_diff, secs, timed_setup, Args, Outcome, MATCH_RTOL,
    VALIDATE_TOL,
};

/// One caller, one matrix shape; `rhs > 0` makes each item a least-squares
/// solve with that many right-hand sides.
pub struct Dense {
    m: usize,
    n: usize,
    nb: usize,
    rhs: usize,
    probe_1t_reps: usize,
}

/// A 5120 × 512 least-squares problem with 8 right-hand sides: p = 40,
/// q = 4 tiles of order 128.
pub const TALL: Dense = Dense {
    m: 5120,
    n: 512,
    nb: 128,
    rhs: 8,
    probe_1t_reps: 5,
};

/// A 1536 × 1536 factorization: p = q = 12 tiles of order 128.
pub const SQUARE: Dense = Dense {
    m: 1536,
    n: 1536,
    nb: 128,
    rhs: 0,
    probe_1t_reps: 3,
};

/// Per-item wall times of the calls one dense item makes.
#[derive(Default)]
struct DenseTimes {
    item: Vec<f64>,
    factor: Vec<f64>,
    apply_qh: Vec<f64>,
    r: Vec<f64>,
    backsub: Vec<f64>,
}

/// `R x = (Qᴴ b)[0..n]` for every column of `qhb`.
fn back_substitute(r: &Matrix<f64>, qhb: &Matrix<f64>) -> Matrix<f64> {
    let n = r.rows();
    let mut x = Matrix::zeros(n, qhb.cols());
    for j in 0..qhb.cols() {
        let sol = r.solve_upper_triangular(&qhb.col(j)[..n]);
        x.col_mut(j).copy_from_slice(&sol);
    }
    x
}

/// `‖Aᵀ(AX − B)‖_F / (‖A‖_F · ‖AX − B‖_F)`: zero at the exact least-squares
/// solution, whatever the conditioning.
fn normal_residual(a: &Matrix<f64>, x: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    let resid = a.matmul(x).sub(b);
    let mut at_r = Matrix::zeros(a.cols(), b.cols());
    for k in 0..b.cols() {
        for j in 0..a.cols() {
            let dot: f64 = a.col(j).iter().zip(resid.col(k)).map(|(x, y)| x * y).sum();
            at_r.set(j, k, dot);
        }
    }
    ratio(
        frobenius_norm(&at_r),
        frobenius_norm(a) * frobenius_norm(&resid),
    )
}

pub fn run(args: &Args, shape: &Dense) -> Result<Outcome, QrError> {
    let mut out = Outcome::default();
    let config = QrConfig::new(shape.nb);
    let a = inputs::matrix(args.seed, 1, shape.m, shape.n);
    let b = inputs::matrix(args.seed, 2, shape.m, shape.rhs);

    // One item: factorize, then (least squares) Qᴴ·B, R and back-substitution.
    let run_item = |ctx: &QrContext, plan: &QrPlan<f64>, times: &mut DenseTimes| {
        let t0 = Instant::now();
        let f = ctx.factorize(plan, &a)?;
        let t1 = Instant::now();
        let (x, t) = if shape.rhs > 0 {
            let qhb = f.apply_qh(&b);
            let t2 = Instant::now();
            let r = f.r();
            let t3 = Instant::now();
            let x = back_substitute(&r, &qhb);
            let t4 = Instant::now();
            times.apply_qh.push(secs(t2 - t1));
            times.r.push(secs(t3 - t2));
            times.backsub.push(secs(t4 - t3));
            (Some(x), [t0, t1, t2, t3, t4])
        } else {
            (None, [t0, t1, t1, t1, t1])
        };
        times.item.push(secs(t[4] - t0));
        times.factor.push(secs(t1 - t0));
        Ok::<_, QrError>((t, f, x))
    };

    // Reference on a one-thread context, validated before anything is timed.
    let reference = {
        let plan = QrPlan::new(shape.m, shape.n, config)?;
        let (_, f, x) = run_item(&QrContext::new(1)?, &plan, &mut DenseTimes::default())?;
        let (res, orth) = (f.residual(&a), f.orthogonality());
        let normal = x.as_ref().map_or(0.0, |x| normal_residual(&a, x, &b));
        out.note(format!(
            "reference (1 thread): |A-QR|/|A| = {res:.2e}, |QᴴQ-I| = {orth:.2e}, \
             normal-equation residual = {normal:.2e} (limit {VALIDATE_TOL:.0e})"
        ));
        if !(res < VALIDATE_TOL && orth < VALIDATE_TOL && normal < VALIDATE_TOL) {
            out.mismatches += 1;
            out.note("reference failed validation".into());
        }
        x.unwrap_or_else(|| f.r())
    };

    let ((ctx, plan), setup_s) = timed_setup(|| {
        let ctx = QrContext::new(args.workers)?;
        let plan = QrPlan::new(shape.m, shape.n, config)?;
        run_item(&ctx, &plan, &mut DenseTimes::default())?;
        Ok((ctx, plan))
    })?;

    // Timed closed loop; a traced run traces its second half only.
    let tracer = Tracer::new(args.trace, Instant::now());
    let mut plain = DenseTimes::default();
    let mut traced = DenseTimes::default();
    // (item seconds, host steal during the item) of the untraced items.
    let mut plain_steal = Vec::new();
    let start = Instant::now();
    let ticks = cpu_ticks();
    let mut request = 0u64;
    while secs(start.elapsed()) < args.seconds {
        let trace_this = args.trace && secs(start.elapsed()) >= args.seconds / 2.0;
        let times = if trace_this { &mut traced } else { &mut plain };
        out.attempted += 1;
        let item_ticks = cpu_ticks();
        let (t, f, x) = match run_item(&ctx, &plan, times) {
            Ok(done) => done,
            Err(e) => {
                out.errors += 1;
                out.note(format!("item {request} failed: {e}"));
                continue;
            }
        };
        if !trace_this {
            plain_steal.push((secs(t[4] - t[0]), steal_frac(item_ticks, cpu_ticks())));
        }
        if trace_this {
            let root = tracer.new_id();
            tracer.record(root, "context.factorize", request, t[0], t[1]);
            if shape.rhs > 0 {
                tracer.record(root, "driver.apply_qh", request, t[1], t[2]);
                tracer.record(root, "driver.r", request, t[2], t[3]);
                tracer.record(root, "solve.backsub", request, t[3], t[4]);
            }
            tracer.record_with_id(root, 0, "item", request, t[0], t[4]);
        }
        let got = x.unwrap_or_else(|| f.r());
        let diff = rel_diff(&got, &reference);
        if diff.is_nan() || diff > MATCH_RTOL {
            out.mismatches += 1;
            out.note(format!(
                "item {request}: relative distance {diff:.2e} from the reference"
            ));
        }
        request += 1;
    }
    let steal = steal_frac(ticks, cpu_ticks());
    out.note(format!(
        "host steal during the timed loop: {:.1}% of CPU time",
        steal * 100.0
    ));
    out.values.insert("host.steal_frac", steal);
    drop(ctx);
    let flops = qr_flops(shape.m, shape.n);

    let v = &mut out.values;
    if !args.trace {
        // One caller: throughput and rate follow from the median item of the
        // quieter half (see `quiet_half`).
        let item_s = median(&quiet_half(&plain_steal));
        v.insert("setup_s", setup_s);
        v.insert("peak_rss_mb", peak_rss_mb());
        v.insert("latency_ms_p50", item_s * 1e3);
        v.insert("throughput_per_s", ratio(1.0, item_s));
        v.insert("gflops", ratio(flops, item_s) / 1e9);
        let s = sorted(&plain.item);
        if let Some((pct, val)) = tail(&s) {
            out.notes.push(format!(
                "item p{pct} = {:.3} ms over {} items",
                val * 1e3,
                s.len()
            ));
        }
        return Ok(out);
    }

    let spans = tracer.into_spans();
    insert_self_times(v, &spans, traced.item.len());
    out.spans = spans;
    let v = &mut out.values;
    v.insert(
        "trace.overhead_frac",
        ratio(median(&traced.item), median(&plain.item)) - 1.0,
    );
    v.insert("driver.apply_qh_s_p50", median(&traced.apply_qh));
    v.insert("driver.r_s_p50", median(&traced.r));
    v.insert("solve.backsub_s_p50", median(&traced.backsub));
    if shape.rhs > 0 {
        let padded = shape.rhs.div_ceil(shape.nb) * shape.nb;
        v.insert(
            "driver.apply_useful_frac",
            ratio(shape.rhs as f64, padded as f64),
        );
    }
    v.insert(
        "core.plan_build_s",
        probes::plan_build_s(shape.m, shape.n, config),
    );
    let kernels = probes::kernel_times(shape.nb, config.effective_inner_block(), args.seed);
    kernels.insert(v);
    let (copy_s, bytes) = probes::tile_copy(&a, shape.nb);
    v.insert("matrix.tile_copy_s", copy_s);
    v.insert("matrix.tile_copy_gbps", ratio(bytes, copy_s) / 1e9);
    let one = QrContext::new(1)?;
    let factor_1t = probes::factor_s(&one, &plan, &a, shape.probe_1t_reps);
    ModelInputs::of(&[&plan], &kernels).insert(v, args.workers, median(&traced.factor), factor_1t);
    Ok(out)
}
