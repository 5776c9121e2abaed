//! The mixed-tenant service stream: three tenants, one shape each, all
//! traffic through one `QrService`.
//!
//! The untraced run measures the `capacity` phase, a closed loop keeping 16
//! requests outstanding. The traced run repeats it (second half traced) and
//! adds two open-loop phases with Poisson arrivals, `light` (150 req/s) and
//! `busy` (300 req/s), each on a fresh service. Every phase draws the
//! tenant and input of each request from the seed.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tileqr_kernels::flops::qr_flops;
use tileqr_matrix::Matrix;
use tileqr_runtime::driver::{QrConfig, QrFactorization};
use tileqr_runtime::{
    QrClient, QrContext, QrError, QrPlan, QrService, ServiceConfig, ServiceStats, Ticket,
};

use crate::inputs::{self, Arrival, Draws};
use crate::metrics::per_layer_key;
use crate::probes::{self, ModelInputs, Values};
use crate::provenance::{cpu_ticks, peak_rss_mb, steal_frac};
use crate::stats::{median, percentile, ratio, sorted, tail};
use crate::trace::Tracer;
use crate::workloads::{
    insert_self_times, quiet_half, rel_diff, secs, timed_setup, Args, Outcome, MATCH_RTOL,
    VALIDATE_TOL,
};

/// Tile order of the service tenants.
const NB: usize = 32;
/// One shape per tenant: 8 × 4, 6 × 3 and 4 × 4 tiles of order 32.
const SHAPES: [(usize, usize); 3] = [(256, 128), (192, 96), (128, 128)];
/// Distinct input matrices per tenant; the seed draws one per request.
const INPUTS: usize = 4;
/// Requests the `capacity` phase keeps outstanding.
const OUTSTANDING: usize = 16;
/// Offered rates of the open-loop phases, requests per second.
const LIGHT_RATE: f64 = 150.0;
const BUSY_RATE: f64 = 300.0;
/// How long the collector blocks on the oldest ticket before re-checking
/// the others: bounds how late a resolve can be observed.
const POLL: Duration = Duration::from_micros(250);
/// The generator sleeps until this long before a due time, then spins.
const SPIN: Duration = Duration::from_micros(200);
/// Length of the windows throughput is counted in, seconds.
const WINDOW: f64 = 1.0;

/// A tenant's inputs and their one-thread reference `R` factors.
struct Tenant {
    inputs: Vec<Matrix<f64>>,
    r_ref: Vec<Matrix<f64>>,
    flops: f64,
}

/// A running service with one plan and one client per tenant.
struct Setup {
    svc: QrService<f64>,
    plans: Vec<Arc<QrPlan<f64>>>,
    clients: Vec<QrClient<f64>>,
}

/// The timestamps of one accepted request.
#[derive(Clone, Copy)]
struct Sent {
    request: u64,
    arrival: Arrival,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    traced: bool,
}

struct Pending {
    ticket: Ticket<f64>,
    sent: Sent,
}

/// What a phase observed, per resolved request.
#[derive(Default)]
struct Observed {
    latency: Vec<f64>,
    /// Seconds into the phase at which each `latency` sample resolved.
    latency_at: Vec<f64>,
    latency_traced: Vec<f64>,
    wait: Vec<f64>,
    submit: Vec<f64>,
    late: Vec<f64>,
    errors: u64,
    mismatches: u64,
    refused: u64,
    /// Seconds into the phase at which each successful request resolved,
    /// with its flops.
    done_at: Vec<(f64, f64)>,
    /// Host steal during each whole [`WINDOW`] (closed loop only).
    window_steal: Vec<f64>,
    notes: Vec<String>,
}

impl Observed {
    /// Median latency, completions per second and flops per second over
    /// the quieter half (see `quiet_half`) of the phase's whole
    /// [`WINDOW`]s. A stalled window moves a median by at most one rank,
    /// where it would drag a whole-phase average.
    fn quiet_rates(&self) -> (f64, f64, f64) {
        let steal = &self.window_steal;
        let mut items = vec![0.0; steal.len()];
        let mut flops = vec![0.0; steal.len()];
        for &(t, f) in &self.done_at {
            if let Some(w) = items.get_mut((t / WINDOW) as usize) {
                *w += 1.0 / WINDOW;
                flops[(t / WINDOW) as usize] += f / WINDOW;
            }
        }
        let with_steal = |v: &[f64]| -> Vec<(f64, f64)> {
            v.iter().copied().zip(steal.iter().copied()).collect()
        };
        let latency: Vec<(f64, f64)> = self
            .latency
            .iter()
            .zip(&self.latency_at)
            .filter_map(|(&l, &t)| steal.get((t / WINDOW) as usize).map(|&s| (l, s)))
            .collect();
        (
            median(&quiet_half(&latency)),
            median(&quiet_half(&with_steal(&items))),
            median(&quiet_half(&with_steal(&flops))),
        )
    }
}

/// Resolves tickets as they become ready: blocks on the oldest for at most
/// [`POLL`], then takes every other ready one, so a resolve is observed at
/// most `POLL` late even when requests finish out of order.
struct Collector<'a> {
    tenants: &'a [Tenant],
    tracer: &'a Tracer,
    start: Instant,
    pending: VecDeque<Pending>,
    obs: Observed,
}

impl<'a> Collector<'a> {
    fn new(tenants: &'a [Tenant], tracer: &'a Tracer, start: Instant) -> Self {
        Collector {
            tenants,
            tracer,
            start,
            pending: VecDeque::new(),
            obs: Observed::default(),
        }
    }

    fn poll(&mut self) {
        let Some(front) = self.pending.pop_front() else {
            return;
        };
        match front.ticket.wait_for(POLL) {
            Ok(outcome) => self.finish(front.sent, outcome, Instant::now()),
            Err(ticket) => self.pending.push_front(Pending {
                ticket,
                sent: front.sent,
            }),
        }
        let now = Instant::now();
        for p in std::mem::take(&mut self.pending) {
            if p.ticket.is_ready() {
                self.finish(p.sent, p.ticket.wait(), now);
            } else {
                self.pending.push_back(p);
            }
        }
    }

    fn finish(
        &mut self,
        s: Sent,
        outcome: Result<QrFactorization<f64>, QrError>,
        resolved: Instant,
    ) {
        let o = &mut self.obs;
        match outcome {
            Ok(f) => {
                let tenant = &self.tenants[s.arrival.tenant];
                o.done_at.push((secs(resolved - self.start), tenant.flops));
                let diff = rel_diff(&f.r(), &tenant.r_ref[s.arrival.input]);
                if diff.is_nan() || diff > MATCH_RTOL {
                    o.mismatches += 1;
                    o.notes.push(format!(
                        "request {}: relative distance {diff:.2e} from the reference",
                        s.request
                    ));
                }
            }
            Err(e) => {
                o.errors += 1;
                o.notes.push(format!("request {} failed: {e}", s.request));
            }
        }
        let latency = secs(resolved - s.due);
        if s.traced {
            o.latency_traced.push(latency);
            let t = self.tracer;
            let root = t.new_id();
            t.record(root, "loadgen.late", s.request, s.due, s.submit_start);
            t.record(
                root,
                "service.submit",
                s.request,
                s.submit_start,
                s.submit_end,
            );
            t.record(root, "service.wait", s.request, s.submit_end, resolved);
            t.record_with_id(root, 0, "item", s.request, s.due, resolved);
        } else {
            o.latency.push(latency);
            o.latency_at.push(secs(resolved - self.start));
        }
        o.wait.push(secs(resolved - s.submit_end));
        o.submit.push(secs(s.submit_end - s.submit_start));
        o.late.push(secs(s.submit_start - s.due));
    }
}

/// Sleeps until shortly before `due`, then spins: a spinning generator
/// would take a core from the pool.
fn pace_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The submit side of every load.
struct Sender<'a> {
    setup: &'a Setup,
    tenants: &'a [Tenant],
    next_request: &'a mut u64,
}

impl Sender<'_> {
    /// Submits `arrival`, in an open loop once `due` has come; `None` when
    /// the service refused it.
    fn send(&mut self, arrival: Arrival, due: Option<Instant>, traced: bool) -> Option<Pending> {
        let a = self.tenants[arrival.tenant].inputs[arrival.input].clone();
        if let Some(due) = due {
            pace_until(due);
        }
        let submit_start = Instant::now();
        let t = arrival.tenant;
        let result = self.setup.clients[t].submit(&self.setup.plans[t], a);
        let submit_end = Instant::now();
        let request = *self.next_request;
        *self.next_request += 1;
        result.ok().map(|ticket| Pending {
            ticket,
            sent: Sent {
                request,
                arrival,
                due: due.unwrap_or(submit_start),
                submit_start,
                submit_end,
                traced,
            },
        })
    }
}

/// Open loop: this thread paces the schedule, one collector thread resolves.
fn open_loop(
    sender: &mut Sender,
    schedule: &[Arrival],
    trace_from_ns: Option<u64>,
    tracer: &Tracer,
    start: Instant,
) -> Observed {
    let tenants = sender.tenants;
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Pending>();
        let collector = scope.spawn(move || {
            let mut c = Collector::new(tenants, tracer, start);
            loop {
                if c.pending.is_empty() {
                    match rx.recv() {
                        Ok(p) => c.pending.push_back(p),
                        Err(_) => break,
                    }
                }
                c.pending.extend(rx.try_iter());
                c.poll();
            }
            c.obs
        });
        let mut refused = 0;
        for arrival in schedule {
            let due = start + Duration::from_nanos(arrival.due_ns);
            let traced = trace_from_ns.is_some_and(|t| arrival.due_ns >= t);
            match sender.send(*arrival, Some(due), traced) {
                Some(p) => tx.send(p).expect("the collector outlives the generator"),
                None => refused += 1,
            }
        }
        drop(tx);
        let mut obs = collector.join().expect("collector thread panicked");
        obs.refused = refused;
        obs
    })
}

/// Closed loop on this thread: keeps [`OUTSTANDING`] requests in flight
/// until `seconds` have passed, then drains.
fn closed_loop(
    sender: &mut Sender,
    draws: &mut Draws,
    seconds: f64,
    trace_from: Option<f64>,
    tracer: &Tracer,
    start: Instant,
) -> Observed {
    let mut c = Collector::new(sender.tenants, tracer, start);
    let mut refused = 0;
    let windows = ((seconds / WINDOW) as usize).max(1);
    let mut marks = vec![cpu_ticks()];
    loop {
        let elapsed = secs(start.elapsed());
        while marks.len() <= windows && marks.len() as f64 * WINDOW <= elapsed {
            marks.push(cpu_ticks());
        }
        if elapsed >= seconds {
            if c.pending.is_empty() {
                break;
            }
        } else {
            let traced = trace_from.is_some_and(|t| elapsed >= t);
            while c.pending.len() < OUTSTANDING {
                match sender.send(draws.next(), None, traced) {
                    Some(p) => c.pending.push_back(p),
                    None => {
                        refused += 1;
                        break;
                    }
                }
            }
        }
        c.poll();
    }
    c.obs.refused = refused;
    c.obs.window_steal = marks.windows(2).map(|m| steal_frac(m[0], m[1])).collect();
    c.obs
}

#[derive(Clone, Copy)]
enum Load {
    Open { rate: f64 },
    Closed,
}

/// One phase's observations and service counters.
struct Phase {
    obs: Observed,
    stats: ServiceStats,
}

impl Phase {
    fn fused_width(&self) -> f64 {
        ratio(self.stats.group_items as f64, self.stats.groups as f64)
    }

    fn mixed_group_frac(&self) -> f64 {
        ratio(self.stats.mixed_groups as f64, self.stats.groups as f64)
    }
}

/// Runs one load for `seconds` on `setup`, tracing requests due after
/// `trace_from` seconds (if any).
#[allow(clippy::too_many_arguments)]
fn phase(
    setup: &Setup,
    tenants: &[Tenant],
    load: Load,
    seconds: f64,
    seed: u64,
    trace_from: Option<f64>,
    tracer: &Tracer,
    next_request: &mut u64,
) -> Phase {
    let before = setup.svc.stats();
    let mut sender = Sender {
        setup,
        tenants,
        next_request,
    };
    let start = Instant::now();
    let obs = match load {
        Load::Open { rate } => {
            let schedule = inputs::poisson_schedule(seed, rate, seconds, tenants.len(), INPUTS);
            let from_ns = trace_from.map(|t| (t * 1e9) as u64);
            open_loop(&mut sender, &schedule, from_ns, tracer, start)
        }
        Load::Closed => {
            let mut draws = Draws::new(seed, tenants.len(), INPUTS);
            closed_loop(&mut sender, &mut draws, seconds, trace_from, tracer, start)
        }
    };
    let after = setup.svc.stats();
    Phase {
        obs,
        stats: ServiceStats {
            groups: after.groups - before.groups,
            group_items: after.group_items - before.group_items,
            mixed_groups: after.mixed_groups - before.mixed_groups,
            rejected: after.rejected - before.rejected,
            retries: after.retries - before.retries,
            max_queue_depth: after.max_queue_depth,
            ..ServiceStats::default()
        },
    }
}

pub fn run(args: &Args) -> Result<Outcome, QrError> {
    let mut out = Outcome::default();
    let config = QrConfig::new(NB);

    // Inputs and their validated one-thread references.
    let ref_ctx = QrContext::new(1)?;
    let mut tenants = Vec::new();
    let mut worst = (0.0f64, 0.0f64);
    for (t, &(m, n)) in SHAPES.iter().enumerate() {
        let plan = QrPlan::new(m, n, config)?;
        let inputs: Vec<Matrix<f64>> = (0..INPUTS)
            .map(|i| inputs::matrix(args.seed, 16 + (t * INPUTS + i) as u64, m, n))
            .collect();
        let mut r_ref = Vec::new();
        for a in &inputs {
            let f = ref_ctx.factorize(&plan, a)?;
            let (res, orth) = (f.residual(a), f.orthogonality());
            if !(res < VALIDATE_TOL && orth < VALIDATE_TOL) {
                out.mismatches += 1;
                out.note(format!(
                    "reference of tenant {t} failed validation: {res:.2e}, {orth:.2e}"
                ));
            }
            worst = (worst.0.max(res), worst.1.max(orth));
            r_ref.push(f.r());
        }
        tenants.push(Tenant {
            inputs,
            r_ref,
            flops: qr_flops(m, n),
        });
    }
    drop(ref_ctx);
    out.note(format!(
        "references (1 thread, {} inputs): max |A-QR|/|A| = {:.2e}, max |QᴴQ-I| = {:.2e} \
         (limit {VALIDATE_TOL:.0e})",
        SHAPES.len() * INPUTS,
        worst.0,
        worst.1
    ));

    // The set-up: the service, a plan and client per tenant, and one
    // warm-up item per tenant.
    let build = || -> Result<Setup, QrError> {
        let svc = QrService::new(QrContext::new(args.workers)?, ServiceConfig::default())?;
        let mut plans = Vec::new();
        for &(m, n) in &SHAPES {
            plans.push(Arc::new(QrPlan::new(m, n, config)?));
        }
        let clients: Vec<QrClient<f64>> = SHAPES.iter().map(|_| svc.client()).collect();
        for (t, tenant) in tenants.iter().enumerate() {
            clients[t]
                .submit(&plans[t], tenant.inputs[0].clone())?
                .wait()?;
        }
        Ok(Setup {
            svc,
            plans,
            clients,
        })
    };
    let (setup, setup_s) = timed_setup(build)?;

    let tracer = Tracer::new(args.trace, Instant::now());
    let mut next_request = 0;
    let seed = |phase: u64| inputs::sub_seed(args.seed, 0x5E00 + phase);
    let ticks = cpu_ticks();
    let capacity = phase(
        &setup,
        &tenants,
        Load::Closed,
        args.seconds,
        seed(0),
        args.trace.then_some(args.seconds / 2.0),
        &tracer,
        &mut next_request,
    );
    let steal = steal_frac(ticks, cpu_ticks());
    out.note(format!(
        "host steal during the capacity phase: {:.1}% of CPU time",
        steal * 100.0
    ));
    out.values.insert("host.steal_frac", steal);
    let plans = setup.plans.clone();
    drop(setup);
    let mut phases = vec![("capacity", capacity)];
    if args.trace {
        for (i, (name, rate)) in [("light", LIGHT_RATE), ("busy", BUSY_RATE)]
            .into_iter()
            .enumerate()
        {
            let fresh = build()?;
            let p = phase(
                &fresh,
                &tenants,
                Load::Open { rate },
                args.seconds / 2.0,
                seed(1 + i as u64),
                Some(0.0),
                &tracer,
                &mut next_request,
            );
            phases.push((name, p));
        }
    }

    out.attempted = next_request;
    for (_, p) in &phases {
        out.refused += p.obs.refused;
        out.errors += p.obs.errors;
        out.mismatches += p.obs.mismatches;
        out.notes.extend(p.obs.notes.iter().take(10).cloned());
    }
    let cap = &phases[0].1;
    let v = &mut out.values;
    if !args.trace {
        v.insert("setup_s", setup_s);
        v.insert("peak_rss_mb", peak_rss_mb());
        let (latency, items, flops) = cap.obs.quiet_rates();
        v.insert("latency_ms_p50", latency * 1e3);
        v.insert("throughput_per_s", items);
        v.insert("gflops", flops / 1e9);
        let s = sorted(&cap.obs.latency);
        if let Some((pct, val)) = tail(&s) {
            out.notes.push(format!(
                "latency p{pct} = {:.3} ms over {} requests",
                val * 1e3,
                s.len()
            ));
        }
        return Ok(out);
    }

    insert_phase_metrics(v, &phases);
    let spans = tracer.into_spans();
    let traced_items = phases.iter().map(|(_, p)| p.obs.latency_traced.len()).sum();
    insert_self_times(v, &spans, traced_items);
    out.spans = spans;

    // Layer probes, with no service running: one item of each tenant.
    let v = &mut out.values;
    v.insert(
        "core.plan_build_s",
        SHAPES
            .iter()
            .map(|&(m, n)| probes::plan_build_s(m, n, config))
            .sum(),
    );
    let kernels = probes::kernel_times(NB, config.effective_inner_block(), args.seed);
    kernels.insert(v);
    let mut copy = (0.0, 0.0);
    for tenant in &tenants {
        let (s, bytes) = probes::tile_copy(&tenant.inputs[0], NB);
        copy = (copy.0 + s, copy.1 + bytes);
    }
    v.insert("matrix.tile_copy_s", copy.0 / tenants.len() as f64);
    v.insert("matrix.tile_copy_gbps", ratio(copy.1, copy.0) / 1e9);
    let (pool, one) = (QrContext::new(args.workers)?, QrContext::new(1)?);
    let (mut t2, mut t1) = (0.0, 0.0);
    for (plan, tenant) in plans.iter().zip(&tenants) {
        t2 += probes::factor_s(&pool, plan, &tenant.inputs[0], 31);
        t1 += probes::factor_s(&one, plan, &tenant.inputs[0], 31);
    }
    let plan_refs: Vec<&QrPlan<f64>> = plans.iter().map(|p| p.as_ref()).collect();
    ModelInputs::of(&plan_refs, &kernels).insert(v, args.workers, t2, t1);
    Ok(out)
}

/// The per-phase `service.*` and `loadgen.*` diagnostics of a traced run.
fn insert_phase_metrics(v: &mut Values, phases: &[(&str, Phase)]) {
    let key = |base: &str, phase: &str| per_layer_key(&format!("{base}.{phase}"));
    let (cap_plain, cap_traced) = (&phases[0].1.obs.latency, &phases[0].1.obs.latency_traced);
    v.insert(
        "trace.overhead_frac",
        ratio(median(cap_traced), median(cap_plain)) - 1.0,
    );
    let mut submit = Vec::new();
    let mut late = Vec::new();
    for (name, p) in phases {
        submit.extend(&p.obs.submit);
        v.insert(key("service.wait_ms_p50", name), median(&p.obs.wait) * 1e3);
        v.insert(key("service.fused_width", name), p.fused_width());
        v.insert(key("service.mixed_group_frac", name), p.mixed_group_frac());
        v.insert(
            key("service.max_queue_depth", name),
            p.stats.max_queue_depth as f64,
        );
        *v.entry("service.rejected").or_default() += p.stats.rejected as f64;
        *v.entry("service.retries").or_default() += p.stats.retries as f64;
        if *name == "capacity" {
            continue;
        }
        late.extend(&p.obs.late);
        let s = sorted(&p.obs.latency_traced);
        v.insert(
            key("service.latency_ms_p50", name),
            percentile(&s, 0.5) * 1e3,
        );
        v.insert(key("service.latency_samples", name), s.len() as f64);
        if let Some((pct, val)) = tail(&s) {
            v.insert(key("service.latency_ms_tail", name), val * 1e3);
            v.insert(key("service.latency_tail_pct", name), pct);
        }
    }
    v.insert("service.submit_us_p50", median(&submit) * 1e6);
    let late = sorted(&late);
    v.insert("loadgen.late_ms_p50", percentile(&late, 0.5) * 1e3);
    v.insert(
        "loadgen.late_ms_max",
        late.last().copied().unwrap_or(0.0) * 1e3,
    );
}
