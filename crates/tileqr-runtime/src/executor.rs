//! The DAG execution engine's worker loop and its pluggable ready-task
//! scheduler.
//!
//! The task graph built by `tileqr-core` is already in topological order with
//! explicit predecessor lists. Every run — one factorization, a batch, a
//! traced run, a service group — executes through one engine: the fused
//! streaming job of [`crate::context`], which calls `drive_worker` once per
//! pool worker, or once inline on the caller thread when the context has a
//! single thread. The loop pulls ready tasks from a [`Scheduler`], runs them
//! under per-task panic containment, and releases their successors as they
//! finish — a miniature version of the PLASMA/QUARK dynamic scheduler used in
//! the paper's experiments. [`execute_sequential_with`] is the plain
//! topological-order walk that tests compare the engine against.
//!
//! # Schedulers
//!
//! *Which* ready task a worker runs next is delegated to the [`Scheduler`]
//! trait; [`SchedulerKind`] selects between the two implementations:
//!
//! * [`SchedulerKind::WorkStealing`] — one Chase–Lev
//!   [`WorkerDeque`](crate::sync::WorkerDeque) per worker plus a global FIFO
//!   injector holding the initially-ready tasks. A worker pushes the tasks it
//!   enables onto its *own* deque and pops them back LIFO (cache-warm tiles);
//!   an idle worker first drains the injector, then steals the *oldest* task
//!   from a sibling. No lock is ever taken on the hot path.
//! * [`SchedulerKind::WorkStealingPriority`] — same deques, but each batch of
//!   newly-enabled tasks is pushed in increasing **critical-path priority**
//!   order ([`TaskDag::priorities`]: the weighted longest path from the task
//!   to a DAG exit), so the owner pops the most critical task first while
//!   stealers take the least critical — the paper's thesis that measured time
//!   tracks the critical path, applied to the runtime itself. The injector is
//!   seeded in decreasing priority order too.
//!
//! Both schedulers preallocate every buffer from the task count during
//! setup, preserving the engine's **zero per-task allocation** guarantee
//! (verified by the counting-allocator integration test). Idle workers back
//! off with [`Backoff`](crate::sync::Backoff) (spin → yield → bounded park),
//! so they stop burning a core at the tail of the DAG.
//!
//! [`TaskDag::priorities`]: tileqr_core::dag::TaskDag::priorities

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::shim::{AtomicBool, AtomicUsize};

use tileqr_core::dag::{SuccessorsCsr, TaskDag};
use tileqr_core::TaskKind;

use crate::pool::RunCtl;
use crate::sync::{Backoff, CancelToken, Steal, TaskQueue, WorkerDeque};

/// Executes every task in topological order, threading a caller-provided
/// workspace through the task closure — the reference walk the engine is
/// tested against.
pub fn execute_sequential_with<W, F>(dag: &TaskDag, ws: &mut W, mut run: F)
where
    F: FnMut(TaskKind, &mut W),
{
    for task in &dag.tasks {
        run(task.kind, ws);
    }
}

/// Selects the ready-task scheduling policy of the engine; see the
/// [module docs](self) for what each policy does.
///
/// The default is plain [`SchedulerKind::WorkStealing`]: LIFO owner pops
/// walk the DAG depth-first over the tiles the worker just touched, which
/// measures fastest when cores are scarce (the `bench_executor` ablation).
/// [`SchedulerKind::WorkStealingPriority`] trades some of that locality for
/// critical-path order — the right trade once the machine has enough cores
/// that the critical path, not the work, binds the makespan (the paper's
/// regime of interest).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Per-worker Chase–Lev deques + global injector; LIFO owner pop, FIFO
    /// steal (the default).
    #[default]
    WorkStealing,
    /// Work stealing with owner deques ordered by weighted
    /// critical-path-to-exit priority.
    WorkStealingPriority,
}

impl SchedulerKind {
    /// Short display name (`"work_stealing"`, `"ws_priority"`), used by the
    /// bench layer.
    pub const fn name(self) -> &'static str {
        match self {
            SchedulerKind::WorkStealing => "work_stealing",
            SchedulerKind::WorkStealingPriority => "ws_priority",
        }
    }

    /// All scheduler kinds, for ablation sweeps.
    pub const ALL: [SchedulerKind; 2] = [
        SchedulerKind::WorkStealing,
        SchedulerKind::WorkStealingPriority,
    ];
}

/// A ready-task multiplexer between the workers of the engine.
///
/// The engine drives the scheduler through three calls:
///
/// 1. [`Scheduler::seed`] once, before any worker starts, with every task
///    whose dependency count is zero;
/// 2. [`Scheduler::push_ready`] from worker `w` each time completing a task
///    enables a batch of successors (the batch slice is scratch owned by the
///    worker — implementations may reorder it in place). The scheduler may
///    hand one task of the batch straight back as a **work-first
///    continuation**: the worker runs it immediately, skipping a queue
///    round-trip — for chains of dependent tasks (the bulk of a tiled-QR
///    DAG) this removes the scheduler from the hot path entirely;
/// 3. [`Scheduler::pop`] from worker `w` to obtain the next task to run
///    when it has no continuation in hand.
///
/// Contract: every index handed to `seed`/`push_ready` must come back
/// exactly once — either as a `push_ready` continuation or from one `pop` —
/// and implementations must not allocate in `push_ready`/`pop` (all buffers
/// are sized from the DAG during construction). A `pop` returning `None` is
/// *transient* — the engine re-checks its completion counter and retries
/// with backoff.
pub trait Scheduler: Sync {
    /// Makes the initially-ready tasks available before the pool starts.
    /// The slice may be reordered in place.
    fn seed(&self, roots: &mut [usize]);

    /// Makes a batch of newly-enabled tasks available; called by worker `w`
    /// on its own hot path. The slice may be reordered in place. A returned
    /// task is *not* enqueued: the worker must run it next.
    fn push_ready(&self, w: usize, ready: &mut [usize]) -> Option<usize>;

    /// Returns the next task for worker `w`, or `None` if no runnable task
    /// was found right now.
    fn pop(&self, w: usize) -> Option<usize>;
}

/// Per-worker Chase–Lev deques with a global FIFO injector for the
/// initially-ready tasks.
pub struct WorkStealing {
    /// Initially-ready tasks; drained when a worker's own deque is empty.
    injector: TaskQueue,
    /// Set once the injector has been observed empty. Tasks enter the
    /// injector only during [`Scheduler::seed`], so "drained" is permanent
    /// and idle workers stop taking the injector lock on every miss.
    injector_drained: AtomicBool,
    /// One deque per worker; worker `w` owns `deques[w]`.
    deques: Vec<WorkerDeque>,
}

impl WorkStealing {
    /// Builds the scheduler: `workers` deques, each able to hold the whole
    /// DAG (`num_tasks` indices), so pushes can never overflow.
    pub fn new(num_tasks: usize, workers: usize) -> Self {
        WorkStealing {
            injector: TaskQueue::with_capacity(num_tasks),
            injector_drained: AtomicBool::new(false),
            deques: (0..workers.max(1))
                .map(|_| WorkerDeque::with_capacity(num_tasks))
                .collect(),
        }
    }

    /// Pop order shared by both stealing schedulers: own deque (LIFO), then
    /// the injector, then one stealing sweep over the siblings starting
    /// after `w` (so the victims are spread instead of all workers mobbing
    /// worker 0).
    #[inline]
    fn pop_from(&self, w: usize) -> Option<usize> {
        if let Some(task) = self.deques[w].pop() {
            return Some(task);
        }
        if !self.injector_drained.load(Ordering::Relaxed) {
            match self.injector.pop() {
                Some(task) => return Some(task),
                None => self.injector_drained.store(true, Ordering::Relaxed),
            }
        }
        let n = self.deques.len();
        for step in 1..n {
            let victim = (w + step) % n;
            loop {
                match self.deques[victim].steal() {
                    Steal::Success(task) => return Some(task),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }
}

impl Scheduler for WorkStealing {
    fn seed(&self, roots: &mut [usize]) {
        for &r in roots.iter() {
            self.injector.push(r);
        }
    }

    /// Keeps the first successor (topological order — the tiles the worker
    /// just touched) as the work-first continuation and publishes the rest,
    /// reverse-pushed so the owner's LIFO pop visits them in original
    /// order.
    fn push_ready(&self, w: usize, ready: &mut [usize]) -> Option<usize> {
        let (&next, rest) = ready.split_first()?;
        for &r in rest.iter().rev() {
            self.deques[w].push(r);
        }
        Some(next)
    }

    fn pop(&self, w: usize) -> Option<usize> {
        self.pop_from(w)
    }
}

/// Work stealing with critical-path priorities: each batch of newly-enabled
/// tasks is pushed so the owner pops the task with the largest weighted
/// critical-path-to-exit first, and stealers take the least critical one.
pub struct WorkStealingPriority {
    inner: WorkStealing,
    /// `tables[c]` is copy `c`'s shared per-shape priority table: the
    /// weighted longest path from each task to its DAG's exit
    /// ([`TaskDag::priorities`](tileqr_core::dag::TaskDag::priorities)). A
    /// reusable plan hands the same table to many jobs without copying it.
    tables: Vec<Arc<[u64]>>,
    /// `g → (copy, local)` over the tables' lengths — the job's own id
    /// geometry. Equal-length tables collapse to the uniform map, which
    /// ranks `g` by `tables[g / n][g % n]`.
    map: ItemMap,
}

impl WorkStealingPriority {
    /// Builds the scheduler from precomputed per-task priorities.
    pub fn new(priority: Vec<u64>, workers: usize) -> Self {
        WorkStealingPriority::new_shared(priority.into(), workers)
    }

    /// Builds the scheduler from a shared priority table — the allocation-free
    /// path used by [`QrPlan`](crate::context::QrPlan), which computes the
    /// priorities once and reuses them for every factorization of the shape.
    pub fn new_shared(priority: Arc<[u64]>, workers: usize) -> Self {
        WorkStealingPriority::new_shared_offsets(vec![priority], workers)
    }

    /// Builds the scheduler for a fused group: `tables[c]` is copy `c`'s
    /// shared per-shape priority table, and copy `c` owns the contiguous
    /// global id range starting at the prefix sum of the earlier table
    /// lengths — the same `g → (copy, local)` contract as
    /// [`ItemMap::from_counts`]. Tables are `Arc` clones of each plan's
    /// cached priorities, so a group costs one small `Vec` per job, not a
    /// fused priority table.
    pub fn new_shared_offsets(tables: Vec<Arc<[u64]>>, workers: usize) -> Self {
        let counts: Vec<usize> = tables.iter().map(|t| t.len()).collect();
        WorkStealingPriority {
            inner: WorkStealing::new(counts.iter().sum(), workers),
            map: ItemMap::from_counts(&counts),
            tables,
        }
    }

    #[inline]
    fn rank(&self, t: usize) -> u64 {
        let (copy, local) = self.map.locate(t);
        self.tables[copy][local]
    }

    /// Sorts a batch by ascending priority, in place, without allocating
    /// (`sort_unstable` is in-place, and batches are bounded by the DAG's
    /// maximum out-degree — `O(q)` for tiled QR).
    #[inline]
    fn sort_ascending(&self, batch: &mut [usize]) {
        batch.sort_unstable_by_key(|&t| self.rank(t));
    }
}

impl Scheduler for WorkStealingPriority {
    fn seed(&self, roots: &mut [usize]) {
        // FIFO injector: push in *descending* priority so the first pops get
        // the most critical roots.
        self.sort_ascending(roots);
        for &r in roots.iter().rev() {
            self.inner.injector.push(r);
        }
    }

    /// Keeps the most critical successor as the work-first continuation and
    /// publishes the rest in ascending priority: LIFO owner pops then run
    /// higher priorities first while stealers take from the top — the least
    /// critical of the batch.
    fn push_ready(&self, w: usize, ready: &mut [usize]) -> Option<usize> {
        self.sort_ascending(ready);
        let (&next, rest) = ready.split_last()?;
        for &r in rest.iter() {
            self.inner.deques[w].push(r);
        }
        Some(next)
    }

    fn pop(&self, w: usize) -> Option<usize> {
        self.inner.pop_from(w)
    }
}

/// Indices of the initially-ready tasks (no dependencies), in topological
/// order.
pub(crate) fn initial_roots(dag: &TaskDag) -> Vec<usize> {
    dag.tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.deps.is_empty())
        .map(|(idx, _)| idx)
        .collect()
}

/// Maps a global task id of a fused group to `(copy, local)`.
///
/// A fused pool job runs several independent DAG instances ("copies") under
/// one scheduler. Global ids are assigned contiguously per copy: copy `c`
/// owns `base(c) .. base(c) + tasks_of(c)`. Two representations share the
/// type:
///
/// * **Uniform** (`stride != 0`): every copy has `stride` tasks, so
///   `locate` is `g → (g / stride, g % stride)` — bit-for-bit the
///   historical cyclic mapping of same-plan batches, with no per-call
///   allocation (`offsets` stays empty).
/// * **Heterogeneous** (`stride == 0`): `offsets` is the task-count prefix
///   sum (`offsets[c]` = first id of copy `c`, `offsets.len() == copies + 1`)
///   and `locate` binary-searches it — `O(log copies)` on a group bounded
///   by the service's `max_group`.
///
/// [`ItemMap::from_counts`] detects the all-equal case and collapses it to
/// the uniform form, so same-plan groups keep the exact pre-offset id
/// arithmetic on every path that consumes the map.
pub(crate) struct ItemMap {
    /// Tasks per copy when uniform; `0` flags the heterogeneous form.
    stride: usize,
    #[cfg_attr(not(test), allow(dead_code))]
    copies: usize,
    total: usize,
    /// Prefix-sum id offsets (heterogeneous form only; empty when uniform).
    offsets: Vec<usize>,
}

impl ItemMap {
    /// A group of `copies` identical DAGs of `local_tasks` tasks each.
    pub(crate) fn uniform(local_tasks: usize, copies: usize) -> Self {
        let local_tasks = local_tasks.max(1);
        ItemMap {
            stride: local_tasks,
            copies,
            total: local_tasks * copies,
            offsets: Vec::new(),
        }
    }

    /// A group described by one task count per copy.
    pub(crate) fn from_counts(counts: &[usize]) -> Self {
        if let Some(&first) = counts.first() {
            if counts.iter().all(|&c| c == first) {
                return ItemMap::uniform(first, counts.len());
            }
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &c in counts {
            total += c;
            offsets.push(total);
        }
        ItemMap {
            stride: 0,
            copies: counts.len(),
            total,
            offsets,
        }
    }

    /// Number of DAG copies in the group.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn copies(&self) -> usize {
        self.copies
    }

    /// Total task count across all copies.
    #[inline]
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// First global id of `copy`.
    #[inline]
    pub(crate) fn base(&self, copy: usize) -> usize {
        if self.stride != 0 {
            copy * self.stride
        } else {
            self.offsets[copy]
        }
    }

    /// Task count of `copy`.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn tasks_of(&self, copy: usize) -> usize {
        if self.stride != 0 {
            self.stride
        } else {
            self.offsets[copy + 1] - self.offsets[copy]
        }
    }

    /// `g → (copy, local)`.
    #[inline]
    // `stride != 0` selects the uniform mode, it is not a div-by-zero guard.
    #[allow(clippy::manual_checked_ops)]
    pub(crate) fn locate(&self, g: usize) -> (usize, usize) {
        if self.stride != 0 {
            (g / self.stride, g % self.stride)
        } else {
            let copy = self.offsets.partition_point(|&o| o <= g) - 1;
            (copy, g - self.offsets[copy])
        }
    }
}

/// Successor adjacency of a fused group: one shared per-shape CSR when every
/// copy runs the same DAG (same-plan groups, single runs), or one CSR
/// reference per copy for heterogeneous groups.
#[derive(Clone, Copy)]
pub(crate) enum GroupSucc<'a> {
    /// All copies share one CSR.
    Shared(&'a SuccessorsCsr),
    /// `per_copy[c]` is copy `c`'s CSR.
    PerCopy(&'a [&'a SuccessorsCsr]),
}

impl GroupSucc<'_> {
    #[inline]
    fn of_copy(&self, copy: usize) -> &SuccessorsCsr {
        match self {
            GroupSucc::Shared(csr) => csr,
            GroupSucc::PerCopy(per_copy) => per_copy[copy],
        }
    }
}

/// Receives contained task panics from [`drive_worker`] and answers which
/// copies have already failed (so their remaining tasks are skipped —
/// counted as released, never executed).
///
/// Implemented by the context's fused job; the executor itself stays
/// ignorant of [`QrError`](crate::context::QrError).
pub(crate) trait FaultSink: Sync {
    /// True if `copy` has already recorded a fault; its tasks are skipped.
    fn copy_failed(&self, copy: usize) -> bool;

    /// Records a panic raised by task `local` of `copy`. Called at most once
    /// per panicking task; the first recorded fault of a copy wins.
    fn record_panic(&self, copy: usize, local: usize, payload: &(dyn std::any::Any + Send));

    /// Counts one task of `copy` as retired (executed *or* skipped).
    ///
    /// This is also the per-item completion hook: the retire of a copy's
    /// *last* task is detectable inside this call, and it fires on the
    /// worker thread that performed it, so the fused job dismantles the
    /// finished copy and hands it to its sink while sibling copies are still
    /// running.
    fn task_retired(&self, copy: usize);
}

/// Everything one [`drive_worker`] call shares with its sibling workers:
/// the fused-DAG geometry, the per-run counters and the robustness hooks
/// (cancellation, panic containment).
pub(crate) struct DriveCtl<'a> {
    /// Global-id geometry of the run: `map.locate(g)` resolves every task id
    /// to its `(copy, local)` pair. Uniform for single runs and same-plan
    /// batches (the historical `g → (g / n, g % n)` arithmetic);
    /// prefix-sum offsets for heterogeneous fused groups.
    pub(crate) map: &'a ItemMap,
    /// Per-copy successor adjacency, indexed by the local id from `map`.
    pub(crate) succ: GroupSucc<'a>,
    /// Per-task dependency counters of the whole fused run; the loop exits
    /// once `completed` reaches their count.
    pub(crate) remaining: &'a [AtomicUsize],
    /// Tasks completed so far across all workers.
    pub(crate) completed: &'a AtomicUsize,
    /// Largest successor batch one completion can enable.
    pub(crate) max_out_degree: usize,
    /// The job's token, checked once per loop iteration; a triggered token
    /// makes workers abandon the remaining tasks and return.
    pub(crate) cancel: &'a CancelToken,
    /// Set only when the run is driven inline on the caller thread, where no
    /// submitter-side wait loop exists: the worker itself then forwards user
    /// cancellation and the deadline into `cancel` between tasks.
    pub(crate) inline: Option<&'a RunCtl>,
    /// Receives contained panics and per-copy retires.
    pub(crate) faults: &'a dyn FaultSink,
}

/// One worker's share of a DAG run: pop ready tasks from the scheduler, run
/// them, release successors, hand newly-enabled batches back to the
/// scheduler, and back off when idle until every task completed (or the
/// cancel token fired).
///
/// The loop is phrased over **raw task ids** so the same code serves every
/// run: `ctl.map` resolves a global id to `(copy, local)` — uniform stride
/// division for same-plan groups, prefix-sum offsets for mixed-plan groups —
/// and `ctl.succ` hands back the copy's own successor CSR, so no fused
/// adjacency is ever materialized. Released successors stay within the
/// task's copy by offsetting local successor ids with the copy's base. `run`
/// receives the task's `(copy, local)` pair.
///
/// Every task runs under `catch_unwind`: a panic is reported to
/// `ctl.faults` and poisons only that task's copy. A failed copy's remaining
/// tasks still *retire* (their successor counters are released and
/// `completed` advances) so the fused run drains normally; they are never
/// executed.
///
/// `heartbeat` is this worker's progress counter: it is bumped once per
/// **retired task**, never while idling, so a run whose workers all spin
/// without retiring anything — the shape of a lost-task deadlock — is
/// visible to the pool watchdog as a flat heartbeat sum.
pub(crate) fn drive_worker<S: Scheduler + ?Sized>(
    ctl: &DriveCtl<'_>,
    sched: &S,
    w: usize,
    heartbeat: &AtomicUsize,
    run: &mut dyn FnMut(usize, usize),
) {
    let num_tasks = ctl.remaining.len();
    // Scratch for the largest possible batch of newly-enabled successors —
    // allocated once per worker per run, never on the per-task path.
    let mut enabled: Vec<usize> = Vec::with_capacity(ctl.max_out_degree);
    let mut backoff = Backoff::new();
    // Work-first continuation handed back by `push_ready`: run it directly,
    // skipping the queue round-trip.
    let mut next: Option<usize> = None;
    loop {
        if ctl.inline.is_some_and(RunCtl::poll) || ctl.cancel.is_cancelled() {
            break;
        }
        match next.take().or_else(|| sched.pop(w)) {
            Some(idx) => {
                backoff.reset();
                let (copy, local) = ctl.map.locate(idx);
                // A failed copy's tasks are skipped, not executed; they
                // still retire below so the run drains.
                if !ctl.faults.copy_failed(copy) {
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(copy, local)));
                    if let Err(payload) = result {
                        ctl.faults.record_panic(copy, local, &*payload);
                    }
                }
                ctl.faults.task_retired(copy);
                // Single-writer counter: a plain load+store is enough and
                // avoids a locked RMW on the per-task path.
                heartbeat.store(heartbeat.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                ctl.completed.fetch_add(1, Ordering::Release);
                // Successors stay within the task's own DAG copy: look up
                // the copy's CSR by the local id, offset the released ids
                // back into the copy's global range.
                let base = idx - local;
                enabled.clear();
                for &s in ctl.succ.of_copy(copy).of(local) {
                    let g = base + s;
                    if ctl.remaining[g].fetch_sub(1, Ordering::AcqRel) == 1 {
                        enabled.push(g);
                    }
                }
                if !enabled.is_empty() {
                    next = sched.push_ready(w, &mut enabled);
                }
            }
            None => {
                if ctl.completed.load(Ordering::Acquire) >= num_tasks {
                    break;
                }
                backoff.snooze();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::collections::{HashMap, HashSet};
    use tileqr_core::algorithms::Algorithm;
    use tileqr_core::KernelFamily;

    fn sample_dag(p: usize, q: usize) -> TaskDag {
        TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT)
    }

    /// A fault sink for runs whose tasks never panic.
    struct NoFaults;

    impl FaultSink for NoFaults {
        fn copy_failed(&self, _copy: usize) -> bool {
            false
        }
        fn record_panic(&self, _copy: usize, _local: usize, _payload: &(dyn std::any::Any + Send)) {
            panic!("no task of this run may panic");
        }
        fn task_retired(&self, _copy: usize) {}
    }

    /// The scheduler of `kind` for a fused group of `dags`.
    fn scheduler_for(kind: SchedulerKind, dags: &[&TaskDag], workers: usize) -> Box<dyn Scheduler> {
        match kind {
            SchedulerKind::WorkStealing => Box::new(WorkStealing::new(
                dags.iter().map(|d| d.len()).sum(),
                workers,
            )),
            SchedulerKind::WorkStealingPriority => {
                Box::new(WorkStealingPriority::new_shared_offsets(
                    dags.iter()
                        .map(|d| d.priorities_with(&d.successors_csr()).into())
                        .collect(),
                    workers,
                ))
            }
        }
    }

    /// Fuses `dags` into one run under `sched`, drives it with `workers`
    /// [`drive_worker`] threads, and returns the `(copy, local)` pairs in
    /// execution order.
    fn run_fused(dags: &[&TaskDag], sched: &dyn Scheduler, workers: usize) -> Vec<(usize, usize)> {
        let csrs: Vec<SuccessorsCsr> = dags.iter().map(|d| d.successors_csr()).collect();
        let per_copy: Vec<&SuccessorsCsr> = csrs.iter().collect();
        let counts: Vec<usize> = dags.iter().map(|d| d.len()).collect();
        let map = ItemMap::from_counts(&counts);
        let remaining: Vec<AtomicUsize> = dags
            .iter()
            .flat_map(|d| d.tasks.iter().map(|t| AtomicUsize::new(t.deps.len())))
            .collect();
        let mut roots: Vec<usize> = Vec::new();
        for (c, d) in dags.iter().enumerate() {
            let base = map.base(c);
            roots.extend(
                d.tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.deps.is_empty())
                    .map(|(i, _)| base + i),
            );
        }
        sched.seed(&mut roots);
        let completed = AtomicUsize::new(0);
        let cancel = CancelToken::new();
        let ctl = DriveCtl {
            map: &map,
            succ: GroupSucc::PerCopy(&per_copy),
            remaining: &remaining,
            completed: &completed,
            max_out_degree: csrs.iter().map(|c| c.max_out_degree()).max().unwrap_or(0),
            cancel: &cancel,
            inline: None,
            faults: &NoFaults,
        };
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (ctl, order) = (&ctl, &order);
                scope.spawn(move || {
                    let heartbeat = AtomicUsize::new(0);
                    drive_worker(ctl, sched, w, &heartbeat, &mut |copy, local| {
                        order.lock().push((copy, local));
                    });
                });
            }
        });
        order.into_inner()
    }

    /// Asserts every task of every copy ran exactly once and after all of
    /// its dependencies.
    fn assert_once_in_dependency_order(dags: &[&TaskDag], order: &[(usize, usize)], label: &str) {
        let position: HashMap<(usize, usize), usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        assert_eq!(position.len(), order.len(), "[{label}] a task ran twice");
        let total: usize = dags.iter().map(|d| d.len()).sum();
        assert_eq!(order.len(), total, "[{label}] tasks missing");
        for (c, d) in dags.iter().enumerate() {
            for (i, t) in d.tasks.iter().enumerate() {
                for &dep in &t.deps {
                    assert!(
                        position[&(c, dep)] < position[&(c, i)],
                        "[{label}] copy {c}: dependency {dep} ran after dependent {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_visits_every_task_once() {
        let dag = sample_dag(6, 3);
        let mut seen = Vec::new();
        execute_sequential_with(&dag, &mut (), |k, _| seen.push(k));
        assert_eq!(seen.len(), dag.len());
        let unique: HashSet<_> = seen.iter().collect();
        assert_eq!(unique.len(), dag.len());
    }

    #[test]
    fn parallel_visits_every_task_once_with_every_scheduler() {
        let dag = sample_dag(8, 4);
        for kind in SchedulerKind::ALL {
            let sched = scheduler_for(kind, &[&dag], 4);
            let order = run_fused(&[&dag], &*sched, 4);
            assert_once_in_dependency_order(&[&dag], &order, kind.name());
        }
    }

    #[test]
    fn parallel_respects_dependencies_with_every_scheduler() {
        let dag = sample_dag(7, 3);
        for kind in SchedulerKind::ALL {
            let sched = scheduler_for(kind, &[&dag], 3);
            let order = run_fused(&[&dag], &*sched, 3);
            assert_once_in_dependency_order(&[&dag], &order, kind.name());
        }
    }

    #[test]
    fn single_worker_runs_every_task_once_with_every_scheduler() {
        // The inline `threads == 1` engine is one `drive_worker` call: it
        // must drain the whole DAG alone, in a dependency-respecting order.
        let dag = sample_dag(5, 2);
        for kind in SchedulerKind::ALL {
            let sched = scheduler_for(kind, &[&dag], 1);
            let order = run_fused(&[&dag], &*sched, 1);
            assert_once_in_dependency_order(&[&dag], &order, kind.name());
        }
    }

    #[test]
    fn empty_dag_is_a_noop() {
        let empty = TaskDag {
            p: 0,
            q: 0,
            family: KernelFamily::TT,
            tasks: Vec::new(),
        };
        let mut count = 0;
        execute_sequential_with(&empty, &mut (), |_, _| count += 1);
        assert_eq!(count, 0);
        let sched = WorkStealing::new(0, 2);
        assert!(run_fused(&[&empty], &sched, 2).is_empty());
    }

    #[test]
    fn sequential_with_reuses_one_workspace() {
        let dag = sample_dag(5, 2);
        let mut ws = 0usize;
        let mut count = 0usize;
        execute_sequential_with(&dag, &mut ws, |_k, ws| {
            *ws += 1;
            count += 1;
        });
        assert_eq!(ws, dag.len());
        assert_eq!(count, dag.len());
    }

    #[test]
    fn scheduler_kind_defaults_to_work_stealing() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::WorkStealing);
        let names: HashSet<_> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), SchedulerKind::ALL.len());
    }

    #[test]
    fn priority_scheduler_runs_critical_roots_first_single_consumer() {
        // Seed the priority scheduler with shuffled roots and drain it from
        // one worker with no pushes: the injector must yield them in
        // decreasing priority order.
        let priority = vec![5u64, 40, 10, 7, 99, 1];
        let sched = WorkStealingPriority::new(priority.clone(), 2);
        let mut roots = vec![0usize, 1, 2, 3, 4, 5];
        sched.seed(&mut roots);
        let mut got = Vec::new();
        while let Some(t) = sched.pop(0) {
            got.push(t);
        }
        let drained: Vec<u64> = got.iter().map(|&t| priority[t]).collect();
        assert_eq!(drained, vec![99, 40, 10, 7, 5, 1]);
    }

    #[test]
    fn priority_scheduler_runs_batches_most_critical_first() {
        let priority = vec![3u64, 8, 1, 12];
        let sched = WorkStealingPriority::new(priority, 1);
        let mut batch = vec![0usize, 1, 2, 3];
        // The most critical task comes back as the work-first continuation;
        // the rest pop in decreasing priority.
        assert_eq!(sched.push_ready(0, &mut batch), Some(3)); // priority 12
        assert_eq!(sched.pop(0), Some(1)); // priority 8
        assert_eq!(sched.pop(0), Some(0)); // priority 3
        assert_eq!(sched.pop(0), Some(2)); // priority 1
        assert_eq!(sched.pop(0), None);
    }

    #[test]
    fn item_map_uniform_matches_historical_cyclic_arithmetic() {
        let map = ItemMap::uniform(7, 4);
        assert_eq!(map.copies(), 4);
        assert_eq!(map.total(), 28);
        for g in 0..map.total() {
            assert_eq!(map.locate(g), (g / 7, g % 7));
        }
        for c in 0..4 {
            assert_eq!(map.base(c), c * 7);
            assert_eq!(map.tasks_of(c), 7);
        }
    }

    #[test]
    fn item_map_equal_counts_collapse_to_uniform() {
        let map = ItemMap::from_counts(&[5, 5, 5]);
        assert_eq!(map.stride, 5, "same-plan groups must take the uniform path");
        assert!(map.offsets.is_empty());
        for g in 0..15 {
            assert_eq!(map.locate(g), (g / 5, g % 5));
        }
    }

    #[test]
    fn item_map_heterogeneous_is_a_bijection_over_disjoint_ranges() {
        let counts = [3usize, 7, 1, 4];
        let map = ItemMap::from_counts(&counts);
        assert_eq!(map.copies(), 4);
        assert_eq!(map.total(), 15);
        let mut seen = HashSet::new();
        for g in 0..map.total() {
            let (copy, local) = map.locate(g);
            assert!(copy < map.copies());
            assert!(local < map.tasks_of(copy));
            assert_eq!(map.base(copy) + local, g);
            assert!(seen.insert((copy, local)), "id {g} not unique");
        }
        assert_eq!(seen.len(), map.total());
        for (c, &count) in counts.iter().enumerate() {
            assert_eq!(map.tasks_of(c), count);
        }
    }

    #[test]
    fn priority_offsets_ranks_each_copy_by_its_own_table() {
        // copy 0: ids 0..3 with priorities [3, 8, 1]; copy 1: ids 3..5 with
        // priorities [12, 2]. Continuation and pops must follow the fused
        // per-copy ranks, not any shared cyclic table.
        let tables: Vec<std::sync::Arc<[u64]>> =
            vec![vec![3u64, 8, 1].into(), vec![12u64, 2].into()];
        let sched = WorkStealingPriority::new_shared_offsets(tables, 1);
        let mut batch = vec![0usize, 1, 2, 3, 4];
        assert_eq!(sched.push_ready(0, &mut batch), Some(3)); // rank 12
        assert_eq!(sched.pop(0), Some(1)); // rank 8
        assert_eq!(sched.pop(0), Some(0)); // rank 3
        assert_eq!(sched.pop(0), Some(4)); // rank 2
        assert_eq!(sched.pop(0), Some(2)); // rank 1
        assert_eq!(sched.pop(0), None);
    }

    #[test]
    fn priority_offsets_uniform_map_ranks_by_g_mod_n() {
        // Same-plan groups hand the scheduler one table per copy; equal
        // lengths collapse to the uniform map, so task `g` is ranked by
        // `table[g % n]` — the historical cyclic ranking.
        let table: Arc<[u64]> = vec![4u64, 9, 2].into();
        let sched = WorkStealingPriority::new_shared_offsets(vec![Arc::clone(&table); 3], 1);
        assert_eq!(
            sched.map.stride, 3,
            "equal tables must take the uniform map"
        );
        for g in 0..9 {
            assert_eq!(sched.rank(g), table[g % 3]);
        }
    }

    #[test]
    fn fused_heterogeneous_copies_run_once_and_respect_deps() {
        // Two *different* DAGs fused under one scheduler through the offset
        // map: every task of each copy runs exactly once, and dependencies
        // hold within each copy, under every scheduler.
        let dag_a = sample_dag(6, 3);
        let dag_b = TaskDag::build(
            &Algorithm::FlatTree.elimination_list(4, 2),
            KernelFamily::TS,
        );
        assert_ne!(dag_a.len(), dag_b.len(), "copies must be heterogeneous");
        let dags = [&dag_a, &dag_b];
        for kind in SchedulerKind::ALL {
            let sched = scheduler_for(kind, &dags, 3);
            let order = run_fused(&dags, &*sched, 3);
            assert_once_in_dependency_order(&dags, &order, kind.name());
        }
    }

    #[test]
    fn work_stealing_pop_prefers_own_deque_then_injector_then_steal() {
        let sched = WorkStealing::new(16, 2);
        sched.seed(&mut [7usize]);
        // First of each batch is the work-first continuation; the rest go
        // to the pushing worker's own deque.
        assert_eq!(sched.push_ready(0, &mut [1usize, 2]), Some(1));
        assert_eq!(sched.push_ready(1, &mut [8usize, 9]), Some(8));
        // Own deque first (batch in original order), then injector, then
        // steal from worker 1.
        assert_eq!(sched.pop(0), Some(2));
        assert_eq!(sched.pop(0), Some(7));
        assert_eq!(sched.pop(0), Some(9));
        assert_eq!(sched.pop(0), None);
    }
}
