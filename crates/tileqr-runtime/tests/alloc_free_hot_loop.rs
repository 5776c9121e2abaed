//! Verifies the zero-allocation guarantee of the engine's hot loop with a
//! counting global allocator: once the plan, the factorization states (tiles
//! and recycled `T` factors) and the scheduler are built, executing the
//! tasks must not allocate **per task** — only a constant number of
//! bookkeeping allocations per call is allowed.
//!
//! The test runs a small DAG and a much larger DAG through the same context
//! and asserts the allocation counts of one steady-state call are
//! essentially identical: if any task allocated, the large run would exceed
//! the small one by at least the task-count difference (hundreds). The
//! plain topological walk, the reference the engine is tested against, must
//! not allocate at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::TaskDag;
use tileqr_core::KernelFamily;
use tileqr_kernels::Workspace;
use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::driver::QrConfig;
use tileqr_runtime::executor::{execute_sequential_with, SchedulerKind};
use tileqr_runtime::state::FactorizationState;
use tileqr_runtime::{QrContext, QrPlan};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump — the
// layout/pointer contracts the caller upholds for us transfer unchanged to
// the delegated calls, and the counter itself never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's valid, non-zero-size layout,
        // forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc`/`realloc` above, which
        // delegate to `System`, with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same provenance argument as `dealloc`; `new_size` is the
        // caller's requested size, forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

// The allocation counter is process-global, so everything runs inside one
// `#[test]` — libtest schedules separate tests on parallel threads, and even
// its own thread spawning would pollute a concurrent measurement window.
#[test]
fn hot_loops_do_not_allocate_per_task() {
    for kind in SchedulerKind::ALL {
        // ib = nb (unblocked) and ib < nb (micro-BLAS pack buffers + packed
        // triangular scratch in play): the inner-blocked kernels must stay
        // zero-allocation too — every panel buffer is preallocated in the
        // workspace. One thread drives the job inline on the caller; three
        // run it on the pool.
        for ib in [4, 2] {
            for threads in [1, 3] {
                batch_check(kind, ib, threads);
            }
        }
    }
    sequential_check();
}

/// One steady-state iteration of the allocation-free batch loop: refill the
/// tile buffers, factor them in place as one fused pool job, return the `T`
/// storage — either through the explicit [`QrPlan::recycle_reflectors`] call
/// or by just dropping the results (the handles auto-recycle on drop).
/// Returns the allocations performed inside the loop body.
fn batch_steady_state_allocations(
    ctx: &QrContext,
    plan: &QrPlan<f64>,
    mats: &[Matrix<f64>],
    tiles: &mut [TiledMatrix<f64>],
    explicit_recycle: bool,
) -> usize {
    let (allocs, ()) = allocations_during(|| {
        for (t, a) in tiles.iter_mut().zip(mats) {
            t.fill_from_dense_padded(a);
        }
        let refls = ctx.factorize_batch_into(plan, tiles);
        if explicit_recycle {
            for r in refls {
                plan.recycle_reflectors(r.expect("conforming buffers must factor"));
            }
        } else {
            // Drop-based recycling: the `Drop` impl hands the `T` buffers
            // back to the plan's pool, so this must be exactly as
            // allocation-free as the explicit call.
            drop(refls);
        }
    });
    allocs
}

/// The batch hot path — `factorize_batch_into` + `recycle_reflectors` over
/// a warm plan — must perform **zero allocations that scale with the tile
/// grid or the task count**: the kernels run against recycled `T` buffers
/// and cached workspaces, and the fused-DAG bookkeeping is a handful of
/// O(batch) vectors. Two probes:
///
/// 1. same batch width, small vs. large DAG (57 vs. 768 tasks, 6 vs. 60
///    tiles): allocation counts must be essentially identical;
/// 2. the absolute steady-state count must undercut the 2 · p · q `T`-factor
///    allocations a single *non-recycled* matrix would need — direct
///    evidence the recycle pool, not the allocator, feeds the `T` slots.
///
/// Both probes run twice: once recycling explicitly and once just dropping
/// the result handles, so drop-based auto-recycling is pinned to the same
/// zero-growth steady state as the explicit call.
fn batch_check(kind: SchedulerKind, ib: usize, threads: usize) {
    let nb = 4;
    let k = 3;
    let ctx = QrContext::with_scheduler(threads, kind).expect("valid thread count");
    let steady = |p: usize, q: usize, explicit_recycle: bool| -> usize {
        let plan: QrPlan<f64> = QrPlan::new(p * nb, q * nb, QrConfig::new(nb).with_inner_block(ib))
            .expect("valid shape");
        let mats: Vec<Matrix<f64>> = (0..k)
            .map(|i| random_matrix(p * nb, q * nb, 70 + i as u64))
            .collect();
        let mut tiles: Vec<TiledMatrix<f64>> = mats
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, nb))
            .collect();
        // Warm-up: fills the plan's workspace cache and T-factor pool and
        // sizes every retained vector; the measured iteration after it is
        // the steady state a batch service runs in.
        for _ in 0..2 {
            let _ =
                batch_steady_state_allocations(&ctx, &plan, &mats, &mut tiles, explicit_recycle);
        }
        batch_steady_state_allocations(&ctx, &plan, &mats, &mut tiles, explicit_recycle)
    };
    for explicit_recycle in [true, false] {
        let small = steady(3, 2, explicit_recycle);
        let large = steady(10, 6, explicit_recycle);
        let mode = format!(
            "{}, ib={ib}, {threads} thread(s)",
            if explicit_recycle {
                "explicit recycle"
            } else {
                "drop-based recycle"
            }
        );
        let slack = 32;
        assert!(
            large <= small + slack,
            "[{} / {mode}] batch hot path allocates per task/tile: {small} allocs on 6 tiles \
             but {large} on 60 tiles",
            kind.name()
        );
        assert!(
            large < 2 * 10 * 6,
            "[{} / {mode}] steady-state batch call allocated {large} times — the T-factor \
             pool is not feeding the hot path (a cold call needs 2·p·q·k = {})",
            kind.name(),
            2 * 10 * 6 * k
        );
    }
}

fn sequential_check() {
    let nb = 4;
    // ib = nb and ib < nb: the inner-blocked kernels (micro-BLAS packing,
    // packed triangular scratch) must be exactly as allocation-free as the
    // unblocked path.
    for ib in [nb, 2] {
        let build = |p: usize, q: usize| {
            let a = random_matrix::<f64>(p * nb, q * nb, 9);
            let tiled = TiledMatrix::from_dense(&a, nb);
            let dag = TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
            (FactorizationState::with_inner_block(tiled, ib), dag)
        };
        let (state_small, dag_small) = build(3, 2);
        let (state_large, dag_large) = build(10, 6);
        let mut ws = Workspace::<f64>::with_inner_block(nb, ib);

        let (small, ()) = allocations_during(|| {
            execute_sequential_with(&dag_small, &mut ws, |task, ws| state_small.run_ws(task, ws));
        });
        let (large, ()) = allocations_during(|| {
            execute_sequential_with(&dag_large, &mut ws, |task, ws| state_large.run_ws(task, ws));
        });
        assert!(dag_large.len() > dag_small.len() + 300);
        // The sequential path reuses one preallocated workspace: zero is the
        // expected count for both runs.
        assert_eq!(small, 0, "sequential small run allocated (ib={ib})");
        assert_eq!(large, 0, "sequential large run allocated (ib={ib})");
    }
}
