//! The sweep entry point: [`WorkerPool::sweep`] runs one fused forward pass
//! per [`SweepJob`] over its compiled arena, answering the job's
//! expectation probes ((+, ×)) and max-product probes ((max, ×)) together.
//! Every arena sweep in the workspace goes through it.
//!
//! A job is split into tiles of [`SWEEP_TILE`] probes of one kind. Leaf
//! values are evaluated once per job into a job-wide leaf-value table on
//! the submitting thread; each tile then runs the one per-tile skeleton
//! ([`crate::kernel`]), generic over the semiring. With `threads <= 1` the
//! jobs stream inline on the submitting thread; otherwise the tiles of all
//! jobs are load-balanced across a persistent pool:
//!
//! * **pinned scratch** — each worker owns one tile scratch for its whole
//!   lifetime. The submitting thread drains tiles too, with a thread-local
//!   scratch that also holds the grow-only job-wide leaf-value tables, so
//!   steady-state sweeps — inline ones in particular — allocate nothing.
//! * **atomic tile cursor** — tiles are claimed by `fetch_add` on a shared
//!   counter; claiming a tile is one uncontended atomic op.
//! * **park/unpark idling** — idle workers block on a condvar and are woken
//!   only when a job is published; an idle pool burns no CPU.
//!
//! Jobs are published as epochs: the submitter installs a tile-claiming
//! closure under the pool lock, wakes the workers, helps drain the cursor
//! itself, then closes the job and waits until every worker that joined the
//! epoch has retired before returning — which is what makes it sound to
//! hand workers short-lived tile borrows. A panic inside any tile is caught,
//! the job still drains, and the payload is rethrown on the submitting
//! thread.
//!
//! Determinism: a tile's result depends only on its own probes and its own
//! scratch, never on which thread ran it or in what order, so every thread
//! count, tiling and kernel flavour produces bitwise-identical results.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::arena::{ActiveSet, CompiledSpn};
use crate::kernel::{Expectation, LeafValueTable, MaxProduct, SweepScratch};
use crate::maxprod::{MpeOutcome, MpeProbe};
use crate::SpnQuery;

/// Queries evaluated per tile of a sweep. Bounds the scratch to
/// `n_nodes × SWEEP_TILE` doubles (L2-resident for realistic models) no
/// matter how large the batch is; tiles are independent — every query slot
/// reads only its own normalized slots and its own scratch column — so
/// tiling (and tile-parallel execution) never changes results.
pub const SWEEP_TILE: usize = 32;

/// Upper bound on pool workers — a backstop against pathological `threads`
/// arguments, far above any realistic sweep parallelism.
const MAX_WORKERS: usize = 32;

/// Default worker-thread count for sweeps when callers pass `threads == 0`:
/// the host's available parallelism, clamped to `[1, 16]` (sweep tiles are
/// coarse; past ~16 workers the tile count, not the host, is the limit).
/// Probed once per process.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 16)
    })
}

/// Cooperative cancellation for an in-flight sweep, shared between the
/// submitter (who owns the flag) and every thread draining its tiles.
///
/// Every thread checks the flag each time it claims a tile; once it reads
/// cancelled, remaining tiles are *skipped*, leaving their outputs at the zeroed placeholder. The sweep
/// still drains and joins normally — cancellation never tears the pool —
/// but the outputs of a cancelled sweep are garbage, so callers must check
/// [`CancelFlag::is_cancelled`] before trusting them.
///
/// A flag can carry an optional deadline; deadline expiry is latched into
/// the atomic on first observation so steady-state checks stay one relaxed
/// load.
#[derive(Debug, Default)]
pub struct CancelFlag {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelFlag {
    /// A flag that only cancels when [`CancelFlag::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A flag that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// Request cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once cancelled — explicitly or because the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.cancel();
                true
            }
            _ => false,
        }
    }
}

/// A fault injected at a tile boundary by a [`SweepJob::fault`] hook:
/// either panic inside the claiming thread's tile (exercising the pool's
/// catch-and-self-heal path) or sleep before evaluating (simulating a slow
/// model under deadline pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileFault {
    Panic,
    Delay(Duration),
}

/// Deterministic fault hook fired once per claimed tile, before the cancel
/// check and evaluation. Returning `None` means "no fault here". Used by
/// the serving chaos harness; production sweeps leave it unset.
pub type TileFaultFn<'a> = dyn Fn() -> Option<TileFault> + Sync + 'a;

/// One model's share of a fused sweep: an expectation-probe batch **and** a
/// max-product probe batch against one compiled arena, each with a
/// caller-owned output slice of the same length. Both batches belong to the
/// same logical sweep — the model's sweep counter advances once per job, no
/// matter which probe kinds it carries.
pub struct SweepJob<'a> {
    pub spn: &'a CompiledSpn,
    pub queries: &'a [SpnQuery],
    pub out: &'a mut [f64],
    /// Max-product probes riding the same sweep (classification / MPE).
    pub mpe: &'a [MpeProbe],
    pub mpe_out: &'a mut [MpeOutcome],
    /// Cooperative cancel flag checked at every tile claim; cancelled tiles
    /// are skipped (outputs keep their zeroed placeholder), so the caller
    /// must check the flag before trusting `out`/`mpe_out`.
    pub cancel: Option<&'a CancelFlag>,
    /// Fault-injection hook fired at every tile start (chaos testing only).
    pub fault: Option<&'a TileFaultFn<'a>>,
    /// Query-scoped prune set for every tile of this job (both probe kinds).
    /// Must cover the union of all the job's constrained columns plus every
    /// MPE probe's target column ([`CompiledSpn::active_set`]); pruned
    /// sweeps are then bitwise identical to full ones. `None` = full sweep.
    pub active: Option<&'a ActiveSet>,
    /// Run the scalar reference kernels instead of the SIMD lane kernels.
    /// Results are bitwise identical; differential tests and benches
    /// compare the two.
    pub scalar: bool,
}

impl<'a> SweepJob<'a> {
    /// Expectation-only job (the common AQP/cardinality shape).
    pub fn expect(spn: &'a CompiledSpn, queries: &'a [SpnQuery], out: &'a mut [f64]) -> Self {
        Self {
            spn,
            queries,
            out,
            mpe: &[],
            mpe_out: &mut [],
            cancel: None,
            fault: None,
            active: None,
            scalar: false,
        }
    }

    /// Max-product-only job (classification / MPE).
    pub fn mpe(spn: &'a CompiledSpn, probes: &'a [MpeProbe], out: &'a mut [MpeOutcome]) -> Self {
        Self {
            mpe: probes,
            mpe_out: out,
            ..Self::expect(spn, &[], &mut [])
        }
    }

    /// Check arities and count the job's sweep; `false` when the job
    /// carries no probes (and then does not count).
    fn open(&self) -> bool {
        assert_eq!(
            self.queries.len(),
            self.out.len(),
            "sweep job arity mismatch"
        );
        assert_eq!(
            self.mpe.len(),
            self.mpe_out.len(),
            "sweep job MPE arity mismatch"
        );
        if self.queries.is_empty() && self.mpe.is_empty() {
            return false;
        }
        self.spn.note_sweep();
        true
    }

    /// Evaluate the job's leaf values once per (leaf, distinct slot) into
    /// `tables[0]` (expectation probes) and `tables[1]` (MPE probes); the
    /// tiles only gather from them.
    fn build_tables(&self, tables: &mut [LeafValueTable]) {
        if !self.queries.is_empty() {
            tables[0].build::<Expectation>(self.spn, self.queries);
        }
        if !self.mpe.is_empty() {
            tables[1].build::<MaxProduct>(self.spn, self.mpe);
        }
    }

    /// Split the job into tiles over the tables [`SweepJob::build_tables`]
    /// filled.
    fn into_tiles(self, tables: &'a [LeafValueTable]) -> impl Iterator<Item = Tile<'a>> {
        let hooks = Hooks {
            spn: self.spn,
            cancel: self.cancel,
            fault: self.fault,
            active: self.active,
            simd: !self.scalar,
        };
        let expect = tiles(self.queries, self.out).map(move |(base, q, o)| Tile {
            hooks,
            table: &tables[0],
            base,
            part: Part::Expect(q, o),
        });
        let mpe = tiles(self.mpe, self.mpe_out).map(move |(base, p, o)| Tile {
            hooks,
            table: &tables[1],
            base,
            part: Part::Mpe(p, o),
        });
        expect.chain(mpe)
    }
}

/// `(offset, probes, outputs)` per [`SWEEP_TILE`]-sized tile of one batch.
fn tiles<'a, P, O>(
    probes: &'a [P],
    out: &'a mut [O],
) -> impl Iterator<Item = (usize, &'a [P], &'a mut [O])> {
    let chunks = probes.chunks(SWEEP_TILE).zip(out.chunks_mut(SWEEP_TILE));
    chunks.enumerate().map(|(i, (p, o))| (i * SWEEP_TILE, p, o))
}

/// What every tile of one job shares.
#[derive(Clone, Copy)]
struct Hooks<'a> {
    spn: &'a CompiledSpn,
    cancel: Option<&'a CancelFlag>,
    fault: Option<&'a TileFaultFn<'a>>,
    active: Option<&'a ActiveSet>,
    simd: bool,
}

/// One probe kind's slice of a tile, with its output slice.
enum Part<'a> {
    Expect(&'a [SpnQuery], &'a mut [f64]),
    Mpe(&'a [MpeProbe], &'a mut [MpeOutcome]),
}

/// The unit a thread claims: one tile of one probe kind of one job, the
/// job-wide leaf-value table it gathers from, and its probe offset within
/// the job's batch.
struct Tile<'a> {
    hooks: Hooks<'a>,
    table: &'a LeafValueTable,
    base: usize,
    part: Part<'a>,
}

impl Tile<'_> {
    fn run(&mut self, scratch: &mut SweepScratch) {
        let Hooks {
            spn,
            cancel,
            fault,
            active,
            simd,
        } = self.hooks;
        // Chaos hook first: injected panics/delays land exactly where a
        // genuinely faulty or slow tile would.
        match fault.and_then(|f| f()) {
            Some(TileFault::Panic) => panic!("injected tile fault"),
            Some(TileFault::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
        // Cooperative cancellation: skip the arithmetic, keep the drain
        // protocol (the claimed index is already consumed, outputs stay
        // zeroed, and the job still joins normally).
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return;
        }
        let (table, base) = (self.table, self.base);
        match &mut self.part {
            Part::Expect(q, o) => {
                scratch.sweep::<Expectation>(spn, q, table, base, simd, active, o)
            }
            Part::Mpe(p, o) => scratch.sweep::<MaxProduct>(spn, p, table, base, simd, active, o),
        }
    }
}

/// The submitting thread's own sweep scratch: the tile scratch it drains
/// tiles with, and the grow-only job-wide leaf-value tables (two per job).
#[derive(Default)]
struct SubmitterScratch {
    tile: SweepScratch,
    tables: Vec<LeafValueTable>,
}

thread_local! {
    static SUBMITTER: RefCell<SubmitterScratch> = RefCell::new(SubmitterScratch::default());
}

/// A tile-claiming closure: returns `false` once the cursor is exhausted.
/// The `'static` is a checked lie — see the completion handshake in
/// [`WorkerPool::run_tiles`].
type Task = dyn Fn(&mut SweepScratch) -> bool + Sync;

/// Pool state a job transitions through, guarded by one mutex.
struct JobState {
    /// Monotonic job id; workers join an epoch at most once.
    epoch: u64,
    /// The open job's tile-claiming closure; `None` while idle/closed.
    task: Option<&'static Task>,
    /// Workers that observed this epoch and entered the job.
    joined: usize,
    /// Workers that finished the job (no further tile accesses).
    completed: usize,
    /// First panic payload raised inside a worker's tile, if any.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    job: Mutex<JobState>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The submitter parks here while draining stragglers.
    done: Condvar,
}

impl Shared {
    fn lock_job(&self) -> MutexGuard<'_, JobState> {
        // Tile panics are caught before the lock is re-taken, so the state
        // is never torn; recover instead of cascading the poison.
        self.job.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Raw tile-slice pointer smuggled into the job closure. Safety argument in
/// [`WorkerPool::run_tiles`].
struct TilePtr(*mut Tile<'static>);
unsafe impl Send for TilePtr {}
unsafe impl Sync for TilePtr {}

impl TilePtr {
    /// Accessor (rather than a public field) so closures capture the whole
    /// `Send + Sync` wrapper, not the bare pointer field.
    fn get(&self) -> *mut Tile<'static> {
        self.0
    }
}

/// A persistent sweep worker pool. Workers are spawned lazily on first
/// parallel use (up to the requested thread count), park between jobs, and
/// live until the pool is dropped. Dropping the pool shuts the workers
/// down. Inline sweeps (`threads <= 1`) never touch the pool's state.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes submissions: one fused sweep owns the workers at a time.
    submit: Mutex<()>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let workers = self.workers.lock().map(|w| w.len()).unwrap_or(0);
        f.debug_struct("WorkerPool")
            .field("workers", &workers)
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool: no threads until the first parallel sweep asks for
    /// them.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                job: Mutex::new(JobState {
                    epoch: 0,
                    task: None,
                    joined: 0,
                    completed: 0,
                    panic: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            submit: Mutex::new(()),
        }
    }

    /// Execute one fused sweep per job — the only way to sweep an arena.
    /// With `threads <= 1` every job runs inline on the calling thread, one
    /// after the other, from grow-only thread-local scratch: no handoff, no
    /// locks, no allocation at steady state. Otherwise the tiles of **all**
    /// jobs are load-balanced across up to `threads` threads (the submitting
    /// thread included); `threads == 0` means [`default_threads`]. Results
    /// are bitwise identical for every thread count.
    pub fn sweep<'a>(&self, jobs: impl IntoIterator<Item = SweepJob<'a>>, threads: usize) {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        SUBMITTER.with(|s| {
            let SubmitterScratch { tile, tables } = &mut *s.borrow_mut();
            if threads <= 1 {
                if tables.len() < 2 {
                    tables.resize_with(2, LeafValueTable::default);
                }
                for job in jobs.into_iter().filter(SweepJob::open) {
                    job.build_tables(tables);
                    for mut t in job.into_tiles(tables) {
                        t.run(tile);
                    }
                }
                return;
            }
            let jobs: Vec<SweepJob<'_>> = jobs.into_iter().filter(SweepJob::open).collect();
            if tables.len() < 2 * jobs.len() {
                tables.resize_with(2 * jobs.len(), LeafValueTable::default);
            }
            for (job, t) in jobs.iter().zip(tables.chunks_mut(2)) {
                job.build_tables(t);
            }
            let mut tiles: Vec<Tile<'_>> = jobs
                .into_iter()
                .zip(tables.chunks(2))
                .flat_map(|(job, t)| job.into_tiles(t))
                .collect();
            self.run_tiles(&mut tiles, threads, tile);
        })
    }

    /// Drain `tiles` across the submitting thread (with its own `scratch`)
    /// plus up to `threads - 1` pool workers.
    fn run_tiles(&self, tiles: &mut [Tile<'_>], threads: usize, scratch: &mut SweepScratch) {
        let n = tiles.len();
        let helpers = threads.clamp(1, MAX_WORKERS).min(n.max(1)) - 1;
        if helpers == 0 {
            for tile in tiles.iter_mut() {
                tile.run(scratch);
            }
            return;
        }
        let _submit = self.submit.lock().unwrap_or_else(PoisonError::into_inner);
        self.ensure_workers(helpers);

        let cursor = AtomicUsize::new(0);
        // SAFETY (lifetime erasure): workers only reach the tiles through
        // `task` below. The closure hands each claimed index to exactly one
        // thread (`fetch_add`), so tile accesses never alias; and before
        // this function returns — whether the submitter's own drain panics
        // or not — the job is closed and the submitter blocks until
        // `completed == joined`, i.e. until no worker can touch `task` or
        // the tiles again. The erased borrows therefore never outlive the
        // data they point to.
        let tiles_ptr = TilePtr(tiles.as_mut_ptr().cast());
        let task = move |scratch: &mut SweepScratch| -> bool {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return false;
            }
            let tile = unsafe { &mut *tiles_ptr.get().add(i) };
            tile.run(scratch);
            true
        };
        let task_ref: &Task = &task;
        let task_static: &'static Task = unsafe { std::mem::transmute(task_ref) };

        {
            let mut job = self.shared.lock_job();
            job.epoch += 1;
            job.task = Some(task_static);
            job.joined = 0;
            job.completed = 0;
            job.panic = None;
        }
        self.shared.work.notify_all();

        // The submitter drains tiles too, with its own pinned scratch. A
        // panic here must not skip the close-and-wait handshake, so it is
        // caught and rethrown after the stragglers retire.
        let own = catch_unwind(AssertUnwindSafe(|| while task(scratch) {}));

        // Close the job and wait for every joined worker to retire.
        let worker_panic = {
            let mut job = self.shared.lock_job();
            job.task = None;
            while job.completed < job.joined {
                job = self
                    .shared
                    .done
                    .wait(job)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            job.panic.take()
        };
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Grow the worker set to at least `want` threads (never shrinks;
    /// capped at [`MAX_WORKERS`]).
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_WORKERS);
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        while workers.len() < want {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("deepdb-sweep-{}", workers.len()))
                .spawn(move || worker_loop(shared))
                .expect("spawn sweep worker");
            workers.push(handle);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock_job().shutdown = true;
        self.shared.work.notify_all();
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

/// Body of one pool worker: park until a job epoch opens, drain its tile
/// cursor with the pinned scratch, report completion, repeat.
fn worker_loop(shared: Arc<Shared>) {
    let mut scratch = SweepScratch::default();
    let mut seen = 0u64;
    loop {
        let task = {
            let mut job = shared.lock_job();
            loop {
                if job.shutdown {
                    return;
                }
                if job.epoch != seen {
                    if let Some(task) = job.task {
                        seen = job.epoch;
                        job.joined += 1;
                        break task;
                    }
                    // Epoch already closed before this worker woke: skip it.
                    seen = job.epoch;
                }
                job = shared
                    .work
                    .wait(job)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| while task(&mut scratch) {}));
        let mut job = shared.lock_job();
        if let Err(payload) = result {
            // The scratch may be mid-update; replace it wholesale.
            scratch = SweepScratch::default();
            if job.panic.is_none() {
                job.panic = Some(payload);
            }
        }
        job.completed += 1;
        shared.done.notify_all();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ColumnMeta, DataView, LeafFunc, LeafPred, Spn, SpnParams};

    /// One inline sweep of `queries` against `spn`.
    pub(crate) fn expect_all(spn: &CompiledSpn, queries: &[SpnQuery], scalar: bool) -> Vec<f64> {
        let mut out = vec![0.0; queries.len()];
        let mut job = SweepJob::expect(spn, queries, &mut out);
        job.scalar = scalar;
        WorkerPool::new().sweep([job], 1);
        out
    }

    /// One inline max-product sweep of `probes` against `spn`.
    pub(crate) fn mpe_all(spn: &CompiledSpn, probes: &[MpeProbe], scalar: bool) -> Vec<MpeOutcome> {
        let mut out = vec![MpeOutcome::default(); probes.len()];
        let mut job = SweepJob::mpe(spn, probes, &mut out);
        job.scalar = scalar;
        WorkerPool::new().sweep([job], 1);
        out
    }

    /// One inline sweep of a single expectation query.
    pub(crate) fn expect_one(spn: &CompiledSpn, query: &SpnQuery) -> f64 {
        expect_all(spn, std::slice::from_ref(query), false)[0]
    }

    /// Most probable value of `target` given `query`, on one inline sweep.
    pub(crate) fn mpe_one(spn: &CompiledSpn, target: usize, query: &SpnQuery) -> Option<f64> {
        mpe_all(spn, &[MpeProbe::new(target, query.clone())], false)[0].value
    }

    fn model() -> Spn {
        let cols = vec![
            vec![0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, f64::NAN],
            vec![10.0, 20.0, 30.0, 30.0, 40.0, 10.0, 20.0, 30.0],
        ];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        Spn::learn(DataView::new(&cols, &meta), &SpnParams::default())
    }

    fn other_model() -> Spn {
        let cols = vec![vec![5.0, 6.0, 7.0, 5.0], vec![1.0, 1.0, 2.0, 2.0]];
        let meta = vec![ColumnMeta::discrete("x"), ColumnMeta::discrete("y")];
        Spn::learn(DataView::new(&cols, &meta), &SpnParams::default())
    }

    fn probe_mix() -> Vec<SpnQuery> {
        vec![
            SpnQuery::new(2),
            SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0)),
            SpnQuery::new(2).with_pred(0, LeafPred::IsNull),
            SpnQuery::new(2)
                .with_pred(1, LeafPred::ge(30.0))
                .with_func(1, LeafFunc::X),
            SpnQuery::new(2).with_func(0, LeafFunc::InvClamp1),
        ]
    }

    #[test]
    fn batch_matches_sequential_single_queries() {
        let mut spn = model();
        let compiled = spn.compile();
        let queries = probe_mix();
        let batch = expect_all(&compiled, &queries, false);
        assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let single = spn.evaluate(q);
            assert!(
                (batch[i] - single).abs() < 1e-12,
                "query {i}: batch {} vs recursive {single}",
                batch[i]
            );
        }
    }

    #[test]
    fn simd_and_scalar_kernels_agree_bitwise() {
        let compiled = model().compile();
        // Batch sizes straddling tile and lane boundaries, including the
        // degenerate single-query lane.
        let base = probe_mix();
        for n in [1, 2, 3, 4, 5, 31, 32, 33, 65] {
            let queries: Vec<SpnQuery> = (0..n).map(|i| base[i % base.len()].clone()).collect();
            let simd = expect_all(&compiled, &queries, false);
            let scalar = expect_all(&compiled, &queries, true);
            let simd_bits: Vec<u64> = simd.iter().map(|v| v.to_bits()).collect();
            let scalar_bits: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(simd_bits, scalar_bits, "batch size {n}");
        }
    }

    /// Degenerate structures the SIMD kernels must not mishandle:
    /// single-child sum and product runs, and an all-zero-weight sum node
    /// (every edge skipped → the node evaluates to exactly 0.0).
    #[test]
    fn degenerate_nodes_agree_simd_scalar_recursive() {
        use crate::node::{Node, ProductNode, SumNode};
        use crate::Leaf;
        fn leaf_over(values: &[f64], col: usize) -> Leaf {
            let cols = vec![values.to_vec()];
            let meta = vec![ColumnMeta::discrete("x")];
            let data = DataView::new(&cols, &meta);
            let rows: Vec<u32> = (0..values.len() as u32).collect();
            let mut leaf = Leaf::build(&data, &rows, 0, 1000, 16);
            leaf.col = col;
            leaf
        }
        // root sum ── single-child product ── single-child sum ── leaf(col 0)
        //          └─ zero-weight leaf(col 0)        (counts [4, 0])
        let root = Node::Sum(SumNode {
            scope: vec![0],
            children: vec![
                Node::Product(ProductNode {
                    scope: vec![0],
                    children: vec![Node::Sum(SumNode {
                        scope: vec![0],
                        children: vec![Node::Leaf(leaf_over(&[1.0, 1.0, 2.0, 5.0], 0))],
                        counts: vec![4],
                        centroids: vec![vec![0.0]],
                        norm: vec![(0.0, 1.0)],
                    })],
                }),
                Node::Leaf(leaf_over(&[9.0], 0)),
            ],
            counts: vec![4, 0],
            centroids: vec![vec![-1.0], vec![1.0]],
            norm: vec![(0.0, 1.0)],
        });
        let mut spn = crate::Spn::new(root, vec![ColumnMeta::discrete("x")], 4);
        let compiled = spn.compile();
        // 33 queries straddle a tile boundary AND leave a partial lane.
        let queries: Vec<SpnQuery> = (0..33)
            .map(|i| match i % 4 {
                0 => SpnQuery::new(1),
                1 => SpnQuery::new(1).with_pred(0, LeafPred::eq(1.0)),
                2 => SpnQuery::new(1).with_pred(0, LeafPred::eq(9.0)), // zero-weight branch only
                _ => SpnQuery::new(1).with_func(0, LeafFunc::X),
            })
            .collect();
        let simd = expect_all(&compiled, &queries, false);
        let scalar = expect_all(&compiled, &queries, true);
        for (i, (s, c)) in simd.iter().zip(&scalar).enumerate() {
            assert_eq!(s.to_bits(), c.to_bits(), "query {i}: simd vs scalar");
            let want = spn.evaluate(&queries[i]);
            assert!(
                (s - want).abs() < 1e-12,
                "query {i}: {s} vs recursive {want}"
            );
        }
        // The zero-weight branch is dead: probability of its exclusive
        // value is exactly 0 on every path.
        assert_eq!(simd[2].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn submitter_scratch_is_reusable_across_models() {
        let (ca, cb) = (model().compile(), other_model().compile());
        let qa = vec![SpnQuery::new(2)];
        let qb = vec![SpnQuery::new(2).with_pred(0, LeafPred::eq(5.0))];
        assert!((expect_all(&ca, &qa, false)[0] - 1.0).abs() < 1e-12);
        assert!((expect_all(&cb, &qb, false)[0] - 0.5).abs() < 1e-12);
        // And back again.
        assert!((expect_all(&ca, &qa, false)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_empty() {
        let compiled = model().compile();
        assert!(expect_all(&compiled, &[], false).is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let compiled = model().compile();
        expect_all(&compiled, &[SpnQuery::new(3)], false);
    }

    #[test]
    fn pool_sweep_matches_inline_bitwise_any_thread_count() {
        let (ca, cb) = (model().compile(), other_model().compile());
        // Batches larger than one tile so the parallel path actually splits.
        let base = probe_mix();
        let qa: Vec<SpnQuery> = (0..100).map(|i| base[i % base.len()].clone()).collect();
        let qb: Vec<SpnQuery> = (0..67)
            .map(|i| SpnQuery::new(2).with_pred(0, LeafPred::eq(5.0 + (i % 3) as f64)))
            .collect();
        let want_a = expect_all(&ca, &qa, false);
        let want_b = expect_all(&cb, &qb, false);

        let pool = WorkerPool::new();
        for threads in [1, 2, 4, 7] {
            let mut got_a = vec![0.0; qa.len()];
            let mut got_b = vec![0.0; qb.len()];
            pool.sweep(
                [
                    SweepJob::expect(&ca, &qa, &mut got_a),
                    SweepJob::expect(&cb, &qb, &mut got_b),
                ],
                threads,
            );
            assert_eq!(got_a, want_a, "model a, {threads} threads");
            assert_eq!(got_b, want_b, "model b, {threads} threads");
        }
    }

    #[test]
    fn sweep_counting_is_per_model_per_batch() {
        let compiled = model().compile();
        let pool = WorkerPool::new();
        let queries: Vec<SpnQuery> = (0..80).map(|_| SpnQuery::new(2)).collect();
        let before = compiled.sweep_count();
        // One inline job = one sweep, regardless of tile count.
        expect_all(&compiled, &queries, false);
        assert_eq!(compiled.sweep_count(), before + 1);
        // One pooled job = one sweep, even multi-threaded.
        let mut out = vec![0.0; queries.len()];
        pool.sweep([SweepJob::expect(&compiled, &queries, &mut out)], 4);
        assert_eq!(compiled.sweep_count(), before + 2);
        // Empty jobs don't count.
        pool.sweep([SweepJob::expect(&compiled, &[], &mut [])], 2);
        pool.sweep([SweepJob::expect(&compiled, &[], &mut [])], 1);
        assert_eq!(compiled.sweep_count(), before + 2);
        // A job carrying both probe kinds still counts as ONE sweep.
        let probes: Vec<MpeProbe> = (0..40)
            .map(|i| MpeProbe::new(0, SpnQuery::new(2).with_pred(1, LeafPred::ge(i as f64))))
            .collect();
        let mut mpe_out = vec![MpeOutcome::default(); probes.len()];
        for threads in [4, 1] {
            let mut job = SweepJob::mpe(&compiled, &probes, &mut mpe_out);
            (job.queries, job.out) = (&queries, &mut out);
            pool.sweep([job], threads);
        }
        assert_eq!(compiled.sweep_count(), before + 4);
    }

    #[test]
    fn mixed_sweep_matches_single_kind_jobs_any_thread_count() {
        let mut spn = model();
        let compiled = spn.compile();
        let queries = probe_mix();
        let probes: Vec<MpeProbe> = (0..70)
            .map(|i| {
                MpeProbe::new(
                    i % 2,
                    SpnQuery::new(2).with_pred(1 - i % 2, LeafPred::ge((i % 4) as f64 * 10.0)),
                )
            })
            .collect();
        let want_q = expect_all(&compiled, &queries, false);
        let want_p = mpe_all(&compiled, &probes, false);
        // And both must equal the recursive oracle.
        for (p, w) in probes.iter().zip(&want_p) {
            let (score, value) = spn.mpe_outcome(p.target, &p.query);
            assert_eq!(w.value, value);
            assert_eq!(w.score.to_bits(), score.to_bits());
        }
        let pool = WorkerPool::new();
        for threads in [1, 2, 4] {
            let mut got_q = vec![0.0; queries.len()];
            let mut got_p = vec![MpeOutcome::default(); probes.len()];
            let mut job = SweepJob::mpe(&compiled, &probes, &mut got_p);
            (job.queries, job.out) = (&queries, &mut got_q);
            pool.sweep([job], threads);
            assert_eq!(got_q, want_q, "{threads} threads");
            assert_eq!(got_p, want_p, "{threads} threads");
        }
    }

    #[test]
    fn pool_reuses_workers_across_sweeps() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..4 * SWEEP_TILE)
            .map(|i| SpnQuery::new(2).with_pred(1, LeafPred::ge((i % 5) as f64 * 10.0)))
            .collect();
        let pool = WorkerPool::new();
        let mut want = vec![0.0; queries.len()];
        pool.sweep(vec![SweepJob::expect(&compiled, &queries, &mut want)], 1);
        for round in 0..3 {
            let mut got = vec![0.0; queries.len()];
            pool.sweep(vec![SweepJob::expect(&compiled, &queries, &mut got)], 4);
            assert_eq!(got, want, "round {round}");
        }
        // Lazy spawn: parallel sweeps grew the pool, but only to helpers-1.
        let spawned = pool.workers.lock().unwrap().len();
        assert!(
            (1..=3).contains(&spawned),
            "expected 1..=3 helpers, got {spawned}"
        );
    }

    #[test]
    fn zero_threads_means_auto() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..3 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let want = expect_all(&compiled, &queries, false);
        let mut got = vec![0.0; queries.len()];
        WorkerPool::new().sweep([SweepJob::expect(&compiled, &queries, &mut got)], 0);
        assert_eq!(got, want);
        assert!(default_threads() >= 1 && default_threads() <= 16);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let spn = model();
        let compiled = spn.compile();
        let pool = Arc::new(WorkerPool::new());
        // An out-of-range MPE target panics inside the tile.
        let bad: Vec<MpeProbe> = (0..2 * SWEEP_TILE)
            .map(|_| MpeProbe::new(99, SpnQuery::new(2)))
            .collect();
        let panicked = {
            let pool = Arc::clone(&pool);
            let compiled = compiled.clone();
            std::thread::spawn(move || {
                let mut out = vec![MpeOutcome::default(); bad.len()];
                catch_unwind(AssertUnwindSafe(|| {
                    pool.sweep([SweepJob::mpe(&compiled, &bad, &mut out)], 4)
                }))
                .is_err()
            })
            .join()
            .expect("driver thread")
        };
        assert!(panicked, "target-out-of-range must propagate");
        // The pool still runs clean jobs afterwards.
        let queries: Vec<SpnQuery> = (0..2 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let mut out = vec![0.0; queries.len()];
        pool.sweep(vec![SweepJob::expect(&compiled, &queries, &mut out)], 4);
        assert!(out.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    /// Build an expectation job over `queries` with hooks attached.
    fn hooked_job<'a>(
        compiled: &'a CompiledSpn,
        queries: &'a [SpnQuery],
        out: &'a mut [f64],
        cancel: Option<&'a CancelFlag>,
        fault: Option<&'a TileFaultFn<'a>>,
    ) -> SweepJob<'a> {
        SweepJob {
            cancel,
            fault,
            ..SweepJob::expect(compiled, queries, out)
        }
    }

    #[test]
    fn repeated_injected_panics_never_poison_later_sweeps() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..4 * SWEEP_TILE)
            .map(|i| SpnQuery::new(2).with_pred(1, LeafPred::ge((i % 5) as f64 * 10.0)))
            .collect();
        let pool = WorkerPool::new();
        let mut want = vec![0.0; queries.len()];
        pool.sweep(vec![SweepJob::expect(&compiled, &queries, &mut want)], 1);

        for round in 0..5 {
            // Panic on every third claimed tile, from whichever thread
            // claims it (submitter included).
            let hits = AtomicUsize::new(0);
            let fault = move || {
                if hits.fetch_add(1, Ordering::Relaxed).is_multiple_of(3) {
                    Some(TileFault::Panic)
                } else {
                    None
                }
            };
            let mut out = vec![0.0; queries.len()];
            let job = hooked_job(&compiled, &queries, &mut out, None, Some(&fault));
            let panicked = catch_unwind(AssertUnwindSafe(|| pool.sweep(vec![job], 4))).is_err();
            assert!(panicked, "round {round}: injected tile panic must surface");

            // The very next sweep on the same pool must be bitwise clean.
            let mut got = vec![0.0; queries.len()];
            pool.sweep(vec![SweepJob::expect(&compiled, &queries, &mut got)], 4);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "round {round}, probe {i}");
            }
        }
    }

    #[test]
    fn cancelled_flag_skips_tiles_and_sweep_still_joins() {
        let spn = model();
        let compiled = spn.compile();
        // Empty-predicate probes evaluate to exactly 1.0, so a zero output
        // proves the tile was skipped rather than evaluated.
        let queries: Vec<SpnQuery> = (0..3 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let pool = WorkerPool::new();
        let flag = CancelFlag::new();
        flag.cancel();
        let mut out = vec![0.0; queries.len()];
        let job = hooked_job(&compiled, &queries, &mut out, Some(&flag), None);
        pool.sweep(vec![job], 4); // must not hang or panic
        assert!(flag.is_cancelled());
        assert!(
            out.iter().all(|&v| v == 0.0),
            "cancelled tiles must be skipped"
        );
        // The pool still answers correctly afterwards.
        let mut got = vec![0.0; queries.len()];
        pool.sweep(vec![SweepJob::expect(&compiled, &queries, &mut got)], 4);
        assert!(got.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn deadline_flag_trips_mid_sweep_under_delay() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..4 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let pool = WorkerPool::new();
        // Every tile sleeps 5ms; the deadline passes after ~1ms, so the
        // flag latches partway through and the sweep still completes.
        let fault = || Some(TileFault::Delay(Duration::from_millis(5)));
        let flag = CancelFlag::with_deadline(Instant::now() + Duration::from_millis(1));
        let mut out = vec![0.0; queries.len()];
        let job = hooked_job(&compiled, &queries, &mut out, Some(&flag), Some(&fault));
        pool.sweep(vec![job], 2);
        assert!(flag.is_cancelled(), "deadline expiry must latch the flag");
    }

    #[test]
    fn drop_joins_cleanly_after_injected_panics() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..3 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let pool = WorkerPool::new();
        let fault = || Some(TileFault::Panic);
        let mut out = vec![0.0; queries.len()];
        let job = hooked_job(&compiled, &queries, &mut out, None, Some(&fault));
        let panicked = catch_unwind(AssertUnwindSafe(|| pool.sweep(vec![job], 4))).is_err();
        assert!(panicked);
        drop(pool); // must join every worker despite the mid-panic state
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let spn = model();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..2 * SWEEP_TILE).map(|_| SpnQuery::new(2)).collect();
        let mut out = vec![0.0; queries.len()];
        let pool = WorkerPool::new();
        pool.sweep(vec![SweepJob::expect(&compiled, &queries, &mut out)], 2);
        drop(pool); // must not hang or leak threads
    }
}
