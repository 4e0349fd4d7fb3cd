//! The persistent case-execution pool.
//!
//! PR 3's `SweepRunner` fused two things: a scoped-thread worker fleet
//! and the orchestration of exactly one sweep. The sweep service needs
//! the fleet to *outlive* any one sweep — workers stay resident across
//! jobs so the shared [`IsolationCache`] memo stays warm — so the two
//! concerns are split:
//!
//! * [`WorkerPool`] (this module) owns long-lived worker threads pulling
//!   [`CaseTask`]s from one shared injector queue. It knows nothing
//!   about jobs, journals or report order; it runs cases and posts
//!   [`CaseOutcome`]s to whatever channel the task names.
//! * Orchestration — which cases form a job, spec-order reassembly,
//!   checkpointing, cancellation policy — lives with the caller: the
//!   local [`SweepRunner`](crate::scenario::SweepRunner) for one-shot
//!   sweeps, the [`service`](crate::service) job manager for the daemon.
//!
//! Load balancing works like the old per-worker deques did, just
//! inverted: instead of pre-sharding cases round-robin and stealing from
//! siblings, every worker steals from the single injector, so wildly
//! uneven case costs (an 8-thread CPA run next to a 1-core baseline)
//! balance the same way and tasks from concurrent jobs interleave fairly
//! in submission order.
//!
//! Workers can optionally be pinned to cores (best-effort Linux
//! `sched_setaffinity`; silently a no-op where unsupported) — useful for
//! a resident daemon that should not migrate across a busy machine.

use crate::engine::IsolationCache;
use crate::scenario::expand::ScenarioCase;
use crate::scenario::report::CaseReport;
use cmpsim::WorkloadMetrics;
use crossbeam::deque::{Injector, Steal};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One unit of pool work: a case plus the channel its outcome goes to
/// and the cancellation flag of the job it belongs to.
pub struct CaseTask {
    /// The fully resolved case to simulate.
    pub case: ScenarioCase,
    /// Checked immediately before the case runs; a cancelled task is
    /// acknowledged with [`CaseOutcome::Skipped`] instead of simulated.
    pub cancelled: Arc<AtomicBool>,
    /// Where the outcome is posted. Exactly one outcome is sent per
    /// submitted task, so a collector can count to its submission total.
    pub sink: Sender<CaseOutcome>,
}

/// What happened to one submitted [`CaseTask`].
#[derive(Debug)]
pub enum CaseOutcome {
    /// The case ran to completion.
    Completed {
        /// `ScenarioCase::index` of the finished case.
        index: usize,
        /// Its full report.
        report: Box<CaseReport>,
    },
    /// The task's cancellation flag was set before the case started.
    Skipped {
        /// `ScenarioCase::index` of the skipped case.
        index: usize,
    },
    /// The case panicked; the worker survived and the panic message is
    /// forwarded so the owning job can fail without killing the pool.
    Failed {
        /// `ScenarioCase::index` of the failed case.
        index: usize,
        /// Rendered panic payload.
        message: String,
    },
}

impl CaseOutcome {
    /// The case index the outcome refers to.
    pub fn index(&self) -> usize {
        match self {
            CaseOutcome::Completed { index, .. }
            | CaseOutcome::Skipped { index }
            | CaseOutcome::Failed { index, .. } => *index,
        }
    }
}

struct PoolShared {
    queue: Injector<CaseTask>,
    /// `true` once shutdown begins; guarded by `idle` so sleeping
    /// workers observe it under the condvar.
    stop: Mutex<bool>,
    idle: Condvar,
    isolation: Arc<IsolationCache>,
}

/// A persistent fleet of case-running worker threads sharing one
/// [`IsolationCache`] memo. Dropping the pool (or calling
/// [`WorkerPool::shutdown`]) stops the workers after their in-flight
/// cases; queued tasks are drained and acknowledged as skipped.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    // Behind a lock so `stop` can join through a shared reference (the
    // sweep service holds the pool in an `Arc`).
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Start `workers` (≥ 1) resident threads over a shared isolation
    /// memo. With `pin_cores`, worker `i` is pinned to core
    /// `i mod available_parallelism` — best-effort: pinning failure (or a
    /// non-Linux host) is ignored, never fatal.
    pub fn new(workers: usize, isolation: Arc<IsolationCache>, pin_cores: bool) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Injector::new(),
            stop: Mutex::new(false),
            idle: Condvar::new(),
            isolation,
        });
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let handles = (0..workers)
            .map(|wi| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{wi}"))
                    .spawn(move || {
                        if pin_cores {
                            pin_current_thread(wi % cores);
                        }
                        worker_loop(&shared);
                    })
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// The resident worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The memo shared by every worker (and kept warm across jobs).
    pub fn isolation_cache(&self) -> &Arc<IsolationCache> {
        &self.shared.isolation
    }

    /// Enqueue one case. Exactly one [`CaseOutcome`] will be posted to
    /// `task.sink` for it, even through cancellation or a case panic.
    ///
    /// The case's isolation keys join the memo's plan (see
    /// [`IsolationCache::plan`]), so the first solo pass of each of its
    /// benchmarks also fills the keys of cases still queued. A live
    /// case's cores also plan their front ends
    /// ([`IsolationCache::plan_front_ends`]), so the cases of one mix
    /// share each core's front-end log.
    pub fn submit(&self, task: CaseTask) {
        plan_case(&self.shared.isolation, &task.case);
        self.shared.queue.push(task);
        // Take the lock so the notify cannot race a worker between its
        // empty-queue check and its wait.
        let _g = self.shared.stop.lock().unwrap();
        self.shared.idle.notify_one();
    }

    /// Run one pre-expanded case list to completion and return reports
    /// in slice order — the one-shot orchestration used by
    /// [`SweepRunner`](crate::scenario::SweepRunner). Each report keeps
    /// its case's own `index`, which need not be the case's position
    /// (a subset of an expanded spec, say). Cases are queued a window of
    /// `workers` mixes at a time, each window's first cases first (see
    /// `queue_order`); the reports still follow the slice. Panics if a
    /// case panicked (matching the old scoped-runner behaviour).
    pub fn run_ordered(&self, cases: &[ScenarioCase]) -> Vec<CaseReport> {
        let (tx, rx) = std::sync::mpsc::channel();
        let never_cancelled = Arc::new(AtomicBool::new(false));
        // Outcomes come back tagged with the submitted case's index, so
        // submit each case under its position and restore the index on
        // the report.
        for pos in queue_order(cases, self.workers) {
            self.submit(CaseTask {
                case: ScenarioCase {
                    index: pos,
                    ..cases[pos].clone()
                },
                cancelled: never_cancelled.clone(),
                sink: tx.clone(),
            });
        }
        drop(tx);
        let mut slots: Vec<Option<CaseReport>> = (0..cases.len()).map(|_| None).collect();
        for _ in 0..cases.len() {
            match rx.recv().expect("pool outlives the sweep") {
                CaseOutcome::Completed { index, mut report } => {
                    report.case.index = cases[index].index;
                    slots[index] = Some(*report);
                }
                CaseOutcome::Skipped { index } => {
                    unreachable!("case {} skipped without a cancellation", cases[index].index)
                }
                CaseOutcome::Failed { index, message } => {
                    panic!("sweep case {} panicked: {message}", cases[index].index)
                }
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every case reported"))
            .collect()
    }

    /// Stop the workers: in-flight cases finish, queued tasks are
    /// acknowledged as skipped, threads are joined.
    pub fn shutdown(self) {
        self.stop();
    }

    /// [`shutdown`](WorkerPool::shutdown) through a shared reference —
    /// the sweep service owns its pool in an `Arc`. Idempotent.
    pub fn stop(&self) {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.idle.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        // Acknowledge anything still queued so collectors counting to
        // their submission total terminate instead of hanging.
        while let Steal::Success(task) = self.shared.queue.steal() {
            let index = task.case.index;
            release_case(&self.shared.isolation, &task.case);
            let _ = task.sink.send(CaseOutcome::Skipped { index });
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        match shared.queue.steal() {
            Steal::Success(task) => run_task(task, shared),
            Steal::Retry => continue,
            Steal::Empty => {
                let guard = shared.stop.lock().unwrap();
                if *guard {
                    return;
                }
                if shared.queue.is_empty() {
                    // Timed wait as a backstop against a lost wakeup; the
                    // notify in `submit` is the fast path.
                    let _ = shared
                        .idle
                        .wait_timeout(guard, Duration::from_millis(50))
                        .unwrap();
                }
            }
        }
    }
}

fn run_task(task: CaseTask, shared: &PoolShared) {
    let index = task.case.index;
    let outcome = if task.cancelled.load(Ordering::Acquire) {
        CaseOutcome::Skipped { index }
    } else {
        let isolation = shared.isolation.clone();
        match catch_unwind(AssertUnwindSafe(|| run_case(&task.case, isolation))) {
            Ok(report) => CaseOutcome::Completed {
                index,
                report: Box::new(report),
            },
            Err(panic) => CaseOutcome::Failed {
                index,
                message: panic_message(&panic),
            },
        }
    };
    // A finished case has looked up (and so filled) all its planned
    // keys; a skipped or failed one withdraws what it never looked up.
    // Its system is gone, so the last case of a mix frees the mix's
    // front-end logs here.
    release_case(&shared.isolation, &task.case);
    // A closed sink means the job's collector is gone (client vanished
    // and the job was torn down); nothing is owed to anyone.
    let _ = task.sink.send(outcome);
}

/// The order in which to queue `cases` on `workers` workers, as
/// positions in `cases`.
///
/// Live cases of the same benchmarks, seed and salt read the same
/// front-end logs (the core count fixes the rest of the key): the first
/// of them to run produces each chunk, the others read it. A reader that
/// starts while the producer still runs soon catches up with it and then
/// waits for every chunk, so two workers run in lockstep and a stall of
/// either stalls both. So the groups are taken `workers` at a time: the
/// first cases of a window's groups are queued first, to run side by
/// side, and only then the groups' other cases, in expansion order. A
/// window's logs are alive together, so about `workers` groups' logs are
/// alive at once, as in expansion order. A recorded case reads no log and
/// is a group of its own. With one worker the order is the given one.
pub(crate) fn queue_order(cases: &[ScenarioCase], workers: usize) -> Vec<usize> {
    if workers < 2 {
        return (0..cases.len()).collect();
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<(&[String], u64, u64), usize> = HashMap::new();
    for (pos, case) in cases.iter().enumerate() {
        let key =
            case.recorded
                .is_none()
                .then_some((&case.benchmarks[..], case.seed, case.seed_salt));
        match key.and_then(|k| by_key.get(&k)) {
            Some(&g) => groups[g].push(pos),
            None => {
                if let Some(k) = key {
                    by_key.insert(k, groups.len());
                }
                groups.push(vec![pos]);
            }
        }
    }
    let mut order = Vec::with_capacity(cases.len());
    for window in groups.chunks(workers) {
        order.extend(window.iter().map(|g| g[0]));
        for group in window {
            order.extend(&group[1..]);
        }
    }
    order
}

/// Register the isolation lookups [`run_case`] will make for `case` and,
/// unless it replays a recorded trace, its cores' front ends.
fn plan_case(isolation: &IsolationCache, case: &ScenarioCase) {
    let cfg = case.machine();
    isolation.plan(&cfg, &case.benchmarks, case.scheme.policy(), case.seed_salt);
    if case.recorded.is_none() {
        isolation.plan_front_ends(&cfg, &case.benchmarks, case.seed_salt);
    }
}

/// Withdraw what [`plan_case`] registered for `case`.
fn release_case(isolation: &IsolationCache, case: &ScenarioCase) {
    let cfg = case.machine();
    isolation.release_plan(&cfg, &case.benchmarks, case.scheme.policy(), case.seed_salt);
    if case.recorded.is_none() {
        isolation.release_front_ends(&cfg, &case.benchmarks, case.seed_salt);
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one case to completion: simulate, compute the paper's metrics
/// against the matching (salted) isolation runs, optionally capture the
/// controller's allocation history.
pub(crate) fn run_case(case: &ScenarioCase, isolation: Arc<IsolationCache>) -> CaseReport {
    let engine = case.engine(isolation);
    let workload = case.to_workload();
    // One execution path whether or not history is wanted: `engine.run`
    // is exactly `system(..).run()`, and keeping the system around is
    // what lets the controller be read back afterwards. Recorded cases
    // replay their container; expansion already stream-validated it, so
    // a failure here is a real I/O race (file touched mid-sweep).
    let mut sys = match &case.recorded {
        Some(path) => engine
            .system_from_trace(path)
            .unwrap_or_else(|e| panic!("recorded trace `{path}` failed after validation: {e}")),
        None => engine.system(&workload),
    };
    let result = sys.run();
    let allocation_history = if case.capture_history {
        sys.controller().map(|c| c.history().to_vec())
    } else {
        None
    };
    let isolation_ipcs = engine.isolation_ipcs(&workload.benchmarks);
    let metrics = WorkloadMetrics::compute(&result.ipcs(), &isolation_ipcs);
    CaseReport {
        scheme: case.scheme.acronym(),
        case: case.clone(),
        metrics,
        isolation_ipcs,
        result,
        allocation_history,
    }
}

/// Best-effort affinity pin of the calling thread to one core. Returns
/// whether the kernel accepted it; failure is always tolerable.
#[cfg(target_os = "linux")]
pub(crate) fn pin_current_thread(core: usize) -> bool {
    // 1024-CPU mask, the kernel's historical cpu_set_t width. Linking
    // against libc is implicit (std already does), so a one-line extern
    // declaration avoids a vendored libc stub for a single syscall.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bit = core % (16 * 64);
    mask[bit / 64] |= 1u64 << (bit % 64);
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_current_thread(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::{ScenarioSpec, WorkloadSel};

    fn tiny_cases() -> Vec<ScenarioCase> {
        ScenarioSpec {
            name: "pool-t".into(),
            insts: Some(12_000),
            workloads: vec![WorkloadSel::Profiles(vec!["gzip".into()])],
            schemes: vec!["L".into(), "N".into()].into(),
            ..Default::default()
        }
        .expand()
        .unwrap()
    }

    #[test]
    fn run_ordered_returns_reports_in_case_order() {
        let pool = WorkerPool::new(2, Arc::default(), false);
        let cases = tiny_cases();
        let reports = pool.run_ordered(&cases);
        assert_eq!(reports.len(), cases.len());
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.case.index, i);
        }
        pool.shutdown();
    }

    #[test]
    fn run_ordered_accepts_cases_not_indexed_by_position() {
        // A subset of an expanded spec: indices outside 0..len, out of
        // order and repeated. Reports follow the slice and keep each
        // case's own index.
        let pool = WorkerPool::new(2, Arc::default(), false);
        let all = tiny_cases();
        let last = all.last().unwrap().clone();
        let first = all.first().unwrap().clone();
        assert!(last.index > 0);
        let subset = vec![last.clone(), first, last];
        let reports = pool.run_ordered(&subset);
        assert_eq!(reports.len(), subset.len());
        for (r, c) in reports.iter().zip(&subset) {
            assert_eq!(r.case, *c);
            assert_eq!(r.scheme, c.scheme.acronym());
        }
        assert_eq!(reports[0].result.ipcs(), reports[2].result.ipcs());
        pool.shutdown();
    }

    #[test]
    fn pool_survives_jobs_and_keeps_the_memo_warm() {
        let pool = WorkerPool::new(2, Arc::default(), false);
        let cases = tiny_cases();
        let first = pool.run_ordered(&cases);
        let stats_after_first = pool.isolation_cache().stats();
        assert!(stats_after_first.misses > 0, "cold memo simulated solos");
        let second = pool.run_ordered(&cases);
        let stats_after_second = pool.isolation_cache().stats();
        assert_eq!(
            stats_after_second.misses, stats_after_first.misses,
            "warm rerun must not simulate any solo run"
        );
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.result.ipcs(), b.result.ipcs());
        }
        pool.shutdown();
    }

    #[test]
    fn cancelled_tasks_are_acknowledged_not_run() {
        let pool = WorkerPool::new(1, Arc::default(), false);
        let cases = tiny_cases();
        let cancelled = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        for case in &cases {
            pool.submit(CaseTask {
                case: case.clone(),
                cancelled: cancelled.clone(),
                sink: tx.clone(),
            });
        }
        drop(tx);
        let mut skipped = 0;
        for _ in 0..cases.len() {
            match rx.recv().unwrap() {
                CaseOutcome::Skipped { .. } => skipped += 1,
                other => panic!("expected skip, got {other:?}"),
            }
        }
        assert_eq!(skipped, cases.len());
        assert_eq!(pool.isolation_cache().planned(), 0, "skips withdraw plans");
        pool.shutdown();
    }

    #[test]
    fn shutdown_acknowledges_queued_tasks() {
        // A single worker and a pile of tasks: shutdown must drain the
        // queue with Skipped acks so a counting collector terminates.
        let pool = WorkerPool::new(1, Arc::default(), false);
        let cases = tiny_cases();
        let flag = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        for case in &cases {
            pool.submit(CaseTask {
                case: case.clone(),
                cancelled: flag.clone(),
                sink: tx.clone(),
            });
        }
        drop(tx);
        let memo = pool.isolation_cache().clone();
        pool.shutdown();
        let outcomes: Vec<CaseOutcome> = rx.into_iter().collect();
        assert_eq!(outcomes.len(), cases.len(), "one ack per submitted task");
        assert_eq!(memo.planned(), 0, "drained tasks withdraw plans");
    }

    #[test]
    fn planned_sweep_simulates_each_isolation_key_once() {
        let pool = WorkerPool::new(2, Arc::default(), false);
        let cases = ScenarioSpec {
            name: "pool-plan".into(),
            insts: Some(8_000),
            workloads: vec![WorkloadSel::Profiles(vec!["gzip".into(), "mcf".into()])],
            schemes: vec!["L".into(), "N".into(), "M-L".into()].into(),
            l2_sizes: Some(vec![512 * 1024, 2 * 1024 * 1024]),
            ..Default::default()
        }
        .expand()
        .unwrap();
        let reports = pool.run_ordered(&cases);
        let memo = pool.isolation_cache();
        // 2 benchmarks x {LRU, NRU} x 2 sizes; M-L looks up the LRU keys.
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.entries), (8, 8));
        assert!(memo.solo_passes() < 8, "planned keys ride along in passes");
        assert_eq!(memo.planned(), 0, "finished tasks leave no plan behind");
        let fresh = Arc::new(IsolationCache::new());
        for r in &reports {
            let solo = r
                .case
                .engine(fresh.clone())
                .isolation_ipcs(&r.case.benchmarks);
            assert_eq!(r.isolation_ipcs, solo, "case {}", r.case.index);
        }
        pool.shutdown();
    }

    #[test]
    fn each_window_of_groups_queues_its_producers_first() {
        let mut cases = ScenarioSpec {
            name: "pool-order".into(),
            insts: Some(1_000),
            workloads: ["2T_01", "2T_02", "2T_03"]
                .iter()
                .map(|w| WorkloadSel::Named(w.to_string()))
                .collect(),
            schemes: vec!["L".into(), "N".into()].into(),
            l2_sizes: Some(vec![512 * 1024, 2 * 1024 * 1024]),
            ..Default::default()
        }
        .expand()
        .unwrap();
        // Three groups of four cases, workload-major, taken a worker
        // count of groups at a time.
        assert_eq!(cases.len(), 12);
        assert_eq!(queue_order(&cases, 1), (0..12).collect::<Vec<_>>());
        assert_eq!(
            queue_order(&cases, 2),
            [0, 4, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11]
        );
        assert_eq!(
            queue_order(&cases, 3),
            [0, 4, 8, 1, 2, 3, 5, 6, 7, 9, 10, 11]
        );
        // Another salt or a recorded trace is another group.
        cases[1].seed_salt = 7;
        cases[2].recorded = Some("t.pltc".into());
        assert_eq!(
            queue_order(&cases, 2),
            [0, 1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 11]
        );
    }

    #[test]
    fn pinning_is_best_effort() {
        // Must never panic, whatever the host allows.
        let _ = pin_current_thread(0);
        let _ = pin_current_thread(10_000);
    }
}
