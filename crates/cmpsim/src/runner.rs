//! Experiment-fleet helpers: a scoped-thread parallel map and the sweep
//! memo, a shared cache of isolation IPCs and of per-core front-end logs.
//!
//! Every figure needs dozens-to-hundreds of independent simulations; the
//! runner fans them out across hardware threads with crossbeam scoped
//! threads (no `'static` bound on the work items), memoises the
//! expensive isolation runs every relative metric divides by, and lets
//! the cases of one mix share each core's front end.

use crate::config::{Latencies, MachineConfig};
use crate::core_model::CoreModel;
use crate::front_end::{
    Feed, FrontEnd, FrontEndKey, FrontEndStats, LogCounters, LogReader, SharedLog,
};
use crate::solo::SoloStream;
use crate::system::System;
use cachesim::{CacheGeometry, PolicyKind};
use parking_lot::Mutex;
use plru_core::Scheme;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use tracegen::Workload;

/// Parallel map over `items`, preserving order. Work is distributed by an
/// atomic cursor so uneven item costs (8-thread runs take 4x the work of
/// 2-thread runs) still balance.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();

    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *results[i].lock() = Some(r);
            });
        }
    })
    .expect("worker panicked");

    results
        .into_iter()
        .map(|m| m.into_inner().expect("every item processed"))
        .collect()
}

/// The front-end half of an isolation key: every input of a solo run
/// except its L2 — the benchmark, the seed salt and the rest of the solo
/// machine. The keys of one group share it, and with it the L2-visible
/// stream a solo pass captures once for all of them. The caller's core
/// count is deliberately absent: the solo machine is always single-core.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FrontKey {
    benchmark: String,
    seed_salt: u64,
    l1i: CacheGeometry,
    l1d: CacheGeometry,
    latencies: Latencies,
    insts_target: u64,
    insts_per_fetch_line: u64,
    seed: u64,
}

/// The L2 half of an isolation key: what a group's members differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct L2Key {
    policy: PolicyKind,
    geometry: CacheGeometry,
}

/// Split a lookup into its group and member keys. The exhaustive
/// destructuring makes a new `MachineConfig` field a compile error here
/// until it is placed on one side of the split.
fn iso_key(
    cfg: &MachineConfig,
    benchmark: &str,
    policy: PolicyKind,
    seed_salt: u64,
) -> (FrontKey, L2Key) {
    let &MachineConfig {
        num_cores: _,
        l1i,
        l1d,
        l2,
        latencies,
        insts_target,
        insts_per_fetch_line,
        seed,
    } = cfg;
    let front = FrontKey {
        benchmark: benchmark.to_string(),
        seed_salt,
        l1i,
        l1d,
        latencies,
        insts_target,
        insts_per_fetch_line,
        seed,
    };
    (
        front,
        L2Key {
            policy,
            geometry: l2,
        },
    )
}

impl FrontKey {
    /// The single-core machine of this group with L2 shape `l2`.
    fn solo_cfg(&self, l2: CacheGeometry) -> MachineConfig {
        MachineConfig {
            num_cores: 1,
            l1i: self.l1i,
            l1d: self.l1d,
            l2,
            latencies: self.latencies,
            insts_target: self.insts_target,
            insts_per_fetch_line: self.insts_per_fetch_line,
            seed: self.seed,
        }
    }
}

/// Memo state of one group. A member key is in at most one of `filled`
/// and `claimed`; `planned` never holds a filled key.
#[derive(Debug, Default)]
struct Group {
    /// Finished isolation IPCs.
    filled: HashMap<L2Key, f64>,
    /// Keys a running solo pass will fill.
    claimed: HashSet<L2Key>,
    /// Keys that submitted-but-unfinished cases will look up, with the
    /// number of cases that planned each.
    planned: HashMap<L2Key, usize>,
}

impl Group {
    fn is_idle(&self) -> bool {
        self.filled.is_empty() && self.claimed.is_empty() && self.planned.is_empty()
    }
}

/// Hit/miss counters of an [`IsolationCache`]. `misses` counts keys
/// simulated (one per isolation IPC a solo pass computed); `hits` counts
/// lookups that ran no pass — answered from the memo, or after waiting
/// for another lookup's pass to fill the key. `entries` is the current
/// memo size. The sweep service surfaces these in its status response so
/// a warm daemon can *prove* it skipped the solo runs of a repeated job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Memoised (benchmark, policy, salt, solo machine) points.
    pub entries: u64,
    /// Lookups answered without running a solo pass.
    pub hits: u64,
    /// Isolation IPCs simulated.
    pub misses: u64,
}

/// Thread-safe memo of isolation IPCs (`IPC_isolation_i` in the metric
/// definitions): each benchmark running alone with the full L2 under a
/// given replacement policy.
///
/// The memo key is every input that changes the solo run's IPC — the
/// benchmark, the L2 replacement policy, the trace seed salt, and the
/// whole single-core machine derived from the caller's config
/// (geometries, latencies, instruction target, base seed). The caller's
/// *core count* is deliberately not part of the key: the solo machine is
/// always single-core, so engines of different widths share entries.
///
/// **Solo passes and groups.** Keys that differ only in the L2 (policy
/// and geometry) form a *group*: their solo runs share one generator
/// seed, one pair of L1s and one L1-miss stream. A miss is filled by a
/// [`SoloStream`] pass, which captures that stream once and replays it
/// through one fresh L2 per key, one after another. Which keys ride
/// along comes from the **plan**: a consumer that knows its upcoming
/// lookups registers them with [`IsolationCache::plan`] (the sweep
/// pool does so on submit), and the first lookup that misses *claims*
/// every planned, unclaimed, unfilled key of its group and fills them
/// all in one pass. A lookup of a claimed key waits for the pass instead
/// of recomputing it; a pass that panics releases its remaining claims
/// and wakes its waiters, which then claim the key themselves. A key
/// nobody planned (a bare [`IsolationCache::isolation_ipc`] call) is a
/// group of one. Plan entries go away when their key is filled or when
/// the consumer withdraws them with [`IsolationCache::release_plan`].
///
/// Because the key is complete, a memoised value may be reused across
/// *any* consumer that agrees on it — other engines, other sweeps, and
/// (in the sweep service) other jobs for the whole daemon lifetime. The
/// reuse guarantee is exact, not approximate: simulation is
/// deterministic, and the solo pass is bit-identical to a solo
/// `System::run`. [`MemoStats`] counts how often each path was taken:
///
/// ```
/// use cmpsim::{IsolationCache, MachineConfig};
/// use cachesim::PolicyKind;
///
/// let mut cfg = MachineConfig::paper_baseline(2);
/// cfg.insts_target = 20_000; // keep the doctest quick
/// let memo = IsolationCache::new();
/// let first = memo.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
/// let again = memo.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
/// assert_eq!(first, again, "memoised value is the exact solo IPC");
/// let stats = memo.stats();
/// assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
/// ```
///
/// **Front-end logs.** The memo also lets the cases of one mix share
/// their cores' front ends. What a core's front end produces (records,
/// fetch synthesis, private L1s) depends only on the benchmark, the
/// core's trace seed and index, the L1 shapes and the fetch-line width —
/// not on the scheme, the L2 or the other cores. A consumer that knows
/// its upcoming cases registers each with
/// [`IsolationCache::plan_front_ends`] (the sweep pool does so on
/// submit), and [`IsolationCache::system`] then builds a system whose
/// planned cores read one shared, lazily extended log per key instead of
/// recomputing it. The results are bit-identical either way. A log is
/// dropped when its last plan is withdrawn with
/// [`IsolationCache::release_front_ends`]; [`FrontEndStats`] counts the
/// records produced and read and the bytes held.
#[derive(Debug, Default)]
pub struct IsolationCache {
    /// A `std` mutex, because lookups wait on `settled`.
    groups: std::sync::Mutex<HashMap<FrontKey, Group>>,
    /// Signalled whenever a pass fills a key or releases its claims.
    settled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    passes: AtomicU64,
    /// Planned front-end logs. Never held while a log is locked.
    logs: Mutex<HashMap<FrontEndKey, PlannedLog>>,
    log_counters: Arc<LogCounters>,
}

/// A shared front-end log and the number of plans that keep it alive.
#[derive(Debug)]
struct PlannedLog {
    plans: usize,
    log: Arc<SharedLog>,
}

impl IsolationCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<FrontKey, Group>> {
        // No simulation runs under the lock, and every update made under
        // it leaves the groups consistent, so a guard poisoned by a
        // panicking pass is still valid.
        self.groups.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// IPC of `benchmark` running alone on a single-core machine derived
    /// from `cfg` (same caches, same latencies, full L2, no partitioning).
    ///
    /// `seed_salt` must match the salt of the shared run the caller
    /// divides by: it perturbs the generated trace, so the solo run is
    /// simulated — and memoised — under the same salt.
    ///
    /// # Panics
    /// If `benchmark` names no known benchmark.
    pub fn isolation_ipc(
        &self,
        cfg: &MachineConfig,
        benchmark: &str,
        policy: PolicyKind,
        seed_salt: u64,
    ) -> f64 {
        self.isolation_ipcs(cfg, &[benchmark.to_string()], policy, seed_salt)[0]
    }

    /// Isolation IPCs for every benchmark of a workload, in thread order.
    ///
    /// A benchmark whose key another pass has claimed is put off, not
    /// waited for, while some other benchmark of the list can still be
    /// looked up or simulated; only when every remaining key is claimed
    /// does the caller block until a pass settles one.
    pub fn isolation_ipcs(
        &self,
        cfg: &MachineConfig,
        benchmarks: &[String],
        policy: PolicyKind,
        seed_salt: u64,
    ) -> Vec<f64> {
        let keys: Vec<(FrontKey, L2Key)> = benchmarks
            .iter()
            .map(|b| iso_key(cfg, b, policy, seed_salt))
            .collect();
        let mut ipcs: Vec<Option<f64>> = vec![None; keys.len()];
        let mut groups = self.lock();
        loop {
            let mut progressed = false;
            for ((front, l2), slot) in keys.iter().zip(ipcs.iter_mut()) {
                if slot.is_some() {
                    continue;
                }
                let group = groups.entry(front.clone()).or_default();
                if let Some(&ipc) = group.filled.get(l2) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    *slot = Some(ipc);
                    progressed = true;
                } else if !group.claimed.contains(l2) {
                    // Claim this key first, then every planned key of the
                    // group no pass has claimed yet (planned keys are
                    // never filled).
                    let mut members = vec![*l2];
                    members.extend(
                        group
                            .planned
                            .keys()
                            .filter(|k| *k != l2 && !group.claimed.contains(k))
                            .copied(),
                    );
                    group.claimed.extend(members.iter().copied());
                    drop(groups);
                    let mut claim = Claim {
                        cache: self,
                        front,
                        pending: members,
                    };
                    *slot = Some(claim.run());
                    groups = self.lock();
                    progressed = true;
                }
            }
            if ipcs.iter().all(Option::is_some) {
                break;
            }
            if !progressed {
                groups = self
                    .settled
                    .wait(groups)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        ipcs.into_iter().flatten().collect()
    }

    /// Announce that [`IsolationCache::isolation_ipcs`] will be called
    /// with these arguments, so a solo pass of each benchmark's group
    /// fills this key too. Planning is only a hint: it never changes a
    /// value, only how many keys one pass fills. Already filled keys are
    /// not planned. Each call should be matched by one
    /// [`IsolationCache::release_plan`] once the lookups are done or
    /// abandoned.
    pub fn plan(
        &self,
        cfg: &MachineConfig,
        benchmarks: &[String],
        policy: PolicyKind,
        seed_salt: u64,
    ) {
        let mut groups = self.lock();
        for b in benchmarks {
            let (front, l2) = iso_key(cfg, b, policy, seed_salt);
            let group = groups.entry(front).or_default();
            if !group.filled.contains_key(&l2) {
                *group.planned.entry(l2).or_insert(0) += 1;
            }
        }
    }

    /// Withdraw one [`IsolationCache::plan`] call with the same
    /// arguments. Keys filled since then are already gone from the plan.
    pub fn release_plan(
        &self,
        cfg: &MachineConfig,
        benchmarks: &[String],
        policy: PolicyKind,
        seed_salt: u64,
    ) {
        let mut groups = self.lock();
        for b in benchmarks {
            let (front, l2) = iso_key(cfg, b, policy, seed_salt);
            let Some(group) = groups.get_mut(&front) else {
                continue;
            };
            if let Some(n) = group.planned.get_mut(&l2) {
                *n -= 1;
                if *n == 0 {
                    group.planned.remove(&l2);
                }
            }
            if group.is_idle() {
                groups.remove(&front);
            }
        }
    }

    /// Planned keys not yet filled.
    pub fn planned(&self) -> usize {
        self.lock().values().map(|g| g.planned.len()).sum()
    }

    /// Solo passes started over the cache's lifetime — one per front end
    /// captured, however many keys each filled.
    pub fn solo_passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Number of memoised entries.
    pub fn len(&self) -> usize {
        self.lock().values().map(|g| g.filled.len()).sum()
    }

    /// Snapshot of the memo's hit/miss counters (see [`MemoStats`]).
    ///
    /// Counters are monotonic over the cache's lifetime; consumers that
    /// want a per-interval view (the sweep service's per-job deltas)
    /// subtract two snapshots. Every key is simulated at most once per
    /// cache, so `misses` never exceeds the distinct keys looked up.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Announce that a system will run `benchmarks` (one per core, in
    /// core order) on `cfg` under `seed_salt`, so that
    /// [`IsolationCache::system`] reads each core's front end from a log
    /// shared with every other planned case of the same key. Each call
    /// should be matched by one [`IsolationCache::release_front_ends`]
    /// once the system has run or is abandoned; the log is dropped at the
    /// last release. Planning only decides who computes a front end,
    /// never a value.
    pub fn plan_front_ends(&self, cfg: &MachineConfig, benchmarks: &[String], seed_salt: u64) {
        let mut logs = self.logs.lock();
        for (core, b) in benchmarks.iter().enumerate() {
            let key = FrontEndKey::new(cfg, b, core, seed_salt);
            logs.entry(key.clone())
                .or_insert_with(|| PlannedLog {
                    plans: 0,
                    log: Arc::new(SharedLog::new(key, self.log_counters.clone())),
                })
                .plans += 1;
        }
    }

    /// Withdraw one [`IsolationCache::plan_front_ends`] call with the
    /// same arguments, dropping the logs no plan holds any more (a system
    /// still reading one keeps it until the system is dropped).
    pub fn release_front_ends(&self, cfg: &MachineConfig, benchmarks: &[String], seed_salt: u64) {
        let mut logs = self.logs.lock();
        for (core, b) in benchmarks.iter().enumerate() {
            let key = FrontEndKey::new(cfg, b, core, seed_salt);
            if let Some(planned) = logs.get_mut(&key) {
                planned.plans -= 1;
                if planned.plans == 0 {
                    // Dropping a log takes no lock.
                    logs.remove(&key);
                }
            }
        }
    }

    /// Build the system for `workload` on `cfg` under `scheme` and
    /// `seed_salt`: a core whose front end is planned (see
    /// [`IsolationCache::plan_front_ends`]) reads the shared log, any
    /// other core steps its own live front end inline. The result of
    /// `run` is bit-identical to [`System::from_workload_scheme`]'s.
    ///
    /// # Panics
    /// If a benchmark is unknown or the workload's width is not
    /// `cfg.num_cores`.
    pub fn system(
        &self,
        cfg: &MachineConfig,
        workload: &Workload,
        scheme: &Scheme,
        seed_salt: u64,
    ) -> System {
        let profiles = workload.profiles();
        let shared: Vec<Option<Arc<SharedLog>>> = {
            let logs = self.logs.lock();
            workload
                .benchmarks
                .iter()
                .enumerate()
                .map(|(core, b)| {
                    let key = FrontEndKey::new(cfg, b, core, seed_salt);
                    logs.get(&key).map(|planned| planned.log.clone())
                })
                .collect()
        };
        let feeds = profiles
            .iter()
            .zip(shared)
            .enumerate()
            .map(|(core, (p, log))| match log {
                Some(log) => Feed::Shared(LogReader::new(log)),
                None => {
                    let seed = System::thread_seed(cfg, core, seed_salt);
                    let model = CoreModel::new(core, p.clone(), seed, cfg.insts_per_fetch_line);
                    Feed::Inline(Box::new(FrontEnd::new(model, cfg.l1i, cfg.l1d)))
                }
            })
            .collect();
        System::from_feeds(cfg, &profiles, feeds, scheme, seed_salt)
    }

    /// Snapshot of the front-end log counters (see [`FrontEndStats`]).
    pub fn front_end_stats(&self) -> FrontEndStats {
        self.log_counters.stats()
    }
}

/// The keys one solo pass has claimed and not yet filled. Dropping it —
/// empty after a finished pass, non-empty only when the pass unwinds —
/// releases the remaining claims and wakes their waiters.
struct Claim<'a> {
    cache: &'a IsolationCache,
    front: &'a FrontKey,
    /// Claimed keys, the looked-up key first.
    pending: Vec<L2Key>,
}

impl Claim<'_> {
    /// Run the pass: capture the group's L2-visible stream once (the
    /// generator and L1s are gone before the first L2 exists), then fill
    /// every claimed key with its own fresh L2, one at a time, publishing
    /// each as it finishes. Returns the looked-up key's IPC.
    fn run(&mut self) -> f64 {
        self.cache.passes.fetch_add(1, Ordering::Relaxed);
        let benchmark = &self.front.benchmark;
        let profile = tracegen::benchmark(benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let wanted = self.pending[0];
        let stream = SoloStream::capture(
            &self.front.solo_cfg(wanted.geometry),
            &profile,
            self.front.seed_salt,
        );
        let mut result = None;
        while let Some(&l2) = self.pending.last() {
            let ipc = stream.ipc(l2.policy, l2.geometry);
            let mut groups = self.cache.lock();
            let group = groups.get_mut(self.front).expect("a claimed group stays");
            group.claimed.remove(&l2);
            group.planned.remove(&l2);
            group.filled.insert(l2, ipc);
            drop(groups);
            self.pending.pop();
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            self.cache.settled.notify_all();
            if l2 == wanted {
                result = Some(ipc);
            }
        }
        result.expect("the looked-up key was claimed")
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut groups = self.cache.lock();
        if let Some(group) = groups.get_mut(self.front) {
            for l2 in &self.pending {
                group.claimed.remove(l2);
            }
            if group.is_idle() {
                groups.remove(self.front);
            }
        }
        drop(groups);
        self.cache.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, (i * i) as u64);
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let items: Vec<u64> = vec![];
        let out: Vec<u64> = parallel_map(&items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_with_uneven_costs() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |&x| {
            // Simulate uneven work.
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc.wrapping_add(x)
        });
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn isolation_cache_memoises() {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 30_000;
        let cache = IsolationCache::new();
        let a = cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        assert_eq!(cache.len(), 1);
        let b = cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1, "second call was memoised");
    }

    #[test]
    fn memo_stats_count_hits_and_misses() {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 20_000;
        let cache = IsolationCache::new();
        assert_eq!(cache.stats(), MemoStats::default());
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        cache.isolation_ipc(&cfg, "eon", PolicyKind::Lru, 0);
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses), (2, 1, 2));
    }

    #[test]
    fn isolation_distinguishes_policies_and_sizes() {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 30_000;
        let cache = IsolationCache::new();
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Nru, 0);
        let small = cfg.with_l2_size(512 * 1024).unwrap();
        cache.isolation_ipc(&small, "gzip", PolicyKind::Lru, 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn isolation_distinguishes_full_machines() {
        // A shared cache may see engines built from different machines:
        // anything that changes the solo run must miss the memo.
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 30_000;
        let cache = IsolationCache::new();
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);

        let mut reseeded = cfg.clone();
        reseeded.seed ^= 0xDEAD_BEEF;
        cache.isolation_ipc(&reseeded, "gzip", PolicyKind::Lru, 0);

        let mut slower = cfg.clone();
        slower.latencies.l2_miss += 100;
        cache.isolation_ipc(&slower, "gzip", PolicyKind::Lru, 0);
        assert_eq!(cache.len(), 3, "seed and latency changes must not collide");

        // The caller's core count is irrelevant: the solo machine is
        // always single-core, so this must hit.
        let mut multi = cfg.clone();
        multi.num_cores = 4;
        cache.isolation_ipc(&multi, "gzip", PolicyKind::Lru, 0);
        assert_eq!(cache.len(), 3, "core count must not fragment the memo");
    }

    #[test]
    fn isolation_distinguishes_seed_salts() {
        // Regression for the seed-sweep aliasing bug: the memo used to be
        // keyed without the salt, so a sweep over seed salts read one
        // salt's isolation IPC for every other salt.
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 30_000;
        let cache = IsolationCache::new();
        let base = cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        let salted = cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 1);
        assert_eq!(cache.len(), 2, "different salts must not alias");
        assert_ne!(
            base, salted,
            "salting perturbs the trace, so the solo IPC moves too"
        );
        // Same salt still hits the memo.
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn isolation_ipcs_vector_matches_singles() {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 20_000;
        let cache = IsolationCache::new();
        let names = vec!["gzip".to_string(), "eon".to_string()];
        let v = cache.isolation_ipcs(&cfg, &names, PolicyKind::Lru, 0);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0));
    }
}
