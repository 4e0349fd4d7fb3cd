//! The isolation-memo contract: a solo pass is bit-identical to a solo
//! `System::run`, grouped fills leave the memo exactly as single-key fills
//! do, and concurrent lookups of one planned group simulate every key
//! once, without deadlock, even when the pass panics.

use cachesim::{CacheGeometry, PolicyKind};
use cmpsim::{IsolationCache, MachineConfig, SoloStream, System};
use plru_core::Scheme;
use proptest::prelude::*;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const KB: u64 = 1024;
const L2_SIZES: [u64; 3] = [512 * KB, 1024 * KB, 2048 * KB];

fn machine(insts: u64, l2_bytes: u64) -> MachineConfig {
    let mut cfg = MachineConfig::paper_baseline(1);
    cfg.insts_target = insts;
    cfg.with_l2_size(l2_bytes).unwrap()
}

fn l2(bytes: u64) -> CacheGeometry {
    machine(1, bytes).l2
}

/// The oracle: a full single-core simulation with a bare L2.
fn system_ipc(solo: &MachineConfig, benchmark: &str, policy: PolicyKind, salt: u64) -> f64 {
    let profile = tracegen::benchmark(benchmark).unwrap();
    System::from_profiles_scheme(solo, &[profile], &Scheme::bare(policy), salt)
        .run()
        .ipc(0)
}

/// Every benchmark × policy × L2 size at `insts` and `salt`: one capture
/// per benchmark, checked bit for bit against the oracle.
fn assert_all_keys_match(insts: u64, salt: u64) {
    assert!(!tracegen::benchmark_names().is_empty());
    for name in tracegen::benchmark_names() {
        let profile = tracegen::benchmark(name).unwrap();
        let stream = SoloStream::capture(&machine(insts, L2_SIZES[0]), &profile, salt);
        for policy in PolicyKind::ALL {
            for bytes in L2_SIZES {
                let got = stream.ipc(policy, l2(bytes));
                let want = system_ipc(&machine(insts, bytes), name, policy, salt);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name} {policy:?} {}K insts={insts} salt={salt}: {got} vs {want}",
                    bytes / KB
                );
            }
        }
    }
}

#[test]
fn one_instruction_target_matches_the_system_run_everywhere() {
    // The run still simulates the first record: System::run advances a
    // core before it checks the target.
    for salt in [0, 7] {
        assert_all_keys_match(1, salt);
    }
}

#[test]
fn ragged_target_matches_the_system_run_everywhere() {
    // 1_001 is not a multiple of the 32-instruction fetch line, so the
    // run ends with a partial fetch group pending.
    assert_eq!(MachineConfig::paper_baseline(1).insts_per_fetch_line, 32);
    for salt in [0, 3, u64::MAX] {
        assert_all_keys_match(1_001, salt);
    }
}

#[test]
fn long_target_matches_the_system_run_for_every_policy_and_size() {
    let insts = 150_000;
    let profile = tracegen::benchmark("mcf").unwrap();
    let stream = SoloStream::capture(&machine(insts, L2_SIZES[0]), &profile, 5);
    for policy in PolicyKind::ALL {
        for bytes in L2_SIZES {
            let want = system_ipc(&machine(insts, bytes), "mcf", policy, 5);
            assert_eq!(stream.ipc(policy, l2(bytes)).to_bits(), want.to_bits());
        }
    }
}

fn bench_name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(tracegen::benchmark_names())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random keys through the memo (the grouped path a sweep takes),
    /// including targets ≥ 150k and ragged ones.
    #[test]
    fn memo_ipc_is_the_system_ipc(
        name in bench_name(),
        policy in prop::sample::select(PolicyKind::ALL.to_vec()),
        bytes in prop::sample::select(L2_SIZES.to_vec()),
        salt in any::<u64>(),
        insts in prop::sample::select(vec![1u64, 777, 20_000, 150_000, 160_003]),
    ) {
        let cfg = machine(insts, bytes);
        let memo = IsolationCache::new();
        // Plan the rest of the key's group so the lookup fills it in one
        // pass and the checked value comes out of a grouped fill.
        for other in PolicyKind::ALL {
            for b in L2_SIZES {
                memo.plan(&machine(insts, b), &[name.to_string()], other, salt);
            }
        }
        let got = memo.isolation_ipc(&cfg, name, policy, salt);
        prop_assert_eq!(memo.solo_passes(), 1);
        prop_assert_eq!(memo.stats().misses, 15);
        prop_assert_eq!(got.to_bits(), system_ipc(&cfg, name, policy, salt).to_bits());
    }
}

/// The keys of two groups: gzip and mcf under every policy at two sizes.
fn two_groups() -> Vec<(MachineConfig, &'static str, PolicyKind)> {
    let mut keys = Vec::new();
    for name in ["gzip", "mcf"] {
        for policy in PolicyKind::ALL {
            for bytes in [512 * KB, 2048 * KB] {
                keys.push((machine(3_000, bytes), name, policy));
            }
        }
    }
    keys
}

#[test]
fn grouped_fills_leave_the_same_memo_as_single_key_fills() {
    let keys = two_groups();
    let grouped = IsolationCache::new();
    for (cfg, name, policy) in &keys {
        grouped.plan(cfg, &[name.to_string()], *policy, 4);
    }
    assert_eq!(grouped.planned(), keys.len());
    let single = IsolationCache::new();
    let mut grouped_ipcs = Vec::new();
    for (cfg, name, policy) in &keys {
        grouped_ipcs.push(grouped.isolation_ipc(cfg, name, *policy, 4));
    }
    for ((cfg, name, policy), g) in keys.iter().zip(&grouped_ipcs) {
        let s = single.isolation_ipc(cfg, name, *policy, 4);
        assert_eq!(g.to_bits(), s.to_bits(), "{name} {policy:?}");
    }
    assert_eq!(grouped.planned(), 0, "filling a key retires its plan");
    assert_eq!(grouped.solo_passes(), 2, "one pass per group");
    assert_eq!(single.solo_passes() as usize, keys.len());
    let (g, s) = (grouped.stats(), single.stats());
    assert_eq!(g.entries, s.entries);
    assert_eq!(g.misses, s.misses, "misses count keys simulated");
    assert_eq!(g.misses as usize, keys.len());
    // Two lookups ran passes; the other keys were already filled.
    assert_eq!(g.hits as usize, keys.len() - 2);
    // Both memos now answer every key from memory, with equal values.
    for (cfg, name, policy) in &keys {
        let a = grouped.isolation_ipc(cfg, name, *policy, 4);
        let b = single.isolation_ipc(cfg, name, *policy, 4);
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(grouped.stats().misses, g.misses);
    assert_eq!(single.stats().misses, s.misses);
}

#[test]
fn released_plans_leave_nothing_behind() {
    let memo = IsolationCache::new();
    let cfg = machine(2_000, 512 * KB);
    let names = vec!["gzip".to_string(), "gzip".to_string()];
    memo.plan(&cfg, &names, PolicyKind::Lru, 0);
    memo.plan(&cfg, &names, PolicyKind::Lru, 0);
    assert_eq!(memo.planned(), 1, "one key, planned four times");
    memo.release_plan(&cfg, &names, PolicyKind::Lru, 0);
    assert_eq!(memo.planned(), 1, "still wanted by the other plan");
    memo.release_plan(&cfg, &names, PolicyKind::Lru, 0);
    assert_eq!(memo.planned(), 0);
    // Filled keys are not planned again.
    memo.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
    memo.plan(&cfg, &names, PolicyKind::Lru, 0);
    assert_eq!(memo.planned(), 0);
}

/// Run `f` on its own thread and fail the test, instead of hanging it,
/// if it does not finish in time.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("lookups deadlocked or took too long")
}

#[test]
fn concurrent_lookups_of_a_planned_group_simulate_each_key_once() {
    let keys: Vec<_> = two_groups().into_iter().filter(|k| k.1 == "gzip").collect();
    let reference: Vec<f64> = keys
        .iter()
        .map(|(cfg, name, policy)| system_ipc(cfg, name, *policy, 2))
        .collect();
    let memo = Arc::new(IsolationCache::new());
    for (cfg, name, policy) in &keys {
        memo.plan(cfg, &[name.to_string()], *policy, 2);
    }
    let threads = 8;
    let results = {
        let (memo, keys) = (memo.clone(), keys.clone());
        within(Duration::from_secs(300), move || {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (memo, keys) = (&memo, &keys);
                        s.spawn(move || {
                            // Each thread walks the group from a different key.
                            (0..keys.len())
                                .map(|i| (i + t) % keys.len())
                                .map(|k| {
                                    let (cfg, name, policy) = &keys[k];
                                    (k, memo.isolation_ipc(cfg, name, *policy, 2))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            })
        })
    };
    for per_thread in results {
        for (k, ipc) in per_thread {
            assert_eq!(ipc.to_bits(), reference[k].to_bits(), "key {k}");
        }
    }
    let stats = memo.stats();
    assert_eq!(stats.misses as usize, keys.len(), "each key simulated once");
    assert_eq!(stats.entries as usize, keys.len());
    assert_eq!(memo.solo_passes(), 1, "the first lookup filled the group");
    assert_eq!(
        stats.hits as usize,
        threads * keys.len() - 1,
        "every lookup but the one that ran the pass is a hit"
    );
    assert_eq!(memo.planned(), 0);
}

#[test]
fn a_panicking_pass_wakes_its_waiters() {
    let memo = Arc::new(IsolationCache::new());
    let cfg = machine(2_000, 512 * KB);
    let bogus = vec!["no-such-benchmark".to_string()];
    for policy in PolicyKind::ALL {
        memo.plan(&cfg, &bogus, policy, 0);
    }
    let threads = 8;
    let outcomes = {
        let (memo, cfg) = (memo.clone(), cfg.clone());
        within(Duration::from_secs(120), move || {
            let start = Barrier::new(threads);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (memo, cfg, start) = (&memo, &cfg, &start);
                        s.spawn(move || {
                            start.wait();
                            let policy = PolicyKind::ALL[t % PolicyKind::ALL.len()];
                            memo.isolation_ipc(cfg, "no-such-benchmark", policy, 0)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().is_err())
                    .collect::<Vec<_>>()
            })
        })
    };
    assert!(outcomes.iter().all(|&panicked| panicked), "{outcomes:?}");
    let stats = memo.stats();
    assert_eq!((stats.entries, stats.misses), (0, 0), "nothing was filled");
    // Claims were released; the plan stays until withdrawn.
    assert_eq!(memo.planned(), PolicyKind::ALL.len());
    for policy in PolicyKind::ALL {
        memo.release_plan(&cfg, &bogus, policy, 0);
    }
    assert_eq!(memo.planned(), 0);
    // The memo still serves real keys afterwards.
    let ipc = memo.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
    assert_eq!(
        ipc.to_bits(),
        system_ipc(&cfg, "gzip", PolicyKind::Lru, 0).to_bits()
    );
}

#[test]
fn a_lookup_waiting_on_a_claim_retries_after_the_pass_panics() {
    // A 12-way L2 suits LRU but not the binary tree: a pass over this
    // group captures the stream, then panics building the BT L2.
    let mut cfg = machine(150_000, 512 * KB);
    cfg.l2 = CacheGeometry::new(1536 * KB, 12, 128).unwrap();
    let memo = Arc::new(IsolationCache::new());
    for policy in [PolicyKind::Lru, PolicyKind::Bt] {
        memo.plan(&cfg, &["gzip".to_string()], policy, 0);
    }
    let (owner_panicked, waiter_panicked) = {
        let (memo, cfg) = (memo.clone(), cfg.clone());
        within(Duration::from_secs(300), move || {
            std::thread::scope(|s| {
                let owner = s.spawn(|| memo.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0));
                // The owner's pass has claimed both keys once it counts;
                // the long capture keeps the BT key claimed meanwhile.
                while memo.solo_passes() == 0 {
                    std::thread::yield_now();
                }
                let waiter = s.spawn(|| memo.isolation_ipc(&cfg, "gzip", PolicyKind::Bt, 0));
                (owner.join().is_err(), waiter.join().is_err())
            })
        })
    };
    assert!(owner_panicked && waiter_panicked);
    // The owner fills its claims last to first, so it panicked before
    // filling LRU; the woken waiter claimed both keys again and filled
    // LRU before reaching BT.
    assert_eq!(memo.solo_passes(), 2);
    let stats = memo.stats();
    assert_eq!((stats.entries, stats.misses), (1, 1));
    assert_eq!(memo.planned(), 1, "only the BT key is still planned");
    let lru = memo.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
    assert_eq!(
        lru.to_bits(),
        system_ipc(&cfg, "gzip", PolicyKind::Lru, 0).to_bits()
    );
}
