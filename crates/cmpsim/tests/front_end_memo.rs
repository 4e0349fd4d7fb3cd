//! The front-end memo contract: a system whose cores read the memo's
//! shared front-end logs runs bit-identically to one that steps its front
//! ends inline; concurrent readers of one planned log produce each chunk
//! once, without deadlock; a producer that panics fails its waiters
//! instead of hanging them; and the last release frees the logs.

use cmpsim::{IsolationCache, MachineConfig, SimResult, System};
use plru_core::Scheme;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;
use tracegen::Workload;

const KB: u64 = 1024;
const L2_SIZES: [u64; 2] = [512 * KB, 2048 * KB];
const SCHEMES: [&str; 6] = ["L", "N", "BT", "M-L", "M-0.75N", "M-BT"];

fn machine(cores: usize, insts: u64, l2_bytes: u64) -> MachineConfig {
    let mut cfg = MachineConfig::paper_baseline(cores);
    cfg.insts_target = insts;
    cfg.with_l2_size(l2_bytes).unwrap()
}

/// A scheme by acronym, with an interval short enough that CPA schemes
/// repartition several times in these short runs.
fn scheme(acronym: &str) -> Scheme {
    acronym
        .parse::<Scheme>()
        .unwrap()
        .with_interval_cycles(Some(40_000))
}

fn json(r: &SimResult) -> String {
    serde_json::to_string(r).unwrap()
}

/// The oracle: every core's front end stepped inline.
fn inline(cfg: &MachineConfig, wl: &Workload, scheme: &Scheme, salt: u64) -> SimResult {
    System::from_workload_scheme(cfg, wl, scheme, salt).run()
}

/// Run `f` on its own thread, failing the test if it does not finish
/// within the watchdog's 300 s (a deadlock would otherwise hang CI).
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(300))
        .expect("deadlock: the work did not finish within 300 s");
    handle.join().unwrap();
    out
}

#[test]
fn memoised_runs_match_inline_runs_for_every_mix_scheme_size_and_salt() {
    for (name, insts) in [("2T_01", 20_000), ("4T_01", 8_000), ("8T_01", 4_000)] {
        let wl = tracegen::workload(name).unwrap();
        for salt in [0, 3] {
            // One memo per mix and salt, planned like a sweep plans the
            // mix's 12 cases: all of them read the same logs.
            let memo = IsolationCache::new();
            let cases: Vec<(MachineConfig, &str)> = L2_SIZES
                .iter()
                .flat_map(|&b| SCHEMES.map(|s| (machine(wl.threads(), insts, b), s)))
                .collect();
            for (cfg, _) in &cases {
                memo.plan_front_ends(cfg, &wl.benchmarks, salt);
            }
            for (cfg, acronym) in &cases {
                let s = scheme(acronym);
                let got = memo.system(cfg, &wl, &s, salt).run();
                assert_eq!(
                    json(&got),
                    json(&inline(cfg, &wl, &s, salt)),
                    "{name} {acronym} {}K salt {salt}",
                    cfg.l2.size_bytes() / KB
                );
            }
            let stats = memo.front_end_stats();
            assert!(
                stats.produced * 4 < stats.consumed,
                "{name}: 12 cases share each log: {stats:?}"
            );
            for (cfg, _) in &cases {
                memo.release_front_ends(cfg, &wl.benchmarks, salt);
            }
            assert_eq!(memo.front_end_stats().live_bytes, 0);
        }
    }
}

fn mix_name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "2T_02", "2T_05", "2T_11", "2T_21", "4T_02", "4T_05", "8T_03", "8T_04",
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random cases through a planned memo, including one-instruction and
    /// ragged targets, against the inline oracle.
    #[test]
    fn memoised_run_is_the_inline_run(
        name in mix_name(),
        acronym in prop::sample::select(SCHEMES.to_vec()),
        bytes in prop::sample::select(L2_SIZES.to_vec()),
        salt in any::<u64>(),
        insts in prop::sample::select(vec![1u64, 777, 3_000, 6_001]),
    ) {
        let wl = tracegen::workload(name).unwrap();
        let cfg = machine(wl.threads(), insts, bytes);
        let s = scheme(acronym);
        let memo = IsolationCache::new();
        memo.plan_front_ends(&cfg, &wl.benchmarks, salt);
        let got = memo.system(&cfg, &wl, &s, salt).run();
        prop_assert_eq!(json(&got), json(&inline(&cfg, &wl, &s, salt)));
        prop_assert!(memo.front_end_stats().consumed > 0, "the run read the logs");
        memo.release_front_ends(&cfg, &wl.benchmarks, salt);
        prop_assert_eq!(memo.front_end_stats().live_bytes, 0);
    }
}

#[test]
fn concurrent_readers_produce_each_chunk_once() {
    const THREADS: usize = 8;
    let wl = tracegen::workload("2T_02").unwrap();
    let salt = 11;
    let cases: Vec<(MachineConfig, Scheme)> = (0..THREADS)
        .map(|i| {
            (
                machine(2, 20_000, L2_SIZES[i % 2]),
                scheme(SCHEMES[i % SCHEMES.len()]),
            )
        })
        .collect();

    // Reference: the same cases one after another on one memo.
    let serial = IsolationCache::new();
    for (cfg, _) in &cases {
        serial.plan_front_ends(cfg, &wl.benchmarks, salt);
    }
    let want: Vec<String> = cases
        .iter()
        .map(|(cfg, s)| json(&serial.system(cfg, &wl, s, salt).run()))
        .collect();
    let serial_stats = serial.front_end_stats();

    let memo = Arc::new(IsolationCache::new());
    for (cfg, _) in &cases {
        memo.plan_front_ends(cfg, &wl.benchmarks, salt);
    }
    let got = {
        let (memo, wl, cases) = (memo.clone(), wl.clone(), cases.clone());
        with_watchdog(move || {
            let barrier = Arc::new(Barrier::new(THREADS));
            let handles: Vec<_> = cases
                .into_iter()
                .map(|(cfg, s)| {
                    let (memo, wl, barrier) = (memo.clone(), wl.clone(), barrier.clone());
                    std::thread::spawn(move || {
                        let mut sys = memo.system(&cfg, &wl, &s, salt);
                        barrier.wait();
                        json(&sys.run())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(got, want, "concurrent readers see the serial results");
    let stats = memo.front_end_stats();
    assert_eq!(
        (stats.produced, stats.consumed),
        (serial_stats.produced, serial_stats.consumed),
        "every chunk was produced once"
    );
    for (cfg, _) in &cases {
        memo.release_front_ends(cfg, &wl.benchmarks, salt);
    }
    assert_eq!(memo.front_end_stats().live_bytes, 0);
}

#[test]
fn a_panicking_producer_fails_its_waiters_without_a_hang() {
    const THREADS: usize = 8;
    // A zero fetch-line width is only rejected when a front end is built,
    // so the first chunk's producer panics with every reader waiting.
    let wl = tracegen::workload("2T_03").unwrap();
    let mut cfg = machine(2, 5_000, L2_SIZES[0]);
    cfg.insts_per_fetch_line = 0;
    let memo = Arc::new(IsolationCache::new());
    for _ in 0..THREADS {
        memo.plan_front_ends(&cfg, &wl.benchmarks, 0);
    }
    let outcomes = {
        let (memo, wl, cfg) = (memo.clone(), wl.clone(), cfg.clone());
        with_watchdog(move || {
            let barrier = Arc::new(Barrier::new(THREADS));
            let handles: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (memo, wl, cfg, barrier) =
                        (memo.clone(), wl.clone(), cfg.clone(), barrier.clone());
                    std::thread::spawn(move || {
                        let mut sys = memo.system(&cfg, &wl, &scheme(SCHEMES[i % 6]), 0);
                        barrier.wait();
                        catch_unwind(AssertUnwindSafe(|| sys.run())).is_err()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(outcomes, vec![true; THREADS], "every reader fails");
    for _ in 0..THREADS {
        memo.release_front_ends(&cfg, &wl.benchmarks, 0);
    }
    assert_eq!(memo.front_end_stats().live_bytes, 0);
}

#[test]
fn releasing_the_last_plan_frees_the_log() {
    let wl = tracegen::workload("2T_04").unwrap();
    let cfg = machine(2, 10_000, L2_SIZES[1]);
    let memo = IsolationCache::new();

    // Unplanned systems step their own front ends: no log is built.
    memo.system(&cfg, &wl, &scheme("L"), 0).run();
    assert_eq!(memo.front_end_stats(), Default::default());

    memo.plan_front_ends(&cfg, &wl.benchmarks, 0);
    memo.plan_front_ends(&cfg, &wl.benchmarks, 0);
    memo.system(&cfg, &wl, &scheme("M-L"), 0).run();
    let live = memo.front_end_stats().live_bytes;
    assert!(live > 0);
    assert_eq!(memo.front_end_stats().peak_bytes, live);

    memo.release_front_ends(&cfg, &wl.benchmarks, 0);
    assert_eq!(memo.front_end_stats().live_bytes, live, "one plan remains");
    // A system built now still reads the log, and keeps it alive past
    // the last release until it is dropped.
    let mut sys = memo.system(&cfg, &wl, &scheme("N"), 0);
    memo.release_front_ends(&cfg, &wl.benchmarks, 0);
    assert_eq!(json(&sys.run()), json(&inline(&cfg, &wl, &scheme("N"), 0)));
    assert!(memo.front_end_stats().live_bytes >= live);
    drop(sys);
    let stats = memo.front_end_stats();
    assert_eq!(stats.live_bytes, 0, "the last release freed the log");
    assert!(stats.peak_bytes >= live);
}
