//! Property-based tests of the CMP simulator's timing and accounting.

use cachesim::PolicyKind;
use cmpsim::{MachineConfig, System};
use plru_core::Scheme;
use proptest::prelude::*;

fn bench_name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(tracegen::benchmark_names())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cycles are bounded below by base CPI x instructions and above by
    /// every access paying the full memory penalty.
    #[test]
    fn cycles_are_within_physical_bounds(name in bench_name(), seed in 0u64..1000) {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 20_000;
        cfg.seed = seed;
        let profile = tracegen::benchmark(name).unwrap();
        let base_cpi = profile.base_cpi;
        let mut sys = System::from_profiles_scheme(&cfg, &[profile], &Scheme::bare(PolicyKind::Lru), seed);
        let r = sys.run();
        let cycles = r.cores[0].cycles as f64;
        let insts = cfg.insts_target as f64;
        let min_cycles = insts * base_cpi * 0.95;
        // Upper bound: every instruction is a memory access that misses
        // everywhere, plus instruction fetches.
        let max_cycles = insts * (base_cpi + 2.0 * 261.0);
        prop_assert!(cycles >= min_cycles, "{name}: {cycles} < {min_cycles}");
        prop_assert!(cycles <= max_cycles, "{name}: {cycles} > {max_cycles}");
    }

    /// L2 accesses never exceed L1 accesses; misses never exceed accesses.
    #[test]
    fn access_funnel_is_monotone(name in bench_name(), seed in 0u64..1000) {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 15_000;
        cfg.seed = seed;
        let profile = tracegen::benchmark(name).unwrap();
        let mut sys = System::from_profiles_scheme(&cfg, &[profile], &Scheme::bare(PolicyKind::Nru), seed);
        let r = sys.run();
        let c = &r.cores[0];
        prop_assert!(c.l2_misses <= c.l2_accesses);
        prop_assert!(c.l2_accesses <= c.l1d_misses + c.l1i_misses);
        prop_assert!(c.ipc > 0.0);
    }

    /// Doubling the instruction target cannot shrink total cycles.
    #[test]
    fn longer_runs_take_longer(name in bench_name()) {
        let profile = tracegen::benchmark(name).unwrap();
        let run = |insts: u64| {
            let mut cfg = MachineConfig::paper_baseline(1);
            cfg.insts_target = insts;
            let mut sys =
                System::from_profiles_scheme(&cfg, std::slice::from_ref(&profile), &Scheme::bare(PolicyKind::Lru), 3);
            sys.run().cores[0].cycles
        };
        prop_assert!(run(24_000) >= run(12_000));
    }

    /// Adding a co-runner cannot improve a thread's IPC (no constructive
    /// interference exists in this machine model).
    #[test]
    fn co_runners_never_help(victim in bench_name(), aggressor in bench_name()) {
        let mut cfg1 = MachineConfig::paper_baseline(1);
        cfg1.insts_target = 30_000;
        let v = tracegen::benchmark(victim).unwrap();
        let a = tracegen::benchmark(aggressor).unwrap();
        let solo = System::from_profiles_scheme(&cfg1, std::slice::from_ref(&v), &Scheme::bare(PolicyKind::Lru), 5)
            .run()
            .ipc(0);
        let mut cfg2 = MachineConfig::paper_baseline(2);
        cfg2.insts_target = 30_000;
        let shared = System::from_profiles_scheme(&cfg2, &[v, a], &Scheme::bare(PolicyKind::Lru), 5)
            .run()
            .ipc(0);
        prop_assert!(
            shared <= solo * 1.03,
            "{victim} IPC improved next to {aggressor}: {shared} vs {solo}"
        );
    }
}
