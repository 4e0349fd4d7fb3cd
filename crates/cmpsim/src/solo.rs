//! The solo pass: isolation IPCs of one benchmark under several L2s from
//! a single front end.
//!
//! A solo run is the one case where the simulator's front end (trace
//! generation, fetch synthesis, the private L1s) is exact on its own.
//! With one core nothing interleaves, and the run stops at the record
//! where committed instructions first reach the target — a point fixed
//! by the record stream alone, whatever the L2 does. So the L2-visible
//! stream of a solo run (per record: the fetch misses, then the data
//! miss) is the same for every L2, and one capture of it serves every
//! (policy, L2 geometry) pair. Each L2 then replays the stream through
//! the batched kernel, and the IPC follows from a closed form:
//!
//! ```text
//! cycles = Σ base + l1_miss · |S| + l2_miss · L2 misses
//! ipc    = insts_target / cycles        (0.0 when cycles == 0)
//! ```
//!
//! which is exactly the sum `System::run` accumulates record by record.
//! The result is bit-identical to
//! `System::from_profiles_scheme(solo, &[profile], &Scheme::bare(policy), salt).run().ipc(0)`.
//!
//! ```
//! use cachesim::PolicyKind;
//! use cmpsim::{MachineConfig, SoloStream, System};
//! use plru_core::Scheme;
//!
//! let mut solo = MachineConfig::paper_baseline(1);
//! solo.insts_target = 20_000;
//! let gzip = tracegen::benchmark("gzip").unwrap();
//! let stream = SoloStream::capture(&solo, &gzip, 3);
//! for policy in [PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Bt] {
//!     let oracle = System::from_profiles_scheme(&solo, &[gzip.clone()], &Scheme::bare(policy), 3)
//!         .run()
//!         .ipc(0);
//!     assert_eq!(stream.ipc(policy, solo.l2).to_bits(), oracle.to_bits());
//! }
//! ```

use crate::config::{Latencies, MachineConfig};
use crate::core_model::{BaseCharge, CoreModel};
use crate::front_end::FrontEnd;
use crate::system::System;
use cachesim::{Access, BatchStats, Cache, CacheConfig, CacheGeometry, PolicyKind};
use tracegen::BenchmarkProfile;

/// Accesses handed to the L2 kernel per batch call: large enough to
/// amortize the policy dispatch, small enough that the widened
/// [`Access`] buffer stays in L1.
const L2_CHUNK: usize = 1024;

/// The L2-visible access stream of one solo run plus what the closed-form
/// timing needs. Holds 8 bytes per L2 access; the generator and the L1s
/// are dropped by the time [`SoloStream::capture`] returns.
#[derive(Debug, Clone)]
pub struct SoloStream {
    /// Byte addresses that left the L1s, in `System::run`'s order. Write
    /// flags are not kept: they only feed the L2's write counter, never a
    /// hit, a victim choice or the timing.
    addrs: Vec<u64>,
    /// Whole base-CPI cycles charged over the run.
    base_cycles: u64,
    insts_target: u64,
    latencies: Latencies,
    /// Seed of the solo L2 (the random policy's RNG).
    l2_seed: u64,
}

impl SoloStream {
    /// Run `profile`'s front end alone on the single-core machine `solo`
    /// under `seed_salt`: core 0's generator stepped by the same front end
    /// (fetch synthesis, private L1s) as `System::run`, up to and
    /// including the record whose instructions reach `solo.insts_target`.
    /// `solo.l2` and `solo.num_cores` are not read.
    pub fn capture(solo: &MachineConfig, profile: &BenchmarkProfile, seed_salt: u64) -> Self {
        let core = CoreModel::new(
            0,
            profile.clone(),
            System::thread_seed(solo, 0, seed_salt),
            solo.insts_per_fetch_line,
        );
        let mut front = FrontEnd::new(core, solo.l1i, solo.l1d);
        let mut base = BaseCharge::new(profile.base_cpi);
        let mut addrs = Vec::new();
        let (mut base_cycles, mut insts) = (0u64, 0u64);
        // `System::run` advances a core at least once and freezes it at
        // the first record that reaches the target: a do-while.
        loop {
            let entry = front.step(|a| addrs.push(a));
            base_cycles += base.charge(entry.insts);
            if entry.data_miss {
                addrs.push(entry.addr);
            }
            insts += entry.insts;
            if insts >= solo.insts_target {
                break;
            }
        }
        SoloStream {
            addrs,
            base_cycles,
            insts_target: solo.insts_target,
            latencies: solo.latencies,
            l2_seed: solo.seed ^ seed_salt,
        }
    }

    /// Isolation IPC of the captured run on a fresh, unpartitioned L2 of
    /// shape `l2` under `policy`.
    pub fn ipc(&self, policy: PolicyKind, l2: CacheGeometry) -> f64 {
        let mut cache = Cache::new(CacheConfig {
            geometry: l2,
            policy,
            num_cores: 1,
            seed: self.l2_seed,
        });
        let mut batch = BatchStats::default();
        let mut chunk = Vec::with_capacity(L2_CHUNK.min(self.addrs.len()));
        for part in self.addrs.chunks(L2_CHUNK) {
            chunk.clear();
            chunk.extend(part.iter().map(|&a| Access::read(0, a)));
            cache.access_batch(&chunk, &mut batch);
        }
        let cycles = self.base_cycles
            + self.latencies.l1_miss * self.addrs.len() as u64
            + self.latencies.l2_miss * batch.misses;
        if cycles == 0 {
            0.0
        } else {
            self.insts_target as f64 / cycles as f64
        }
    }
}
