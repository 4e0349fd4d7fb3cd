//! The private L1s of the paper's baseline CMP (Figure 1).
//!
//! Each core owns one instruction and one data cache in front of the
//! shared L2. The hierarchy is non-inclusive and write-allocate, and
//! writebacks are not modelled (the paper's timing only charges miss
//! penalties, Table II). So an L1's contents depend on its own core's
//! access stream alone, never on the L2 or on other cores: the simulator
//! runs each core's L1s ahead of the shared L2 and forwards only their
//! misses to it.

use crate::cache::{Cache, CacheConfig};
use crate::geometry::CacheGeometry;
use crate::policy::PolicyKind;

/// Per-core pair of private L1 caches.
#[derive(Debug, Clone)]
pub struct L1Pair {
    /// Instruction cache.
    pub icache: Cache,
    /// Data cache.
    pub dcache: Cache,
}

impl L1Pair {
    /// Cold private L1s of one core: single-core caches, always true LRU
    /// (Table II).
    pub fn new(l1i_geom: CacheGeometry, l1d_geom: CacheGeometry) -> Self {
        let private = |geometry| {
            Cache::new(CacheConfig {
                geometry,
                policy: PolicyKind::Lru,
                num_cores: 1,
                seed: 0,
            })
        };
        L1Pair {
            icache: private(l1i_geom),
            dcache: private(l1d_geom),
        }
    }
}
