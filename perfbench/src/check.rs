//! Correctness checks on every simulation the benchmark times.
//!
//! Three rules, each counted per simulation:
//! - at the default seed, every reference result must match the digest
//!   stored in `digests.txt`;
//! - at any seed, every repeat must equal the reference result of its
//!   case (the first set-up pass), and every trace replay must equal the
//!   live run that captured it;
//! - a simulation that panics fails.
//!
//! The digest hashes the `SimResult` fields one by one, by name, so a
//! field added to `SimResult` later leaves existing digests valid.

use plru_repro::cmpsim::SimResult;
use std::collections::BTreeMap;

/// The seed the stored digests were computed at.
pub const DEFAULT_SEED: u64 = 0;

const STORED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a over the simulated statistics `SimResult` carries.
pub fn digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    put(r.cores.len() as u64);
    for c in &r.cores {
        put(c.insts);
        put(c.cycles);
        put(c.ipc.to_bits());
        put(c.l2_accesses);
        put(c.l2_misses);
        put(c.l1d_misses);
        put(c.l1i_misses);
    }
    put(r.total_cycles);
    put(r.intervals);
    put(r.atd_observed);
    put(r.final_allocation.len() as u64);
    for &w in &r.final_allocation {
        put(w as u64);
    }
    let l2 = r.l2_stats.cores();
    put(l2.len() as u64);
    for s in l2 {
        put(s.accesses);
        put(s.hits);
        put(s.misses);
        put(s.writes);
        put(s.cross_evictions);
    }
    h
}

/// The stored digests, keyed by `"<workload> <case label>"`.
pub fn stored() -> BTreeMap<String, u64> {
    parse_stored(STORED)
}

fn parse_stored(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (key, hex) = l.trim().rsplit_once(' ')?;
            Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?))
        })
        .collect()
}

/// Attempted and failed simulation counts of one run, with a note per
/// failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one simulation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.notes.push(why);
        }
    }

    /// Fail a simulation that was already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `Ok` when `got` equals `want`, otherwise why not.
pub fn same(what: &str, got: &SimResult, want: &SimResult) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: result differs from its reference (digest {:016x}, want {:016x})",
            digest(got),
            digest(want)
        ))
    }
}

/// `Ok` when `r` matches the stored digest under `key`.
pub fn matches_stored(
    stored: &BTreeMap<String, u64>,
    key: &str,
    r: &SimResult,
) -> Result<(), String> {
    let got = digest(r);
    match stored.get(key) {
        Some(&want) if want == got => Ok(()),
        Some(&want) => Err(format!(
            "{key}: digest {got:016x} differs from the stored {want:016x}"
        )),
        None => Err(format!("no stored digest; measured line: {key} {got:016x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plru_repro::prelude::*;

    fn small_run() -> SimResult {
        SimEngine::builder()
            .insts(4_000)
            .scheme("M-0.75N".parse().unwrap())
            .build()
            .run_named("2T_02")
            .unwrap()
    }

    #[test]
    fn perturbed_results_are_caught() {
        let want = small_run();
        let key = "unit 2T_02/M-0.75N";
        let stored = parse_stored(&format!("# comment\n{key} {:016x}\n", digest(&want)));
        assert!(same("repeat", &want.clone(), &want).is_ok());
        assert!(matches_stored(&stored, key, &want).is_ok());

        let mut tally = Tally::default();
        let perturbations: [fn(&mut SimResult); 5] = [
            |r| r.cores[1].l2_misses += 1,
            |r| r.cores[0].ipc = f64::from_bits(r.cores[0].ipc.to_bits() ^ 1),
            |r| r.total_cycles += 1,
            |r| r.final_allocation.push(0),
            |r| r.l2_stats = plru_repro::cachesim::CacheStats::new(r.cores.len()),
        ];
        for perturb in perturbations {
            let mut got = want.clone();
            perturb(&mut got);
            assert!(matches_stored(&stored, key, &got).is_err());
            tally.record(same("repeat", &got, &want));
        }
        assert_eq!((tally.attempted, tally.failed), (5, 5));
        assert!(matches_stored(&stored, "unit unknown", &want).is_err());
    }

    #[test]
    fn stored_digests_parse() {
        let stored = stored();
        assert!(!stored.is_empty());
        assert!(stored.keys().all(|k| k.split(' ').count() == 2));
    }
}
