//! The traced run: per-layer host time, measured from outside the
//! program.
//!
//! Nothing inside the simulator is instrumented. For each traced case:
//!
//! 1. The real `System::run` executes over `TimedSource` wrappers, which
//!    pull records from the real generator or decoder one chunk at a
//!    time, timing each chunk (the `tracegen` spans) and keeping every
//!    record. The run's span is timed as a whole.
//! 2. A shadow run re-executes the system loop from those records through
//!    the public `CoreModel`, `Cache` and `CpaController` calls and logs
//!    each layer's exact input sequence. It must reproduce the real run's
//!    `SimResult`.
//! 3. Each layer's input sequence is replayed alone through the same
//!    public calls, on fresh caches and controllers, with one timer per
//!    chunk or interval. Each replay must reproduce the state the shadow
//!    run reached.
//!
//! The `cmpsim` self time is the `System::run` span minus the layer
//! times under it; `trace.coverage` is the share of the span the layer
//! replays and the chunk timers account for. Any mismatch aborts the
//! traced run: it reports whole numbers or none.

use crate::workloads::{self, Prepared, Workload};
use plru_repro::cachesim::{CacheStats, Enforcement};
use plru_repro::cmpsim::system::CoreResult;
use plru_repro::cmpsim::CoreModel;
use plru_repro::prelude::*;
use plru_repro::tracegen::trace::{self, Compression, TraceReader, TraceWriter};
use plru_repro::tracegen::{BenchmarkProfile, MemRecord};
use std::fs::File;
use std::io::{BufReader, Cursor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Operations per timed replay span: timers never sit on single accesses.
const CHUNK: usize = 4096;
/// Records per timed generator/decoder pull: large enough to keep timer
/// reads negligible, small enough that the records a core pulls but never
/// consumes (at most one pull per core) stay few at 256 cores.
const PULL: u64 = 512;
/// Untraced repetitions per case the tracing overhead is measured against.
const UNTRACED_REPS: usize = 3;

/// Layer totals over every traced case of a workload.
#[derive(Debug, Default)]
pub struct Layers {
    pub gen_records: u64,
    pub gen_ns: f64,
    pub decode_records: u64,
    pub decode_ns: f64,
    pub encode_records: u64,
    pub encode_ns: f64,
    pub encode_bytes: u64,
    pub l1i_accesses: u64,
    pub l1d_accesses: u64,
    pub l1_hits: u64,
    pub l1_ns: f64,
    pub l2_accesses: u64,
    pub l2_batched: u64,
    pub l2_hits: u64,
    pub l2_ns: f64,
    pub fetch_lines: u64,
    pub picks: u64,
    pub atd_observes: u64,
    pub atd_ns: f64,
    pub intervals: u64,
    pub interval_ns: f64,
    pub flips: u64,
    /// Traced `System::run` spans.
    pub run_ns: f64,
    /// Median untraced `System::run` time of the same cases.
    pub untraced_run_ns: f64,
    /// Host milliseconds of each untraced `SimEngine::system` /
    /// `system_from_trace` call.
    pub build_ms: Vec<f64>,
    /// Isolation runs of each cold sweep.
    pub isolation_runs: Vec<f64>,
    pub isolation_lookups: u64,
    pub isolation_hits: u64,
    pub sweep_ms: Vec<f64>,
    pub pool_efficiency: Vec<f64>,
    pub cases: usize,
}

impl Layers {
    /// Layer time measured under the `System::run` spans.
    pub fn layer_ns(&self) -> f64 {
        self.gen_ns + self.decode_ns + self.l1_ns + self.l2_ns + self.atd_ns + self.interval_ns
    }
}

// ---------------------------------------------------------------------
// Step 1: the real run over timed, recording sources.
// ---------------------------------------------------------------------

/// What one `TimedSource` pulled, handed back when the system drops it.
#[derive(Debug, Default)]
struct Pulled {
    records: Vec<MemRecord>,
    served: usize,
    ns: f64,
}

/// Wraps a real trace source: pulls up to `PULL` records at a time under
/// one timer and serves them one by one.
#[derive(Debug)]
struct TimedSource {
    inner: Box<dyn TraceSource>,
    /// Records the inner source can still deliver (recorded containers
    /// end; generators do not).
    left: u64,
    records: Vec<MemRecord>,
    served: usize,
    ns: f64,
    out: Arc<Mutex<Pulled>>,
}

impl TraceSource for TimedSource {
    fn next_record(&mut self) -> MemRecord {
        if self.served == self.records.len() {
            // Past the end, pull one record so the inner source reports
            // its own exhaustion.
            let n = PULL.min(self.left).max(1);
            let t = Instant::now();
            for _ in 0..n {
                self.records.push(self.inner.next_record());
            }
            self.ns += t.elapsed().as_nanos() as f64;
            self.left = self.left.saturating_sub(n);
        }
        self.served += 1;
        self.records[self.served - 1]
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.records = std::mem::take(&mut self.records);
            out.served = self.served;
            out.ns = self.ns;
        }
    }
}

/// Where a `TimedSource` hands back what it pulled.
type Slot = Arc<Mutex<Pulled>>;

/// Wrap `sources`, returning the wrapped sources and their hand-back
/// slots.
fn wrap(
    sources: Vec<Box<dyn TraceSource>>,
    limits: &[u64],
) -> (Vec<Box<dyn TraceSource>>, Vec<Slot>) {
    let outs: Vec<_> = sources.iter().map(|_| Arc::default()).collect();
    let wrapped = sources
        .into_iter()
        .zip(&outs)
        .enumerate()
        .map(|(i, (inner, out))| {
            Box::new(TimedSource {
                inner,
                left: limits.get(i).copied().unwrap_or(u64::MAX),
                records: Vec::new(),
                served: 0,
                ns: 0.0,
                out: Arc::clone(out),
            }) as Box<dyn TraceSource>
        })
        .collect();
    (wrapped, outs)
}

// ---------------------------------------------------------------------
// Step 2: the shadow run and the layer input logs.
// ---------------------------------------------------------------------

/// A core's pulled records, served again in order.
#[derive(Debug)]
struct Replay {
    records: Vec<MemRecord>,
    next: usize,
}

impl TraceSource for Replay {
    fn next_record(&mut self) -> MemRecord {
        self.next += 1;
        self.records[self.next - 1]
    }
}

#[derive(Debug, Clone, Copy)]
enum L2Op {
    /// `Cache::access_batch` over `l2_flat[start..start + len]`.
    Batch { start: usize, len: usize },
    /// `Cache::access` of one data access.
    Data(Access),
    /// `Cache::set_enforcement(enforcements[i])`.
    Enforce(usize),
}

#[derive(Debug, Clone, Copy)]
enum AtdOp {
    Observe {
        core: usize,
        addr: u64,
    },
    /// `on_interval_with_feedback(interval_misses[i])`.
    Interval(usize),
}

/// Every layer's input sequence in one run, and the state each layer
/// ended in.
#[derive(Debug, Default, Clone)]
struct LayerInputs {
    picks: Vec<u8>,
    fetch_counts: Vec<u32>,
    fetch_addrs: Vec<u64>,
    data: Vec<(u64, bool)>,
    l2_ops: Vec<L2Op>,
    l2_flat: Vec<Access>,
    /// `[initial, after interval 1, ...]`; empty without a CPA.
    enforcements: Vec<Enforcement>,
    atd_ops: Vec<AtdOp>,
    interval_misses: Vec<Vec<u64>>,
    l1i_end: Vec<CacheStats>,
    l1d_end: Vec<CacheStats>,
    l2_end: CacheStats,
    atd_observed_end: u64,
    allocation_end: Vec<usize>,
}

fn private_l1(geometry: CacheGeometry) -> Cache {
    Cache::new(CacheConfig {
        geometry,
        policy: PolicyKind::Lru,
        num_cores: 1,
        seed: 0,
    })
}

fn shared_l2(cfg: &MachineConfig, scheme: &Scheme, salt: u64) -> Cache {
    Cache::new(CacheConfig {
        geometry: cfg.l2,
        policy: scheme.policy(),
        num_cores: cfg.num_cores,
        seed: cfg.seed ^ salt,
    })
}

/// Re-execute `System::run` over the pulled streams through public
/// calls, logging each layer's inputs.
fn shadow(
    cfg: &MachineConfig,
    scheme: &Scheme,
    salt: u64,
    profiles: &[BenchmarkProfile],
    streams: Vec<Vec<MemRecord>>,
) -> Result<(SimResult, LayerInputs), String> {
    let n = cfg.num_cores;
    if n > 256 {
        return Err(format!(
            "{n} cores exceed the 8-bit core ids of the pick log"
        ));
    }
    let served: Vec<usize> = streams.iter().map(Vec::len).collect();
    let mut cores: Vec<CoreModel> = profiles
        .iter()
        .zip(streams)
        .enumerate()
        .map(|(i, (p, records))| {
            let src = Box::new(Replay { records, next: 0 });
            CoreModel::from_source(i, p, src, cfg.insts_per_fetch_line)
        })
        .collect();
    let mut l1i: Vec<Cache> = (0..n).map(|_| private_l1(cfg.l1i)).collect();
    let mut l1d: Vec<Cache> = (0..n).map(|_| private_l1(cfg.l1d)).collect();
    let mut l2 = shared_l2(cfg, scheme, salt);
    let mut log = LayerInputs::default();
    let mut ctl = scheme.cpa().map(|c| {
        let ctl = CpaController::new(c.clone(), cfg.l2, n);
        let e = ctl.initial_enforcement();
        l2.set_enforcement(e.clone());
        log.enforcements.push(e);
        ctl
    });
    let mut next_interval = ctl
        .as_ref()
        .map(|c| c.interval_cycles())
        .unwrap_or(u64::MAX);
    let mut intervals = 0u64;
    let mut last_misses = vec![0u64; n];
    let mut pulled = vec![0usize; n];
    let mut frozen: Vec<Option<CoreResult>> = vec![None; n];
    let mut done = 0;
    let (lat1, lat2) = (cfg.latencies.l1_miss, cfg.latencies.l2_miss);
    let target = cfg.insts_target;
    let (mut fetch, mut batch, mut misses) = (Vec::new(), Vec::new(), Vec::new());

    while done < n {
        let c = (0..n).min_by_key(|&i| cores[i].cycle).ok_or("no cores")?;
        if cores[c].cycle >= next_interval {
            if let Some(ctl) = &mut ctl {
                let delta: Vec<u64> = (0..n)
                    .map(|i| {
                        let total = l2.stats().core(i).misses;
                        let d = total - last_misses[i];
                        last_misses[i] = total;
                        d
                    })
                    .collect();
                let e = ctl.on_interval_with_feedback(Some(&delta));
                log.atd_ops.push(AtdOp::Interval(log.interval_misses.len()));
                log.interval_misses.push(delta);
                l2.set_enforcement(e.clone());
                log.l2_ops.push(L2Op::Enforce(log.enforcements.len()));
                log.enforcements.push(e);
                intervals += 1;
                next_interval += ctl.interval_cycles();
            }
        }
        if pulled[c] == served[c] {
            return Err(format!(
                "core {c} needs more records than the real run pulled"
            ));
        }
        pulled[c] += 1;
        let rec = cores[c].next_record();
        let insts = rec.instructions();
        let mut latency = cores[c].charge_base(insts);
        log.picks.push(c as u8);

        cores[c].fetch_addrs_into(insts, &mut fetch);
        log.fetch_counts.push(fetch.len() as u32);
        if !fetch.is_empty() {
            log.fetch_addrs.extend_from_slice(&fetch);
            batch.clear();
            batch.extend(fetch.iter().map(|&a| Access::read(0, a)));
            misses.clear();
            let mut s1 = BatchStats::default();
            l1i[c].access_batch_collecting(&batch, &mut s1, &mut misses);
            for a in &mut misses {
                a.core = c as u8;
            }
            let mut s2 = BatchStats::default();
            l2.access_batch(&misses, &mut s2);
            log.l2_ops.push(L2Op::Batch {
                start: log.l2_flat.len(),
                len: misses.len(),
            });
            log.l2_flat.extend_from_slice(&misses);
            latency += (s2.hits + s2.misses) * lat1 + s2.misses * lat2;
            if let Some(ctl) = &mut ctl {
                for a in &misses {
                    ctl.observe(c, a.addr);
                    log.atd_ops.push(AtdOp::Observe {
                        core: c,
                        addr: a.addr,
                    });
                }
            }
        }

        log.data.push((rec.addr, rec.is_write));
        if !l1d[c].access(0, rec.addr, rec.is_write).hit {
            let hit = l2.access(c, rec.addr, rec.is_write).hit;
            log.l2_ops
                .push(L2Op::Data(Access::new(c, rec.addr, rec.is_write)));
            latency += if hit { lat1 } else { lat1 + lat2 };
            if let Some(ctl) = &mut ctl {
                ctl.observe(c, rec.addr);
                log.atd_ops.push(AtdOp::Observe {
                    core: c,
                    addr: rec.addr,
                });
            }
        }

        let core = &mut cores[c];
        core.cycle += latency;
        core.insts += insts;
        if !core.finished() {
            core.maybe_finish(target);
            if let Some(cycles) = core.finish_cycle {
                let s = l2.stats().core(c);
                frozen[c] = Some(CoreResult {
                    insts: target,
                    cycles,
                    ipc: core.ipc(target),
                    l2_accesses: s.accesses,
                    l2_misses: s.misses,
                    l1d_misses: l1d[c].stats().core(0).misses,
                    l1i_misses: l1i[c].stats().core(0).misses,
                });
                done += 1;
            }
        }
    }
    if pulled != served {
        return Err(format!(
            "shadow pulled {pulled:?} records per core, the real run {served:?}"
        ));
    }

    let cores: Vec<CoreResult> = frozen
        .into_iter()
        .map(|c| c.ok_or("unfrozen core"))
        .collect::<Result<_, _>>()?;
    let result = SimResult {
        total_cycles: cores.iter().map(|c| c.cycles).max().unwrap_or(0),
        intervals,
        atd_observed: ctl.as_ref().map(|c| c.total_observed()).unwrap_or(0),
        final_allocation: ctl
            .as_ref()
            .map(|c| c.allocation().to_vec())
            .unwrap_or_default(),
        l2_stats: l2.stats().clone(),
        cores,
    };
    log.l1i_end = l1i.iter().map(|c| c.stats().clone()).collect();
    log.l1d_end = l1d.iter().map(|c| c.stats().clone()).collect();
    log.l2_end = result.l2_stats.clone();
    log.atd_observed_end = result.atd_observed;
    log.allocation_end = result.final_allocation.clone();
    Ok((result, log))
}

// ---------------------------------------------------------------------
// Step 3: per-layer replays.
// ---------------------------------------------------------------------

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The private L1s: every pick's instruction-fetch batch and data access,
/// in the real run's global order.
fn replay_l1(cfg: &MachineConfig, log: &LayerInputs, into: &mut Layers) -> Result<(), String> {
    let n = cfg.num_cores;
    let mut l1i: Vec<Cache> = (0..n).map(|_| private_l1(cfg.l1i)).collect();
    let mut l1d: Vec<Cache> = (0..n).map(|_| private_l1(cfg.l1d)).collect();
    let (mut batch, mut misses) = (Vec::new(), Vec::new());
    let mut next_fetch = 0;
    let mut ns = 0.0;
    for start in (0..log.picks.len()).step_by(CHUNK) {
        let end = (start + CHUNK).min(log.picks.len());
        let t = Instant::now();
        for k in start..end {
            let c = log.picks[k] as usize;
            let count = log.fetch_counts[k] as usize;
            if count > 0 {
                batch.clear();
                let addrs = &log.fetch_addrs[next_fetch..next_fetch + count];
                batch.extend(addrs.iter().map(|&a| Access::read(0, a)));
                next_fetch += count;
                misses.clear();
                let mut s = BatchStats::default();
                l1i[c].access_batch_collecting(&batch, &mut s, &mut misses);
            }
            let (addr, write) = log.data[k];
            l1d[c].access(0, addr, write);
        }
        ns += ns_since(t);
    }
    for c in 0..n {
        if *l1i[c].stats() != log.l1i_end[c] || *l1d[c].stats() != log.l1d_end[c] {
            return Err(format!("L1 replay of core {c} did not reproduce the run"));
        }
        into.l1i_accesses += l1i[c].stats().total().accesses;
        into.l1d_accesses += l1d[c].stats().total().accesses;
        into.l1_hits += l1i[c].stats().total().hits + l1d[c].stats().total().hits;
    }
    into.fetch_lines += log.fetch_addrs.len() as u64;
    into.picks += log.picks.len() as u64;
    into.l1_ns += ns;
    Ok(())
}

/// The shared L2: batches, data accesses and enforcement changes in the
/// real run's order.
fn replay_l2(
    cfg: &MachineConfig,
    scheme: &Scheme,
    salt: u64,
    log: &LayerInputs,
    into: &mut Layers,
) -> Result<(), String> {
    let mut l2 = shared_l2(cfg, scheme, salt);
    if let Some(e) = log.enforcements.first() {
        l2.set_enforcement(e.clone());
    }
    let mut batched = 0u64;
    let mut ns = 0.0;
    for ops in log.l2_ops.chunks(CHUNK) {
        let t = Instant::now();
        for op in ops {
            match *op {
                L2Op::Batch { start, len } => {
                    let mut s = BatchStats::default();
                    l2.access_batch(&log.l2_flat[start..start + len], &mut s);
                    batched += len as u64;
                }
                L2Op::Data(a) => {
                    l2.access(a.core as usize, a.addr, a.write);
                }
                L2Op::Enforce(i) => l2.set_enforcement(log.enforcements[i].clone()),
            }
        }
        ns += ns_since(t);
    }
    if *l2.stats() != log.l2_end {
        return Err("L2 replay did not reproduce the run".to_string());
    }
    let total = l2.stats().total();
    into.l2_accesses += total.accesses;
    into.l2_hits += total.hits;
    into.l2_batched += batched;
    into.l2_ns += ns;
    Ok(())
}

/// The CPA controller: ATD observations in spans of up to `CHUNK`, each
/// interval under its own timer.
fn replay_cpa(
    cfg: &MachineConfig,
    scheme: &Scheme,
    log: &LayerInputs,
    into: &mut Layers,
) -> Result<(), String> {
    let Some(cpa) = scheme.cpa() else {
        return Ok(());
    };
    let mut ctl = CpaController::new(cpa.clone(), cfg.l2, cfg.num_cores);
    if log.enforcements.first() != Some(&ctl.initial_enforcement()) {
        return Err("controller replay starts from another enforcement".to_string());
    }
    let (mut observe_ns, mut interval_ns) = (0.0, 0.0);
    let (mut observes, mut intervals, mut flips) = (0u64, 0u64, 0u64);
    let mut i = 0;
    while i < log.atd_ops.len() {
        match log.atd_ops[i] {
            AtdOp::Interval(k) => {
                let before = ctl.allocation().to_vec();
                let t = Instant::now();
                let e = ctl.on_interval_with_feedback(Some(&log.interval_misses[k]));
                interval_ns += ns_since(t);
                if log.enforcements.get(k + 1) != Some(&e) {
                    return Err(format!("controller replay diverged at interval {}", k + 1));
                }
                flips += u64::from(ctl.allocation() != before.as_slice());
                intervals += 1;
                i += 1;
            }
            AtdOp::Observe { .. } => {
                let t = Instant::now();
                let mut taken = 0;
                while taken < CHUNK && i < log.atd_ops.len() {
                    let AtdOp::Observe { core, addr } = log.atd_ops[i] else {
                        break;
                    };
                    ctl.observe(core, addr);
                    taken += 1;
                    i += 1;
                }
                observe_ns += ns_since(t);
                observes += taken as u64;
            }
        }
    }
    if ctl.total_observed() != log.atd_observed_end
        || ctl.allocation() != log.allocation_end.as_slice()
    {
        return Err("controller replay did not reproduce the run".to_string());
    }
    into.atd_observes += observes;
    into.atd_ns += observe_ns;
    into.intervals += intervals;
    into.interval_ns += interval_ns;
    into.flips += flips;
    Ok(())
}

// ---------------------------------------------------------------------
// One traced case.
// ---------------------------------------------------------------------

/// Where a traced case's records come from.
enum Origin<'a> {
    Live,
    Recorded(&'a std::path::Path),
}

fn traced_case(p: &Prepared, i: usize, origin: Origin, into: &mut Layers) -> Result<(), String> {
    let case = &p.cases[i];
    let engine = &p.engines[i];
    let reference = &p.reference[i];
    let key = workloads::case_key(p.workload, case);
    let cfg = engine.config();
    let scheme = engine.scheme();
    let salt = case.seed_salt;

    // Untraced repetitions: engine build time and the run time the
    // tracing overhead is measured against.
    let mut untraced = Vec::new();
    for _ in 0..UNTRACED_REPS {
        let t = Instant::now();
        let mut sys = match origin {
            Origin::Live => engine.system(&case.to_workload()),
            Origin::Recorded(path) => engine
                .system_from_trace(path)
                .map_err(|e| format!("{key}: {e}"))?,
        };
        into.build_ms.push(ns_since(t) / 1e6);
        let t = Instant::now();
        let r = sys.run();
        untraced.push(ns_since(t));
        crate::check::same(&format!("untraced {key}"), &r, reference)?;
    }
    untraced.sort_by(f64::total_cmp);

    // The real run over timed sources.
    let (profiles, sources, limits) = match origin {
        Origin::Live => {
            let profiles = case.to_workload().profiles();
            let sources = profiles
                .iter()
                .enumerate()
                .map(|(c, prof)| {
                    Box::new(TraceGenerator::new(
                        prof.clone(),
                        System::thread_seed(cfg, c, salt),
                    )) as Box<dyn TraceSource>
                })
                .collect();
            (profiles, sources, Vec::new())
        }
        Origin::Recorded(path) => {
            let (info, sources) = trace::open_sources(path).map_err(|e| format!("{key}: {e}"))?;
            let profiles = info
                .meta
                .benchmarks
                .iter()
                .map(|b| {
                    plru_repro::tracegen::benchmark(b)
                        .ok_or(format!("{key}: unknown benchmark {b}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            (profiles, sources, info.records.clone())
        }
    };
    let (wrapped, pulled) = wrap(sources, &limits);
    let mut sys = System::from_sources_scheme(cfg, &profiles, wrapped, scheme, salt);
    let t = Instant::now();
    let real = sys.run();
    let span = ns_since(t);
    drop(sys);
    crate::check::same(&format!("traced {key}"), &real, reference)?;

    // A source pulls whole chunks, so it may produce more records than
    // the run consumes; only the consumed share of its time lies on the
    // run's path.
    let mut streams = Vec::new();
    let mut source_ns = 0.0;
    let mut source_records = 0u64;
    for slot in pulled {
        let mut got = std::mem::take(&mut *slot.lock().map_err(|_| "source log poisoned")?);
        if !got.records.is_empty() {
            source_ns += got.ns * got.served as f64 / got.records.len() as f64;
        }
        got.records.truncate(got.served);
        source_records += got.records.len() as u64;
        streams.push(got.records);
    }
    let (shadow_result, log) = shadow(cfg, scheme, salt, &profiles, streams)?;
    crate::check::same(&format!("shadow of {key}"), &shadow_result, reference)?;

    replay_l1(cfg, &log, into).map_err(|e| format!("{key}: {e}"))?;
    replay_l2(cfg, scheme, salt, &log, into).map_err(|e| format!("{key}: {e}"))?;
    replay_cpa(cfg, scheme, &log, into).map_err(|e| format!("{key}: {e}"))?;
    match origin {
        Origin::Live => {
            into.gen_ns += source_ns;
            into.gen_records += source_records;
        }
        Origin::Recorded(_) => {
            into.decode_ns += source_ns;
            into.decode_records += source_records;
        }
    }
    into.run_ns += span;
    into.untraced_run_ns += untraced[untraced.len() / 2];
    into.cases += 1;
    Ok(())
}

/// Re-encode a recorded container's streams into an in-memory v2
/// container, `CHUNK` pushes per timer, and check it decodes back.
fn traced_encode(path: &std::path::Path, into: &mut Layers) -> Result<(), String> {
    let err = |e: trace::TraceError| format!("{}: {e}", path.display());
    let info = trace::load_info(path).map_err(err)?;
    let mut streams = Vec::new();
    for t in 0..info.meta.threads() {
        let file = File::open(path).map_err(|e| e.to_string())?;
        let mut r = TraceReader::new(BufReader::new(file), t).map_err(err)?;
        let mut recs = Vec::new();
        while let Some(rec) = r.try_next().map_err(err)? {
            recs.push(rec);
        }
        streams.push(recs);
    }
    let mut ns = 0.0;
    let t = Instant::now();
    let mut w = TraceWriter::create_with(Cursor::new(Vec::new()), &info.meta, Compression::Dict)
        .map_err(err)?;
    ns += ns_since(t);
    for (thread, recs) in streams.iter().enumerate() {
        for chunk in recs.chunks(CHUNK) {
            let t = Instant::now();
            for &rec in chunk {
                w.push(thread, rec).map_err(err)?;
            }
            ns += ns_since(t);
        }
    }
    let t = Instant::now();
    let bytes = w.finish().map_err(err)?.into_inner();
    ns += ns_since(t);
    for (thread, recs) in streams.iter().enumerate() {
        let mut r = TraceReader::new(Cursor::new(&bytes), thread).map_err(err)?;
        for want in recs {
            if r.try_next().map_err(err)?.as_ref() != Some(want) {
                return Err(format!(
                    "{}: re-encoded thread {thread} decodes differently",
                    path.display()
                ));
            }
        }
    }
    into.encode_records += streams.iter().map(|s| s.len() as u64).sum::<u64>();
    into.encode_bytes += bytes.len() as u64;
    into.encode_ns += ns;
    Ok(())
}

/// Sweep-level spans: a cold two-worker sweep, its isolation memo
/// counters, and the same cases run one at a time.
fn traced_sweep(p: &Prepared, into: &mut Layers) -> Result<(), String> {
    let runner = SweepRunner::with_threads(2);
    let t = Instant::now();
    let reports = workloads::guarded(|| runner.run_cases(&p.cases))?;
    let sweep_ns = ns_since(t);
    for (i, r) in reports.iter().enumerate() {
        crate::check::same(
            &workloads::case_key(p.workload, &p.cases[i]),
            &r.result,
            &p.reference[i],
        )?;
    }
    let memo = runner.isolation_cache().stats();
    into.isolation_runs.push(memo.misses as f64);
    into.isolation_hits += memo.hits;
    into.isolation_lookups += memo.hits + memo.misses;
    into.sweep_ms.push(sweep_ns / 1e6);

    let solo = SweepRunner::with_threads(1);
    let mut solo_ns = 0.0;
    for (i, case) in p.cases.iter().enumerate() {
        // A one-case sweep: the pool files reports by case index.
        let alone = ScenarioCase {
            index: 0,
            ..case.clone()
        };
        let t = Instant::now();
        let r = workloads::guarded(|| solo.run_cases(std::slice::from_ref(&alone)))?;
        solo_ns += ns_since(t);
        let r = r.first().ok_or("solo sweep returned nothing")?;
        crate::check::same(
            &workloads::case_key(p.workload, case),
            &r.result,
            &p.reference[i],
        )?;
    }
    into.pool_efficiency
        .push(solo_ns / (runner.threads() as f64 * sweep_ns));
    Ok(())
}

/// Trace every case of the workload once.
pub fn run(p: &Prepared, into: &mut Layers) -> Result<(), String> {
    match p.workload {
        Workload::Sweep2c => {
            for _ in 0..3 {
                traced_sweep(p, into)?;
            }
            for i in 0..p.cases.len() {
                traced_case(p, i, Origin::Live, into)?;
            }
        }
        Workload::Trace2c => {
            for i in 0..p.cases.len() {
                traced_encode(&p.traces[i], into)?;
                traced_case(p, i, Origin::Recorded(&p.traces[i]), into)?;
            }
        }
        Workload::Manycore256t => {
            for i in 0..p.cases.len() {
                traced_case(p, i, Origin::Live, into)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short two-core M-0.75N run traced through `TimedSource`s: its
    /// configuration, scheme and shadow log, after checking that the
    /// traced, shadow and untraced runs agree.
    fn logged() -> (MachineConfig, Scheme, LayerInputs) {
        let mut cfg = MachineConfig::paper_baseline(2);
        cfg.insts_target = 6_000;
        let mut cpa = CpaConfig::m_nru(0.75);
        cpa.interval_cycles = 5_000;
        let scheme = Scheme::partitioned(cpa).unwrap();
        let wl = plru_repro::tracegen::workload("2T_02").unwrap();
        let profiles = wl.profiles();
        let sources = profiles
            .iter()
            .enumerate()
            .map(|(c, p)| {
                Box::new(TraceGenerator::new(
                    p.clone(),
                    System::thread_seed(&cfg, c, 0),
                )) as Box<dyn TraceSource>
            })
            .collect();
        let (wrapped, pulled) = wrap(sources, &[]);
        let traced = System::from_sources_scheme(&cfg, &profiles, wrapped, &scheme, 0).run();
        let streams = pulled
            .iter()
            .map(|slot| {
                let mut got = std::mem::take(&mut *slot.lock().unwrap());
                got.records.truncate(got.served);
                got.records
            })
            .collect();
        let (shadowed, log) = shadow(&cfg, &scheme, 0, &profiles, streams).unwrap();
        let untraced = System::from_workload_scheme(&cfg, &wl, &scheme, 0).run();
        assert_eq!(traced, untraced);
        assert_eq!(shadowed, untraced);
        (cfg, scheme, log)
    }

    #[test]
    fn layer_replays_reproduce_the_run_and_reject_tampered_logs() {
        let (cfg, scheme, log) = logged();
        let mut layers = Layers::default();
        replay_l1(&cfg, &log, &mut layers).unwrap();
        replay_l2(&cfg, &scheme, 0, &log, &mut layers).unwrap();
        replay_cpa(&cfg, &scheme, &log, &mut layers).unwrap();
        assert!(layers.intervals > 0 && layers.atd_observes > 0 && layers.l2_batched > 0);

        let mut bad = Layers::default();
        let mut l1 = log.clone();
        l1.data[0].1 = !l1.data[0].1;
        assert!(replay_l1(&cfg, &l1, &mut bad).is_err());

        let mut l2 = log.clone();
        let first_data = l2
            .l2_ops
            .iter()
            .position(|op| matches!(op, L2Op::Data(_)))
            .unwrap();
        if let L2Op::Data(a) = &mut l2.l2_ops[first_data] {
            a.write = !a.write;
        }
        assert!(replay_l2(&cfg, &scheme, 0, &l2, &mut bad).is_err());

        let mut cpa = log.clone();
        cpa.atd_observed_end += 1;
        assert!(replay_cpa(&cfg, &scheme, &cpa, &mut bad).is_err());
    }
}
