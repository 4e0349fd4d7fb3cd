//! The per-core front end: trace source, instruction-fetch synthesis and
//! the private L1s, run ahead of the shared L2.
//!
//! The hierarchy is non-inclusive and each core's L1s are private (see
//! [`cachesim::hierarchy`]), so what a core's front end produces for a
//! record — its instruction count, which fetch lines missed the L1I, and
//! whether its data access missed the L1D — depends on that core's own
//! stream alone: not on the L2, the scheme, the L2 size or the other
//! cores. [`FrontEnd::step`] computes one record of it, and it is the one
//! definition three users share:
//!
//! * `System::run`'s **inline** front end steps one record at a time;
//! * a **shared log** ([`SharedLog`]) steps a core ahead in chunks and
//!   keeps a compact copy, so every case of a sweep that runs the same
//!   core on the same stream reads it instead of recomputing it;
//! * `SoloStream::capture` steps the solo run's core 0.
//!
//! The back end (`System::run`) turns entries into L2 accesses, CPA
//! observations and cycles. Base cycles are not part of an entry: the
//! back end charges them with its own copy of the core's
//! [`BaseCharge`](crate::core_model::BaseCharge), the same arithmetic in
//! the same order.

use crate::config::MachineConfig;
use crate::core_model::CoreModel;
use crate::system::System;
use cachesim::hierarchy::L1Pair;
use cachesim::CacheGeometry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One record as the back end needs it. The record's fetch-line misses
/// are handed out separately, in stream order, before the entry returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// Instructions the record commits.
    pub insts: u64,
    /// Did the data access miss the L1D (and so reach the L2)?
    pub data_miss: bool,
    /// Byte address of the data access (meaningful on a miss).
    pub addr: u64,
    /// Is the data access a store (meaningful on a miss)?
    pub write: bool,
}

/// One core's trace source, fetch synthesis and private L1 pair.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    core: CoreModel,
    l1: L1Pair,
    /// Reusable fetch-group buffer.
    fetch: Vec<u64>,
}

impl FrontEnd {
    /// Cold L1s of shapes `l1i` / `l1d` in front of `core`'s stream.
    pub(crate) fn new(core: CoreModel, l1i: CacheGeometry, l1d: CacheGeometry) -> Self {
        FrontEnd {
            core,
            l1: L1Pair::new(l1i, l1d),
            fetch: Vec::new(),
        }
    }

    /// Advance one record: pull it from the source, synthesise its fetch
    /// group, run the group through the L1I — handing each line that
    /// misses to `fetch_miss`, in order — and the data access through the
    /// L1D.
    #[inline]
    pub(crate) fn step(&mut self, mut fetch_miss: impl FnMut(u64)) -> Entry {
        let rec = self.core.next_record();
        let insts = rec.instructions();
        self.core.fetch_addrs_into(insts, &mut self.fetch);
        for &a in &self.fetch {
            if !self.l1.icache.access(0, a, false).hit {
                fetch_miss(a);
            }
        }
        let data_miss = !self.l1.dcache.access(0, rec.addr, rec.is_write).hit;
        Entry {
            insts,
            data_miss,
            addr: rec.addr,
            write: rec.is_write,
        }
    }
}

/// Where `System::run` takes a core's records from.
#[derive(Debug)]
pub(crate) enum Feed {
    /// The core's own front end, stepped one record at a time.
    Inline(Box<FrontEnd>),
    /// A cursor over a log shared with other systems.
    Shared(LogReader),
}

impl Feed {
    /// The next entry; fetch misses go to `fetch_miss` first.
    #[inline]
    pub(crate) fn next(&mut self, fetch_miss: impl FnMut(u64)) -> Entry {
        match self {
            Feed::Inline(front) => front.step(fetch_miss),
            Feed::Shared(reader) => reader.next(fetch_miss),
        }
    }
}

/// Everything a shared log's stream depends on: the benchmark, the core's
/// trace seed ([`System::thread_seed`]) and index (address offsets), the
/// L1 shapes and the fetch-line width. The L2, the scheme, the latencies
/// and the instruction target are deliberately absent: every case that
/// agrees on this key reads the same log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct FrontEndKey {
    benchmark: String,
    thread_seed: u64,
    core: usize,
    l1i: CacheGeometry,
    l1d: CacheGeometry,
    insts_per_fetch_line: u64,
}

impl FrontEndKey {
    /// The key of core `core` running `benchmark` on `cfg` under
    /// `seed_salt`. The exhaustive destructuring makes a new
    /// `MachineConfig` field a compile error here until it is placed.
    pub(crate) fn new(cfg: &MachineConfig, benchmark: &str, core: usize, seed_salt: u64) -> Self {
        let &MachineConfig {
            num_cores: _,
            l1i,
            l1d,
            l2: _,
            latencies: _,
            insts_target: _,
            insts_per_fetch_line,
            // Through the thread seed.
            seed: _,
        } = cfg;
        FrontEndKey {
            benchmark: benchmark.to_string(),
            thread_seed: System::thread_seed(cfg, core, seed_salt),
            core,
            l1i,
            l1d,
            insts_per_fetch_line,
        }
    }

    /// A cold front end producing this key's stream.
    ///
    /// # Panics
    /// If the benchmark is unknown or the fetch-line width is 0.
    fn front_end(&self) -> FrontEnd {
        let profile = tracegen::benchmark(&self.benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {}", self.benchmark));
        let core = CoreModel::new(
            self.core,
            profile,
            self.thread_seed,
            self.insts_per_fetch_line,
        );
        FrontEnd::new(core, self.l1i, self.l1d)
    }
}

/// Records per chunk of a shared log.
const CHUNK_RECORDS: usize = 1024;

/// Flags byte of a logged record: bit 0 data miss, bit 1 store, bits
/// 2..8 the fetch-miss count, where `COUNT_ESCAPE` means the count
/// follows as a varint.
const DATA_MISS: u8 = 1;
const WRITE: u8 = 2;
const COUNT_SHIFT: u32 = 2;
const COUNT_ESCAPE: u8 = 63;

/// Appends one chunk of a log to a byte buffer. A record is its flags
/// byte, its instruction count as a LEB128 varint, the escaped fetch-miss
/// count if any, then each fetch-miss address and the data-miss address
/// as zigzag varint deltas from the previous address of the same kind.
/// Consecutive misses are mostly nearby lines, so a record averages
/// about 2 B plus about 4 B per L1 miss. Deltas restart at every chunk.
#[derive(Debug, Default)]
struct ChunkWriter {
    buf: Vec<u8>,
    /// One record's fetch misses.
    fetch: Vec<u64>,
    last_fetch: u64,
    last_data: u64,
}

impl ChunkWriter {
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    fn delta(&mut self, addr: u64, last: u64) {
        let d = addr.wrapping_sub(last) as i64;
        self.varint(((d << 1) ^ (d >> 63)) as u64);
    }

    /// Step `front` through one chunk and return its bytes.
    fn produce(&mut self, front: &mut FrontEnd) -> Arc<[u8]> {
        self.buf.clear();
        self.last_fetch = 0;
        self.last_data = 0;
        let mut fetch = std::mem::take(&mut self.fetch);
        for _ in 0..CHUNK_RECORDS {
            fetch.clear();
            let e = front.step(|a| fetch.push(a));
            let count = fetch.len().min(usize::from(COUNT_ESCAPE)) as u8;
            let mut flags = count << COUNT_SHIFT;
            if e.data_miss {
                flags |= DATA_MISS;
            }
            if e.write {
                flags |= WRITE;
            }
            self.buf.push(flags);
            self.varint(e.insts);
            if count == COUNT_ESCAPE {
                self.varint(fetch.len() as u64);
            }
            for &a in fetch.iter() {
                self.delta(a, self.last_fetch);
                self.last_fetch = a;
            }
            if e.data_miss {
                self.delta(e.addr, self.last_data);
                self.last_data = e.addr;
            }
        }
        self.fetch = fetch;
        Arc::from(&self.buf[..])
    }
}

/// Counters of every log a memo owns (see [`FrontEndStats`]).
#[derive(Debug, Default)]
pub(crate) struct LogCounters {
    produced: AtomicU64,
    consumed: AtomicU64,
    live_bytes: AtomicU64,
    peak_bytes: AtomicU64,
}

impl LogCounters {
    pub(crate) fn stats(&self) -> FrontEndStats {
        FrontEndStats {
            produced: self.produced.load(Ordering::Relaxed),
            consumed: self.consumed.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Shared front-end log counters of an
/// [`IsolationCache`](crate::IsolationCache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Records the logs' front ends produced (whole chunks).
    pub produced: u64,
    /// Records systems read from logs.
    pub consumed: u64,
    /// Bytes of log chunks alive now.
    pub live_bytes: u64,
    /// Most log bytes ever alive at once.
    pub peak_bytes: u64,
}

/// One core's front-end stream, produced lazily in chunks and kept while
/// the memo holds it, so that any number of systems read it at their own
/// pace.
///
/// Whoever first needs a chunk that does not exist yet produces it under
/// the log's lock; a reader that needs it meanwhile waits on that lock.
/// A panic while producing poisons the lock, and every later reader of
/// an unread chunk panics too instead of waiting forever.
#[derive(Debug)]
pub(crate) struct SharedLog {
    key: FrontEndKey,
    state: Mutex<LogState>,
    counters: Arc<LogCounters>,
}

#[derive(Debug, Default)]
struct LogState {
    /// The producer, built at the first chunk.
    front: Option<FrontEnd>,
    writer: ChunkWriter,
    chunks: Vec<Arc<[u8]>>,
    bytes: u64,
}

impl SharedLog {
    pub(crate) fn new(key: FrontEndKey, counters: Arc<LogCounters>) -> Self {
        SharedLog {
            key,
            state: Mutex::default(),
            counters,
        }
    }

    /// Chunk `i`, producing every chunk up to it first if needed.
    fn chunk(&self, i: usize) -> Arc<[u8]> {
        let mut guard = self.state.lock().unwrap_or_else(|_| {
            panic!(
                "front-end log of {} on core {} is unusable: its producer panicked",
                self.key.benchmark, self.key.core
            )
        });
        let state = &mut *guard;
        while state.chunks.len() <= i {
            let front = state.front.get_or_insert_with(|| self.key.front_end());
            let chunk = state.writer.produce(front);
            let bytes = chunk.len() as u64;
            state.bytes += bytes;
            state.chunks.push(chunk);
            let c = &self.counters;
            c.produced
                .fetch_add(CHUNK_RECORDS as u64, Ordering::Relaxed);
            let live = c.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
            c.peak_bytes.fetch_max(live, Ordering::Relaxed);
        }
        state.chunks[i].clone()
    }
}

impl Drop for SharedLog {
    fn drop(&mut self) {
        let bytes = match self.state.get_mut() {
            Ok(state) => state.bytes,
            Err(poisoned) => poisoned.into_inner().bytes,
        };
        self.counters.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// One system's cursor over a [`SharedLog`].
#[derive(Debug)]
pub(crate) struct LogReader {
    log: Arc<SharedLog>,
    chunk: Arc<[u8]>,
    next_chunk: usize,
    /// Byte position in `chunk` and records left in it.
    pos: usize,
    left: usize,
    last_fetch: u64,
    last_data: u64,
    consumed: u64,
}

impl LogReader {
    pub(crate) fn new(log: Arc<SharedLog>) -> Self {
        LogReader {
            log,
            chunk: Arc::new([]),
            next_chunk: 0,
            pos: 0,
            left: 0,
            last_fetch: 0,
            last_data: 0,
            consumed: 0,
        }
    }

    #[inline]
    fn varint(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.chunk[self.pos];
            self.pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    #[inline]
    fn delta(&mut self, last: u64) -> u64 {
        let z = self.varint();
        let d = (z >> 1) as i64 ^ -((z & 1) as i64);
        last.wrapping_add(d as u64)
    }

    #[inline]
    fn next(&mut self, mut fetch_miss: impl FnMut(u64)) -> Entry {
        if self.left == 0 {
            self.chunk = self.log.chunk(self.next_chunk);
            self.next_chunk += 1;
            self.pos = 0;
            self.left = CHUNK_RECORDS;
            self.last_fetch = 0;
            self.last_data = 0;
        }
        let flags = self.chunk[self.pos];
        self.pos += 1;
        let insts = self.varint();
        let misses = match flags >> COUNT_SHIFT {
            COUNT_ESCAPE => self.varint(),
            n => u64::from(n),
        };
        for _ in 0..misses {
            self.last_fetch = self.delta(self.last_fetch);
            fetch_miss(self.last_fetch);
        }
        let data_miss = flags & DATA_MISS != 0;
        if data_miss {
            self.last_data = self.delta(self.last_data);
        }
        self.left -= 1;
        self.consumed += 1;
        Entry {
            insts,
            data_miss,
            addr: self.last_data,
            write: flags & WRITE != 0,
        }
    }
}

impl Drop for LogReader {
    fn drop(&mut self) {
        self.log
            .counters
            .consumed
            .fetch_add(self.consumed, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{MemRecord, TraceSource};

    /// A scripted stream, repeated cyclically.
    #[derive(Debug)]
    struct Script(Vec<MemRecord>, usize);

    impl TraceSource for Script {
        fn next_record(&mut self) -> MemRecord {
            let r = self.0[self.1 % self.0.len()];
            self.1 += 1;
            r
        }
    }

    fn read(gap: u32, addr: u64) -> MemRecord {
        MemRecord {
            gap,
            addr,
            is_write: false,
        }
    }

    /// Core `core` on a tiny machine: 4-set, 2-way L1s with 64 B lines.
    fn scripted(core: usize, records: Vec<MemRecord>) -> FrontEnd {
        let profile = tracegen::benchmark("gzip").unwrap();
        let model = CoreModel::from_source(core, &profile, Box::new(Script(records, 0)), 32);
        let l1 = CacheGeometry::new(512, 2, 64).unwrap();
        FrontEnd::new(model, l1, l1)
    }

    fn data_misses(front: &mut FrontEnd, records: usize) -> Vec<bool> {
        (0..records).map(|_| front.step(|_| {}).data_miss).collect()
    }

    #[test]
    fn only_l1_misses_leave_the_front_end() {
        let mut front = scripted(0, vec![read(0, 0x4000)]);
        let misses = data_misses(&mut front, 10);
        assert_eq!(misses.iter().filter(|&&m| m).count(), 1, "{misses:?}");
        assert!(misses[0], "the first touch misses");
    }

    #[test]
    fn an_l1_victim_misses_the_l1_again() {
        // 4 sets of 64 B lines: three lines one set stride apart share a
        // set, so the third evicts the first. (The shared L2 still holds
        // it: `System`'s tests check that it hits there.)
        let stride = 64 * 4;
        let mut front = scripted(0, (0..3).map(|i| read(0, i * stride)).collect());
        assert_eq!(data_misses(&mut front, 4), [true, true, true, true]);
    }

    #[test]
    fn l1s_are_private_per_core() {
        let mut warm = scripted(0, vec![read(0, 0x2000)]);
        assert_eq!(data_misses(&mut warm, 2), [true, false]);
        // Another core's front end starts cold on the same stream.
        let mut other = scripted(1, vec![read(0, 0x2000)]);
        assert_eq!(data_misses(&mut other, 2), [true, false]);
    }

    #[test]
    fn instruction_and_data_paths_are_separate() {
        // Core 0's first fetch line is the code base; a data access to
        // that very address still misses the L1D after the L1I filled it.
        let code_base = 1u64 << 60;
        let mut front = scripted(0, vec![read(31, code_base)]);
        let mut fetched = Vec::new();
        let first = front.step(|a| fetched.push(a));
        assert_eq!(fetched, [code_base], "32 instructions fetch one line");
        assert!(first.data_miss, "the L1I fill is invisible to the L1D");
        fetched.clear();
        let second = front.step(|a| fetched.push(a));
        assert_eq!(fetched, [code_base + 128], "the next line, cold too");
        assert!(!second.data_miss, "the L1D now holds the line");
    }

    #[test]
    fn a_log_reads_back_what_the_front_end_steps() {
        // Wide records exercise multi-byte varints and the escaped
        // fetch-miss count (more than 62 fetch lines in one record).
        let records = vec![
            read(70_000, 0x1000),
            read(0, 0x1000),
            MemRecord {
                gap: 5,
                addr: 0x8000,
                is_write: true,
            },
            read(3_000, 0x9000),
        ];
        let mut inline = scripted(1, records.clone());
        let key = FrontEndKey::new(&MachineConfig::paper_baseline(2), "gzip", 1, 0);
        let counters = Arc::new(LogCounters::default());
        let log = Arc::new(SharedLog::new(key, counters.clone()));
        // Replace the producer with the scripted one before any chunk.
        log.state.lock().unwrap().front = Some(scripted(1, records));
        let mut reader = LogReader::new(log.clone());
        for i in 0..(CHUNK_RECORDS + 10) {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            let w = inline.step(|a| want.push(a));
            let g = reader.next(|a| got.push(a));
            assert_eq!(
                (g.insts, g.data_miss, &got),
                (w.insts, w.data_miss, &want),
                "{i}"
            );
            if w.data_miss {
                assert_eq!((g.addr, g.write), (w.addr, w.write), "{i}");
            }
        }
        drop(reader);
        let s = counters.stats();
        assert_eq!(s.produced, 2 * CHUNK_RECORDS as u64);
        assert_eq!(s.consumed, CHUNK_RECORDS as u64 + 10);
        assert!(s.live_bytes > 0 && s.live_bytes == s.peak_bytes);
        drop(log);
        assert_eq!(counters.stats().live_bytes, 0);
    }
}
