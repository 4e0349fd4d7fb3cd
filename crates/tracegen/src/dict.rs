//! FSST-style symbol-table compression for trace chunk payloads.
//!
//! The PLTC v2 container (see [`crate::trace`]) compresses each chunk's
//! varint/delta payload independently with a small per-chunk dictionary:
//! a table of up to [`MAX_SYMBOLS`] byte sequences (1 to
//! [`MAX_SYMBOL_LEN`] bytes each) is trained on the payload, then the
//! payload is re-emitted as one code byte per matched symbol. Bytes no
//! symbol covers are escaped as `0xFF` + the literal byte, so every
//! input is encodable and codes `>= table length` (other than the
//! escape) are unambiguous corruption.
//!
//! Training follows the FSST recipe in miniature: a few generations of
//! "tokenize with the current table, count adjacent-token
//! concatenations, keep the candidates with the highest `count × length`
//! gain". Varint gap/delta streams repeat a small set of byte patterns
//! heavily, which is exactly the regime where a 254-entry symbol table
//! pays for itself; chunks where it does not are stored raw by the
//! container (the codec never *forces* expansion on the file).
//!
//! ## Data structures
//!
//! A symbol is its bytes as a little-endian `u64` (zero past its
//! length) plus its length. Every structure the trainer touches per
//! token is flat and allocation-free:
//!
//! - **Longest match** (`SymbolIndex`): a bitmask, per first two
//!   bytes, of the lengths of the longer symbols starting with them,
//!   and a 512-slot open-addressing table keyed on `(8-byte window
//!   masked to L, L)`. A match probes the lengths in the bitmask from
//!   the longest down, then falls back to a direct table of one-byte
//!   symbols. Table symbols are distinct, so the first hit is the
//!   unique longest match.
//! - **Counts** (`Counter`): an open-addressing table of 16-byte
//!   slots under a fixed multiplicative hash, plus the list of slots in
//!   use. It starts small, doubles at half load, and is cleared through
//!   that list, so one table serves every generation of every chunk.
//!   The concatenation of two adjacent tokens is the input window at
//!   the first token's start, masked to the combined length, so pair
//!   keys cost no byte copying.
//! - **Selection**: the top [`MAX_SYMBOLS`] candidates come out of
//!   `select_nth_unstable_by`, and only those are sorted.
//!
//! `Trainer` owns all of this scratch; a
//! [`TraceWriter`](crate::trace::TraceWriter) keeps one for its whole
//! life, so chunks do not reallocate it.
//!
//! Everything here is deterministic — candidates are ranked by gain,
//! then by length, then by symbol bytes, a total order that never
//! depends on hash layout or table capacity — so compressing the same
//! payload always produces the same bytes (the shipped-fixture pin
//! tests rely on this). The tests keep the first implementation (a
//! bucket scan per first byte, a `HashMap` of counts, a full sort) as
//! an oracle and check that [`compress`] reproduces its output byte for
//! byte.
//!
//! Decompression is hardened for hostile input: the caller passes the
//! raw length the chunk header claims, and decoding fails — without
//! over-allocating — on unknown codes, truncated tables, dangling
//! escapes, or any output-length mismatch.

/// Maximum symbols per table: codes `0..=253`; `0xFF` is the escape and
/// `254..=0xFE` are never valid (corruption detection).
pub const MAX_SYMBOLS: usize = 254;
/// Maximum bytes per symbol.
pub const MAX_SYMBOL_LEN: usize = 8;
/// Escape code: the next byte of the stream is a literal.
const ESCAPE: u8 = 0xFF;
/// Training generations (tokenize → merge adjacent pairs → reselect).
const GENERATIONS: usize = 3;
/// Fibonacci-hashing multiplier (2^64 / φ), shared by both tables.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// `SymbolIndex` size: 512 slots, so a full table is under half load.
const INDEX_BITS: u32 = 9;
/// Initial `Counter` size: 1024 slots (16 KB). A varint chunk has a
/// few thousand distinct keys per generation; the table doubles to fit.
const COUNTER_MIN_BITS: u32 = 10;

/// The low `len` bytes of the little-endian window `w` (`1..=8`).
#[inline]
fn prefix(w: u64, len: usize) -> u64 {
    debug_assert!((1..=MAX_SYMBOL_LEN).contains(&len));
    w & (u64::MAX >> (64 - 8 * len))
}

/// Home slot of symbol `(bytes, len)` in a table of `2^bits` slots: the
/// top bits of a multiplicative hash, so every key bit reaches them.
#[inline]
fn home_slot(bytes: u64, len: usize, bits: u32) -> usize {
    ((bytes ^ ((len as u64) << 56)).wrapping_mul(HASH_MUL) >> (64 - bits)) as usize
}

/// The 8 bytes of `input` from `i` as a little-endian `u64`, zero past
/// the end of the input.
#[inline]
fn window(input: &[u8], i: usize) -> u64 {
    let mut bytes = [0u8; 8];
    match input.get(i..i + 8) {
        Some(full) => bytes.copy_from_slice(full),
        None => {
            let tail = input.get(i..).unwrap_or_default();
            for (b, &t) in bytes.iter_mut().zip(tail) {
                *b = t;
            }
        }
    }
    u64::from_le_bytes(bytes)
}

/// Exact longest-match index over a symbol table of distinct symbols.
struct SymbolIndex {
    /// `code + 1` of the one-byte symbol for each byte value, 0 if none.
    single: [u16; 256],
    /// Bit `L - 1` of entry `p` is set when a symbol of length `L >= 2`
    /// starts with the two bytes `p` (little-endian). 64 KB, cleared
    /// through `slots`, so a rebuild touches only its own symbols.
    lens: Vec<u8>,
    /// Open-addressing slots for the symbols of 2+ bytes:
    /// `(symbol bytes, len | code << 8)`, with length 0 marking an
    /// empty slot.
    slots: Vec<(u64, u32)>,
}

impl SymbolIndex {
    fn new() -> Self {
        SymbolIndex {
            single: [0; 256],
            lens: vec![0; 1 << 16],
            slots: vec![(0, 0); 1 << INDEX_BITS],
        }
    }

    /// Index `table`, whose entry `code` is `(symbol bytes, length)`.
    fn rebuild(&mut self, table: &[(u64, usize)]) {
        debug_assert!(table.len() <= MAX_SYMBOLS);
        for &(bytes, meta) in &self.slots {
            if meta != 0 {
                if let Some(l) = self.lens.get_mut(bytes as u16 as usize) {
                    *l = 0;
                }
            }
        }
        self.slots.fill((0, 0));
        self.single = [0; 256];
        let mask = self.slots.len() - 1;
        for (code, &(bytes, len)) in table.iter().enumerate() {
            if len == 1 {
                // repolint: allow(panic) — a u8 index into a 256-entry array cannot miss
                self.single[bytes as u8 as usize] = code as u16 + 1;
                continue;
            }
            if let Some(l) = self.lens.get_mut(bytes as u16 as usize) {
                *l |= 1 << (len - 1);
            }
            let mut s = home_slot(bytes, len, INDEX_BITS);
            // repolint: allow(panic) — s is masked to the table size, which is 2^INDEX_BITS
            while self.slots[s].1 != 0 {
                s = (s + 1) & mask;
            }
            // repolint: allow(panic) — same mask as the probe above
            self.slots[s] = (bytes, len as u32 | (code as u32) << 8);
        }
    }

    /// Longest symbol that is a prefix of the `avail >= 1` input bytes
    /// starting at window `w`, as `(code, length)`. Lengths are tried
    /// from the longest down; symbols are distinct, so the first hit is
    /// the only symbol of its length that matches.
    #[inline]
    fn longest(&self, w: u64, avail: usize) -> Option<(u8, usize)> {
        let fits = if avail >= MAX_SYMBOL_LEN {
            u8::MAX
        } else {
            (1u8 << avail) - 1
        };
        // Past the input the window is zero, and `fits` drops the
        // lengths that would reach there.
        let mut lens = self.lens.get(w as u16 as usize).map_or(0, |&l| l & fits);
        let mask = self.slots.len() - 1;
        while lens != 0 {
            let len = 8 - lens.leading_zeros() as usize;
            let key = prefix(w, len);
            let mut s = home_slot(key, len, INDEX_BITS);
            loop {
                // repolint: allow(panic) — s is masked to the table size, which is 2^INDEX_BITS
                let (bytes, meta) = self.slots[s];
                if meta == 0 {
                    break;
                }
                if bytes == key && (meta & 0xFF) as usize == len {
                    return Some(((meta >> 8) as u8, len));
                }
                s = (s + 1) & mask;
            }
            lens &= !(1 << (len - 1));
        }
        // repolint: allow(panic) — a u8 index into a 256-entry array cannot miss
        match self.single[w as u8 as usize] {
            0 => None,
            c => Some(((c - 1) as u8, 1)),
        }
    }
}

/// Open-addressing occurrence counter for symbols, kept at most half
/// full and cleared through its list of used slots.
struct Counter {
    /// `log2(slots.len())`.
    bits: u32,
    /// `(symbol bytes, count << 4 | len)`; 0 in the second field marks
    /// an empty slot. Counts are bounded by the input length, far below
    /// 2^60.
    slots: Vec<(u64, u64)>,
    /// Indices of the occupied slots, in insertion order. A slot index
    /// is below the table size, which memory keeps far below 2^32.
    used: Vec<u32>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            bits: COUNTER_MIN_BITS,
            slots: vec![(0, 0); 1 << COUNTER_MIN_BITS],
            used: Vec::new(),
        }
    }

    /// Count one occurrence of symbol `(bytes, len)`.
    #[inline]
    fn bump(&mut self, bytes: u64, len: usize) {
        let mask = self.slots.len() - 1;
        let mut s = home_slot(bytes, len, self.bits);
        loop {
            // repolint: allow(panic) — s is masked to the table size
            let slot = &mut self.slots[s];
            if slot.1 == 0 {
                *slot = (bytes, 1 << 4 | len as u64);
                self.used.push(s as u32);
                if self.used.len() * 2 > self.slots.len() {
                    self.grow();
                }
                return;
            }
            if slot.0 == bytes && (slot.1 & 0xF) as usize == len {
                slot.1 += 1 << 4;
                return;
            }
            s = (s + 1) & mask;
        }
    }

    /// Double the table and reinsert every occupied slot.
    fn grow(&mut self) {
        self.bits += 1;
        // repolint: allow(cap-alloc) — encoder-side: sized from keys actually counted, at twice their number
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); 1 << self.bits]);
        let mask = self.slots.len() - 1;
        for s in &mut self.used {
            // repolint: allow(panic) — used only holds indices into the old table
            let (bytes, meta) = old[*s as usize];
            let mut t = home_slot(bytes, (meta & 0xF) as usize, self.bits);
            // repolint: allow(panic) — t is masked to the new table size
            while self.slots[t].1 != 0 {
                t = (t + 1) & mask;
            }
            // repolint: allow(panic) — same mask as the probe above
            self.slots[t] = (bytes, meta);
            *s = t as u32;
        }
    }

    /// Move every counted symbol into `cands` (see [`Cand`]) and leave
    /// the table empty.
    fn drain_into(&mut self, cands: &mut Vec<Cand>) {
        cands.clear();
        for &s in &self.used {
            // repolint: allow(panic) — used only holds indices into the current table
            let (bytes, meta) = std::mem::take(&mut self.slots[s as usize]);
            let (count, len) = (meta >> 4, meta & 0xF);
            cands.push(((count * len) << 4 | (0xF - len), bytes));
        }
        self.used.clear();
    }
}

/// A training candidate: `(gain << 4 | (15 - len), symbol bytes)`. The
/// gain heuristic: a symbol of length L used C times replaces C·L
/// stream bytes with C code bytes, so gain = C·L.
type Cand = (u64, u64);

/// The selection order: gain descending, then the packed symbol
/// `(len << 64) | bytes` ascending. A total order over distinct
/// symbols, so selection never depends on hash layout.
#[inline]
fn rank(a: &Cand, b: &Cand) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Reusable FSST trainer and encoder: the symbol table, its index, the
/// counter and the candidate list, kept across calls so a writer that
/// compresses chunk after chunk allocates them once.
pub(crate) struct Trainer {
    counts: Counter,
    cands: Vec<Cand>,
    /// The current symbol table; entry `code` is `(bytes, length)`.
    table: Vec<(u64, usize)>,
    index: SymbolIndex,
}

/// Scratch only: its tables run to hundreds of KB, so print none of it.
impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer").finish_non_exhaustive()
    }
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer {
            counts: Counter::new(),
            cands: Vec::new(),
            table: Vec::new(),
            index: SymbolIndex::new(),
        }
    }
}

impl Trainer {
    /// Train `self.table` on `input` (FSST-style generations).
    fn train(&mut self, input: &[u8]) {
        self.table.clear();
        for _ in 0..GENERATIONS {
            self.index.rebuild(&self.table);
            // Window and length of the previous token: the concatenation
            // of two adjacent tokens is the first one's window, masked.
            let mut prev: Option<(u64, usize)> = None;
            let mut i = 0;
            while i < input.len() {
                let w = window(input, i);
                let len = self.index.longest(w, input.len() - i).map_or(1, |(_, l)| l);
                self.counts.bump(prefix(w, len), len);
                if let Some((pw, plen)) = prev {
                    if plen + len <= MAX_SYMBOL_LEN {
                        self.counts.bump(prefix(pw, plen + len), plen + len);
                    }
                }
                prev = Some((w, len));
                i += len;
            }
            self.counts.drain_into(&mut self.cands);
            if self.cands.len() > MAX_SYMBOLS {
                self.cands.select_nth_unstable_by(MAX_SYMBOLS - 1, rank);
                self.cands.truncate(MAX_SYMBOLS);
            }
            self.cands.sort_unstable_by(rank);
            self.table.clear();
            self.table.extend(
                self.cands
                    .iter()
                    .map(|&(r, bytes)| (bytes, 0xF - (r & 0xF) as usize)),
            );
        }
    }

    /// [`compress`] with this trainer's scratch.
    pub(crate) fn compress(&mut self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        self.train(input);
        out.push(self.table.len() as u8);
        for &(bytes, len) in &self.table {
            out.push(len as u8);
            // repolint: allow(panic) — encoder-side; train() never emits len > 8
            out.extend_from_slice(&bytes.to_le_bytes()[..len]);
        }
        self.index.rebuild(&self.table);
        let mut i = 0;
        while i < input.len() {
            let w = window(input, i);
            match self.index.longest(w, input.len() - i) {
                Some((code, len)) => {
                    out.push(code);
                    i += len;
                }
                None => {
                    out.push(ESCAPE);
                    out.push(w as u8);
                    i += 1;
                }
            }
        }
    }
}

/// Compress `input` into `out` (cleared first): symbol-table header
/// (`count u8`, then `len u8` + bytes per symbol) followed by the code
/// stream. Always succeeds; the caller compares lengths and stores the
/// chunk raw when compression did not win.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    Trainer::default().compress(input, out);
}

/// Decompress a [`compress`]-formatted `input` into `out` (cleared
/// first). `raw_len` is the expected output length from the chunk
/// header; output is capped at it throughout, so a corrupt or hostile
/// stream can never allocate more than the caller already vetted.
pub fn decompress(input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), String> {
    out.clear();
    out.reserve(raw_len);
    let (&n, mut rest) = input
        .split_first()
        .ok_or("compressed chunk is empty (no symbol table)")?;
    let n = n as usize;
    if n > MAX_SYMBOLS {
        return Err(format!(
            "symbol table claims {n} entries (max {MAX_SYMBOLS})"
        ));
    }
    let mut table: Vec<&[u8]> = Vec::with_capacity(n);
    for i in 0..n {
        let (&len, after) = rest
            .split_first()
            .ok_or_else(|| format!("symbol table truncated at entry {i}"))?;
        let len = len as usize;
        if len == 0 || len > MAX_SYMBOL_LEN {
            return Err(format!("symbol {i} has invalid length {len}"));
        }
        if after.len() < len {
            return Err(format!("symbol table truncated inside entry {i}"));
        }
        // repolint: allow(panic) — len <= after.len() was just checked; both slices share that bound
        table.push(&after[..len]);
        // repolint: allow(panic) — same check as the line above
        rest = &after[len..];
    }
    let mut codes = rest.iter();
    while let Some(&code) = codes.next() {
        let sym: &[u8] = if code == ESCAPE {
            let lit = codes.next().ok_or("dangling escape at end of chunk")?;
            std::slice::from_ref(lit)
        } else if (code as usize) < table.len() {
            // repolint: allow(panic) — the branch condition is exactly the bounds check
            table[code as usize]
        } else {
            return Err(format!(
                "invalid symbol code {code} (table has {n} entries)"
            ));
        };
        if out.len() + sym.len() > raw_len {
            return Err(format!(
                "chunk decompresses past its declared {raw_len} bytes"
            ));
        }
        out.extend_from_slice(sym);
    }
    if out.len() != raw_len {
        return Err(format!(
            "chunk decompressed to {} bytes, header claims {raw_len}",
            out.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_varint, zigzag};
    use crate::{benchmark, benchmark_names, TraceGenerator};
    use proptest::prelude::*;

    /// The first trainer, kept as the byte-for-byte oracle for
    /// [`compress`]: a sorted bucket scan per first byte for the longest
    /// match, a `HashMap` of counts keyed on packed symbols, and a full
    /// sort of the candidates.
    mod oracle {
        use super::super::{ESCAPE, GENERATIONS, MAX_SYMBOLS, MAX_SYMBOL_LEN};
        use std::collections::HashMap;

        /// One symbol packed into a `u128`: length in the high half,
        /// bytes little-endian in the low 8.
        fn pack(s: &[u8]) -> u128 {
            let mut bytes = [0u8; 8];
            bytes[..s.len()].copy_from_slice(s);
            ((s.len() as u128) << 64) | u128::from(u64::from_le_bytes(bytes))
        }

        fn unpack(key: u128) -> ([u8; 8], usize) {
            ((key as u64).to_le_bytes(), (key >> 64) as usize)
        }

        fn pack2(a: &[u8], b: &[u8]) -> u128 {
            let mut bytes = [0u8; 8];
            bytes[..a.len()].copy_from_slice(a);
            bytes[a.len()..a.len() + b.len()].copy_from_slice(b);
            (((a.len() + b.len()) as u128) << 64) | u128::from(u64::from_le_bytes(bytes))
        }

        /// 256 first-byte buckets, each sorted longest symbol first
        /// (ties by code).
        struct Lookup {
            buckets: Vec<Vec<([u8; 8], usize, u8)>>,
        }

        impl Lookup {
            fn new(table: &[([u8; 8], usize)]) -> Self {
                let mut buckets: Vec<Vec<([u8; 8], usize, u8)>> = vec![Vec::new(); 256];
                for (code, &(bytes, len)) in table.iter().enumerate() {
                    buckets[bytes[0] as usize].push((bytes, len, code as u8));
                }
                for b in &mut buckets {
                    b.sort_by(|x, y| y.1.cmp(&x.1).then(x.2.cmp(&y.2)));
                }
                Lookup { buckets }
            }

            fn longest(&self, input: &[u8]) -> Option<(u8, usize)> {
                for &(bytes, len, code) in &self.buckets[input[0] as usize] {
                    if len <= input.len() && bytes[..len] == input[..len] {
                        return Some((code, len));
                    }
                }
                None
            }
        }

        /// One generation's candidates as `(gain, packed symbol)`.
        pub(super) type Cands = Vec<(u64, u128)>;
        type Table = Vec<([u8; 8], usize)>;

        /// Every generation's candidates, fully sorted, followed by the
        /// final table.
        pub(super) fn train(input: &[u8]) -> (Vec<Cands>, Table) {
            let mut table = Table::new();
            let mut generations = Vec::new();
            for _ in 0..GENERATIONS {
                let lookup = Lookup::new(&table);
                let mut counts: HashMap<u128, u64> = HashMap::new();
                let mut prev: Option<&[u8]> = None;
                let mut i = 0;
                while i < input.len() {
                    let len = match lookup.longest(&input[i..]) {
                        Some((_, l)) => l,
                        None => 1,
                    };
                    let tok = &input[i..i + len];
                    *counts.entry(pack(tok)).or_default() += 1;
                    if let Some(p) = prev {
                        if p.len() + tok.len() <= MAX_SYMBOL_LEN {
                            *counts.entry(pack2(p, tok)).or_default() += 1;
                        }
                    }
                    prev = Some(tok);
                    i += len;
                }
                let mut cands: Cands = counts
                    .into_iter()
                    .map(|(key, count)| (count * (key >> 64) as u64, key))
                    .collect();
                cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                table = cands
                    .iter()
                    .take(MAX_SYMBOLS)
                    .map(|&(_, key)| unpack(key))
                    .collect();
                generations.push(cands);
            }
            (generations, table)
        }

        pub(super) fn compress(input: &[u8], out: &mut Vec<u8>) {
            out.clear();
            let (_, table) = train(input);
            out.push(table.len() as u8);
            for &(bytes, len) in &table {
                out.push(len as u8);
                out.extend_from_slice(&bytes[..len]);
            }
            let lookup = Lookup::new(&table);
            let mut i = 0;
            while i < input.len() {
                match lookup.longest(&input[i..]) {
                    Some((code, len)) => {
                        out.push(code);
                        i += len;
                    }
                    None => {
                        out.push(ESCAPE);
                        out.push(input[i]);
                        i += 1;
                    }
                }
            }
        }
    }

    /// `(compress output, oracle output)` for `input`.
    fn both(input: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut fast = Vec::new();
        compress(input, &mut fast);
        let mut want = Vec::new();
        oracle::compress(input, &mut want);
        (fast, want)
    }

    /// `compress` and the oracle agree byte for byte, and the output
    /// round-trips.
    fn assert_matches_oracle(input: &[u8]) {
        let (fast, want) = both(input);
        assert!(
            fast == want,
            "compress diverged from the oracle on a {}-byte input",
            input.len()
        );
        let mut back = Vec::new();
        decompress(&fast, input.len(), &mut back).unwrap();
        assert_eq!(back, input);
    }

    /// The chunk payload a trace writer builds from `records` records of
    /// `bench`: `(gap << 1) | is_write`, then the zigzag address delta.
    fn generator_payload(bench: &str, seed: u64, records: usize) -> Vec<u8> {
        let mut g = TraceGenerator::new(benchmark(bench).unwrap(), seed);
        let mut payload = Vec::new();
        let mut prev_addr = 0u64;
        for _ in 0..records {
            let rec = g.next_record();
            write_varint(
                &mut payload,
                (u64::from(rec.gap) << 1) | u64::from(rec.is_write),
            )
            .unwrap();
            write_varint(
                &mut payload,
                zigzag(rec.addr.wrapping_sub(prev_addr) as i64),
            )
            .unwrap();
            prev_addr = rec.addr;
        }
        payload
    }

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let mut comp = Vec::new();
        compress(input, &mut comp);
        let mut back = Vec::new();
        decompress(&comp, input.len(), &mut back).unwrap();
        back
    }

    #[test]
    fn matches_oracle_on_every_benchmark_payload() {
        let names = benchmark_names();
        assert_eq!(names.len(), 25);
        for name in names {
            for records in [1, 7, 4096] {
                assert_matches_oracle(&generator_payload(name, 42, records));
            }
        }
    }

    #[test]
    fn matches_oracle_on_empty_and_single_byte_runs() {
        assert_matches_oracle(b"");
        for len in (1..=20).chain([255, 4096]) {
            assert_matches_oracle(&vec![0u8; len]);
            assert_matches_oracle(&vec![0xFFu8; len]);
        }
    }

    #[test]
    fn matches_oracle_when_more_than_254_candidates_tie() {
        // Cycling through all 256 byte values gives 256 distinct pairs
        // with the same count (gain 2C) and 256 single bytes that tie
        // on gain C: selection must cut inside a run of ties.
        let input: Vec<u8> = (0..=255u8).cycle().take(256 * 40).collect();
        let (generations, _) = oracle::train(&input);
        let top = generations[0][0].0;
        let tied = generations[0].iter().filter(|c| c.0 == top).count();
        assert!(
            tied > MAX_SYMBOLS,
            "only {tied} candidates tie on the top gain"
        );
        assert_matches_oracle(&input);
        // The same with every run of ties at a different gain level.
        let input: Vec<u8> = (0..=255u8)
            .cycle()
            .take(256 * 40)
            .chain((0..=255u8).rev().cycle().take(256 * 13))
            .collect();
        assert_matches_oracle(&input);
    }

    #[test]
    fn trainer_scratch_is_reusable_across_inputs() {
        // A writer compresses chunk after chunk with one trainer; a
        // large chunk grows the counter, and later inputs must still
        // match a fresh trainer's output.
        let mut trainer = Trainer::default();
        let inputs = [
            generator_payload("mcf", 3, 4096),
            b"abcabcabc".to_vec(),
            Vec::new(),
            generator_payload("art", 9, 700),
            (0..=255u8).cycle().take(5000).collect(),
        ];
        for input in &inputs {
            let mut reused = Vec::new();
            trainer.compress(input, &mut reused);
            let mut fresh = Vec::new();
            compress(input, &mut fresh);
            assert_eq!(reused, fresh);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_oracle_on_generator_payloads(
            bench in 0usize..25,
            records in prop::sample::select(vec![1usize, 7, 100, 4096]),
            seed in 0u64..1_000,
        ) {
            let (fast, want) = both(&generator_payload(benchmark_names()[bench], seed, records));
            prop_assert_eq!(fast, want);
        }

        #[test]
        fn matches_oracle_on_random_bytes(
            input in prop::collection::vec(any::<u8>(), 0..3000),
        ) {
            let (fast, want) = both(&input);
            prop_assert_eq!(fast, want);
        }

        /// A small alphabet grows long symbols, so matches run up to the
        /// end of the input; lengths not a multiple of 8 leave a tail
        /// shorter than one 8-byte window.
        #[test]
        fn matches_oracle_on_short_tails(
            input in prop::collection::vec(0u8..3, 0..64),
            repeat in 1usize..40,
            tail in prop::collection::vec(0u8..3, 1..8),
        ) {
            let (fast, want) = both(&input);
            prop_assert_eq!(fast, want);
            let mut long: Vec<u8> = input.iter().copied().cycle().take(input.len() * repeat).collect();
            long.extend_from_slice(&tail);
            let (fast, want) = both(&long);
            prop_assert_eq!(fast, want);
        }
    }

    #[test]
    fn empty_input_round_trips() {
        assert_eq!(round_trip(b""), b"");
    }

    #[test]
    fn repetitive_input_compresses_and_round_trips() {
        let input: Vec<u8> = (0..20_000u32)
            .flat_map(|i| [0x83, 0x01, (i % 7) as u8, 0x40])
            .collect();
        let mut comp = Vec::new();
        compress(&input, &mut comp);
        assert!(
            comp.len() * 2 < input.len(),
            "repetitive stream must compress at least 2x, got {} from {}",
            comp.len(),
            input.len()
        );
        let mut back = Vec::new();
        decompress(&comp, input.len(), &mut back).unwrap();
        assert_eq!(back, input);
    }

    #[test]
    fn all_byte_values_round_trip() {
        let input: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn compression_is_deterministic() {
        let input: Vec<u8> = (0..10_000u32)
            .flat_map(|i| (i % 300).to_le_bytes())
            .collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        compress(&input, &mut a);
        compress(&input, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_code_is_rejected() {
        // Table with one symbol; code 200 is out of range.
        let comp = vec![1u8, 1, b'x', 200];
        let mut out = Vec::new();
        let err = decompress(&comp, 1, &mut out).unwrap_err();
        assert!(err.contains("invalid symbol code"), "{err}");
    }

    #[test]
    fn dangling_escape_is_rejected() {
        let comp = vec![0u8, ESCAPE];
        let mut out = Vec::new();
        let err = decompress(&comp, 1, &mut out).unwrap_err();
        assert!(err.contains("dangling escape"), "{err}");
    }

    #[test]
    fn truncated_table_is_rejected() {
        let comp = vec![3u8, 2, b'a'];
        let mut out = Vec::new();
        assert!(decompress(&comp, 10, &mut out).is_err());
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let input = b"abcabcabc";
        let mut comp = Vec::new();
        compress(input, &mut comp);
        let mut out = Vec::new();
        let long = decompress(&comp, input.len() + 1, &mut out).unwrap_err();
        assert!(long.contains("header claims"), "{long}");
        let short = decompress(&comp, input.len() - 1, &mut out).unwrap_err();
        assert!(short.contains("past its declared"), "{short}");
    }

    #[test]
    fn oversized_symbol_count_is_rejected() {
        let comp = vec![255u8];
        let mut out = Vec::new();
        let err = decompress(&comp, 0, &mut out).unwrap_err();
        assert!(err.contains("symbol table claims"), "{err}");
    }
}
