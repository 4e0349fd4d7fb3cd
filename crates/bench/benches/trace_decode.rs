//! Trace decode throughput: records per second drained out of a PLTC
//! container through the `RecordedThread` sources — the path a recorded
//! sweep actually pays for. Compares the v1 raw container against the
//! v2 dict-compressed one, both decoded inline, so a codec regression
//! shows up as its own gated criterion id.
//!
//! Ids (`trace_decode/v1`, `trace_decode/v2-w0`) record mean ns per full
//! drain of a fixed ~62k-record two-thread trace; each run prints the
//! record total so logs can convert the mean into records/sec directly.
//!
//! The write side gets report-only ids in the same units:
//! `trace_encode/v1` and `trace_encode/v2` time one `TraceWriter` pass
//! that encodes the same records (pre-generated, so synthesis is not
//! timed) into an in-memory container, raw and dict-compressed.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::io::{Cursor, Seek, Write};
use std::path::PathBuf;
use tracegen::trace::{self, Compression};
use tracegen::{workload, MemRecord, TraceGenerator};

const RECORDS_PER_THREAD: u64 = 31_000;

/// The bench container's metadata and per-thread record streams.
fn streams() -> (trace::TraceMeta, Vec<Vec<MemRecord>>) {
    let wl = workload("2T_02").unwrap(); // mcf + parser: delta-rich streams
    let meta = trace::TraceMeta {
        workload: wl.name.clone(),
        benchmarks: wl.profiles().iter().map(|p| p.name.clone()).collect(),
        seed: 42,
        seed_salt: 0,
        insts: 0,
        scheme: None,
    };
    let streams = wl
        .profiles()
        .iter()
        .enumerate()
        .map(|(t, profile)| {
            let mut g = TraceGenerator::new(profile.clone(), 42 + t as u64);
            (0..RECORDS_PER_THREAD).map(|_| g.next_record()).collect()
        })
        .collect();
    (meta, streams)
}

/// Encode `streams` into `out` and return the record total.
fn encode<W: Write + Seek>(
    out: W,
    meta: &trace::TraceMeta,
    streams: &[Vec<MemRecord>],
    compression: Compression,
) -> (W, u64) {
    let mut w = trace::TraceWriter::create_with(out, meta, compression).unwrap();
    for (t, stream) in streams.iter().enumerate() {
        for &rec in stream {
            w.push(t, rec).unwrap();
        }
    }
    let total = streams.iter().map(|s| s.len() as u64).sum();
    (w.finish().unwrap(), total)
}

fn drain(path: &PathBuf, total: u64) {
    let (_info, mut sources) = trace::open_sources(path).unwrap();
    let mut drained = 0u64;
    for src in &mut sources {
        let per_thread = RECORDS_PER_THREAD;
        for _ in 0..per_thread {
            black_box(src.next_record());
            drained += 1;
        }
    }
    assert_eq!(drained, total);
}

fn bench_trace_decode(c: &mut Criterion) {
    let dir = std::env::temp_dir();
    let v1 = dir.join("plru_bench_decode_v1.pltc");
    let v2 = dir.join("plru_bench_decode_v2.pltc");
    let (meta, streams) = streams();
    let file = |path: &PathBuf| std::fs::File::create(path).unwrap();
    let (_, total) = encode(file(&v1), &meta, &streams, Compression::None);
    encode(file(&v2), &meta, &streams, Compression::Dict);

    let mut group = c.benchmark_group("trace_decode");
    group.sample_size(10);
    eprintln!("trace_decode: {total} records per drain");

    group.bench_function("v1", |b| b.iter(|| drain(&v1, total)));
    // "-w0" is the id BENCH_3.json gates; the name outlived the worker knob.
    group.bench_function("v2-w0", |b| b.iter(|| drain(&v2, total)));
    group.finish();

    let _ = std::fs::remove_file(&v1);
    let _ = std::fs::remove_file(&v2);
}

fn bench_trace_encode(c: &mut Criterion) {
    let (meta, streams) = streams();
    let mut group = c.benchmark_group("trace_encode");
    group.sample_size(10);
    for (id, compression) in [("v1", Compression::None), ("v2", Compression::Dict)] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let (out, total) = encode(Cursor::new(Vec::new()), &meta, &streams, compression);
                black_box(out);
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trace_decode, bench_trace_encode);
criterion_main!(benches);
