//! End-to-end and per-layer benchmark of the simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-2c --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it sets the workload up, times it for `--seconds`
//! and prints every end-to-end metric; with `--trace 1` it runs the
//! separate traced run (see `traced.rs`) and prints every per-layer
//! metric. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The workloads,
//! the metrics and what each layer metric should move are described in
//! `perfbench/README.md`.

mod check;
mod stats;
mod traced;
mod workloads;

use stats::Summary;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(check::DEFAULT_SEED),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory for recorded containers, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn host() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc}; cpu={cpu}; {rustc}")
}

/// One reported metric: its JSON value and, for sampled metrics, the
/// summary printed beside it.
struct Row {
    name: String,
    unit: &'static str,
    value: f64,
    summary: Option<Summary>,
    note: String,
    in_json: bool,
}

fn sampled(name: &str, unit: &'static str, samples: &[f64]) -> Option<Row> {
    let s = Summary::of(samples)?;
    Some(Row {
        name: name.to_string(),
        unit,
        value: s.median,
        summary: Some(s),
        note: String::new(),
        in_json: true,
    })
}

fn single(name: &str, unit: &'static str, value: f64) -> Row {
    Row {
        name: name.to_string(),
        unit,
        value,
        summary: None,
        note: String::new(),
        in_json: true,
    }
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<36} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "unit", "median", "q1", "q3", "p10", "p90", "cv", "n"
    );
    for r in rows {
        match &r.summary {
            Some(s) => println!(
                "{:<36} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6} {}",
                r.name, r.unit, s.median, s.q1, s.q3, s.p10, s.p90, s.cv, s.n, r.note
            ),
            None => println!("{:<36} {:>6} {:>14.6} {}", r.name, r.unit, r.value, r.note),
        }
    }
}

fn json_line(rows: &[Row], tally: &check::Tally) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .filter(|r| r.in_json)
        .map(|r| {
            let v = if r.value.is_finite() { r.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                r.name, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn end_to_end(
    args: &Args,
    setup_s: &[f64],
    t: &workloads::Timed,
    tally: &check::Tally,
) -> Result<Vec<Row>, String> {
    let missing = |m: &str| format!("no samples for {m}");
    // The gated throughputs are first deciles and the gated run time is
    // the 90th percentile: the shared reference host switches between a
    // fast and a slow state for minutes at a time, and the share of
    // samples in each state moves the medians by up to 0.37 of their
    // value between runs, while the slow-side percentiles stay within
    // about 0.1. The medians are printed and not gated.
    let mut rows = Vec::new();
    for (name, unit, samples) in [
        ("sim_accesses_per_s", "1/s", &t.sim_accesses_per_s),
        ("cases_per_hour", "1/h", &t.cases_per_hour),
    ] {
        let mut typical = sampled(name, unit, samples).ok_or(missing(name))?;
        typical.in_json = false;
        let p10 = typical.summary.map(|s| s.p10).unwrap_or(typical.value);
        rows.push(typical);
        let mut slow = single(&format!("{name}_p10"), unit, p10);
        slow.note = "(first decile of the per-iteration samples)".to_string();
        rows.push(slow);
    }
    let all: Vec<f64> = t.run_ms.concat();
    let mut calls = sampled("run_ms", "ms", &all).ok_or(missing("run_ms"))?;
    calls.in_json = false;
    calls.note = format!("(every run call, {} cases)", t.run_ms.len());
    rows.push(calls);
    let (p50, (pct, p90)) =
        stats::per_case(&t.run_ms, 90.0, 10).ok_or(missing("a run-time tail"))?;
    let mut typical = single("run_ms_p50", "ms", p50);
    typical.in_json = false;
    typical.note = "(geometric mean of the per-case medians)".to_string();
    rows.push(typical);
    let mut tail = single("run_ms_p90", "ms", p90);
    tail.note = format!("(p{pct:.0} of time over case median, times run_ms_p50)");
    rows.push(tail);
    rows.push(sampled("setup_s", "s", setup_s).ok_or(missing("setup_s"))?);
    rows.push(single(
        "peak_rss_mb",
        "MB",
        peak_rss_mb().ok_or("cannot read VmHWM")?,
    ));
    if args.workload == Workload::Trace2c {
        let mut w = sampled(
            "trace_write_records_per_s",
            "1/s",
            &t.trace_write_records_per_s,
        )
        .ok_or(missing("trace_write_records_per_s"))?;
        w.in_json = false;
        rows.push(w);
    }
    let mut f = single("failed_share", "ratio", tally.failed_share());
    f.in_json = false;
    f.note = format!("({} of {} simulations)", tally.failed, tally.attempted);
    rows.push(f);
    Ok(rows)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).map(|s| s.median).unwrap_or(0.0)
}

fn per_layer(l: &traced::Layers, passes: usize) -> Vec<Row> {
    let per_pass = |x: u64| x as f64 / passes as f64;
    let overhead_ns = l.run_ns - l.untraced_run_ns;
    let self_ns = l.run_ns - l.layer_ns();
    vec![
        single("tracegen.gen.records", "count", per_pass(l.gen_records)),
        single(
            "tracegen.gen.ns_per_record",
            "ns",
            ratio(l.gen_ns, l.gen_records as f64),
        ),
        single(
            "tracegen.decode.records",
            "count",
            per_pass(l.decode_records),
        ),
        single(
            "tracegen.decode.ns_per_record",
            "ns",
            ratio(l.decode_ns, l.decode_records as f64),
        ),
        single(
            "tracegen.encode.ns_per_record",
            "ns",
            ratio(l.encode_ns, l.encode_records as f64),
        ),
        single(
            "tracegen.encode.bytes_per_record",
            "B",
            ratio(l.encode_bytes as f64, l.encode_records as f64),
        ),
        single("cachesim.l1i.accesses", "count", per_pass(l.l1i_accesses)),
        single("cachesim.l1d.accesses", "count", per_pass(l.l1d_accesses)),
        single(
            "cachesim.l1.hit_ratio",
            "ratio",
            ratio(l.l1_hits as f64, (l.l1i_accesses + l.l1d_accesses) as f64),
        ),
        single(
            "cachesim.l1.ns_per_access",
            "ns",
            ratio(l.l1_ns, (l.l1i_accesses + l.l1d_accesses) as f64),
        ),
        single("cachesim.l2.accesses", "count", per_pass(l.l2_accesses)),
        single(
            "cachesim.l2.hit_ratio",
            "ratio",
            ratio(l.l2_hits as f64, l.l2_accesses as f64),
        ),
        single(
            "cachesim.l2.ns_per_access",
            "ns",
            ratio(l.l2_ns, l.l2_accesses as f64),
        ),
        single(
            "cachesim.l2.batched_share",
            "ratio",
            ratio(l.l2_batched as f64, l.l2_accesses as f64),
        ),
        single(
            "cachesim.fetch.lines_per_record",
            "ratio",
            ratio(l.fetch_lines as f64, l.picks as f64),
        ),
        single("plru_core.atd.observes", "count", per_pass(l.atd_observes)),
        single(
            "plru_core.atd.ns_per_observe",
            "ns",
            ratio(l.atd_ns, l.atd_observes as f64),
        ),
        single("plru_core.interval.count", "count", per_pass(l.intervals)),
        single(
            "plru_core.interval.us_per_call",
            "us",
            ratio(l.interval_ns / 1e3, l.intervals as f64),
        ),
        single(
            "plru_core.interval.flip_ratio",
            "ratio",
            ratio(l.flips as f64, l.intervals as f64),
        ),
        single("cmpsim.sched.picks", "count", per_pass(l.picks)),
        single(
            "cmpsim.run.self_ns_per_record",
            "ns",
            ratio(self_ns, l.picks as f64),
        ),
        single("cmpsim.isolation.runs", "count", median(&l.isolation_runs)),
        single(
            "cmpsim.isolation.hit_ratio",
            "ratio",
            ratio(l.isolation_hits as f64, l.isolation_lookups as f64),
        ),
        single("engine.build_ms", "ms", median(&l.build_ms)),
        single("scenario.sweep_ms", "ms", median(&l.sweep_ms)),
        single(
            "scenario.pool_efficiency",
            "ratio",
            median(&l.pool_efficiency),
        ),
        single("trace.coverage", "ratio", ratio(l.layer_ns(), l.run_ns)),
        single("trace.overhead_ms", "ms", overhead_ns / 1e6 / passes as f64),
        single(
            "trace.overhead_share",
            "ratio",
            ratio(overhead_ns, l.untraced_run_ns),
        ),
    ]
}

fn run(args: &Args) -> Result<(Vec<Row>, check::Tally), String> {
    let work = WorkDir::create()?;
    let mut tally = check::Tally::default();
    let (prepared, setup_s) = workloads::setup(args.workload, args.seed, &work.0, &mut tally)?;
    if args.trace {
        let start = Instant::now();
        let mut layers = traced::Layers::default();
        let mut passes = 0;
        while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
            traced::run(&prepared, &mut layers).map_err(|e| format!("traced run failed: {e}"))?;
            passes += 1;
        }
        eprintln!(
            "traced passes: {passes}, traced cases per pass: {}",
            layers.cases / passes
        );
        Ok((per_layer(&layers, passes), tally))
    } else {
        let timed = workloads::measure(&prepared, args.seconds, &mut tally);
        eprintln!(
            "timed iterations: {}, measured {:.2} s",
            timed.iterations, timed.measured_s
        );
        Ok((end_to_end(args, &setup_s, &timed, &tally)?, tally))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host()
    );
    match run(&args) {
        Ok((rows, tally)) => {
            for note in &tally.notes {
                eprintln!("FAILED: {note}");
            }
            print_rows(&rows);
            println!("{}", json_line(&rows, &tally));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
