//! The three workloads: their specs, their set-up (specs, engines and
//! reference results) and their timed loops.
//!
//! Every workload is a scenario spec modelled on one the repository
//! ships, expanded by the repository's own expansion code. The seed
//! given on the command line becomes the spec's base seed, so it changes
//! every synthesised trace but not the shape of the work.

use crate::check::{self, Tally};
use plru_repro::prelude::*;
use plru_repro::scenario::SchemeAxis;
use plru_repro::tracegen::trace::{self, Compression};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed `run` calls a measurement needs before it may stop, so that the
/// 90th percentile of run time has ten samples beyond it.
pub const MIN_RUN_SAMPLES: usize = 100;
/// Hard stop for a measurement that cannot reach `MIN_RUN_SAMPLES`.
const MAX_MEASURE: Duration = Duration::from_secs(120);
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep2c,
    Trace2c,
    Manycore256t,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sweep2c, Workload::Trace2c, Workload::Manycore256t];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep2c => "sweep-2c",
            Workload::Trace2c => "trace-2c",
            Workload::Manycore256t => "manycore-256t",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's sweep spec at `seed`.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let names = |xs: &[&str]| {
            xs.iter()
                .map(|x| WorkloadSel::Named(x.to_string()))
                .collect()
        };
        let schemes = |xs: &[&str]| SchemeAxis::List(xs.iter().map(|x| x.to_string()).collect());
        let base = ScenarioSpec {
            name: self.name().to_string(),
            seed: Some(spec_seed(seed)),
            ..ScenarioSpec::default()
        };
        match self {
            // fig8_quick's mixes and schemes (plus fig6's bare policies)
            // at the smoke specs' run length and repartition cadence, so
            // every CPA case repartitions several times.
            Workload::Sweep2c => ScenarioSpec {
                insts: Some(20_000),
                interval_cycles: Some(150_000),
                workloads: names(&["2T_01", "2T_02", "2T_03", "2T_04"]),
                schemes: schemes(&["L", "N", "BT", "M-L", "M-0.75N", "M-BT"]),
                l2_sizes: Some(vec![512 * 1024, 2 * 1024 * 1024]),
                ..base
            },
            // smoke_recorded's shape: a bare and a CPA scheme over a
            // pressured 512 KB L2.
            Workload::Trace2c => ScenarioSpec {
                insts: Some(20_000),
                interval_cycles: Some(150_000),
                workloads: names(&["2T_01", "2T_02", "2T_03", "2T_04"]),
                schemes: schemes(&["L", "M-0.75N"]),
                l2_sizes: Some(vec![512 * 1024]),
                ..base
            },
            // manycore_256t's mix, scheme and profilers plus its bare-L
            // twin, shortened to 3k instructions per tenant with the
            // interval scaled down to keep several repartitions per run.
            Workload::Manycore256t => ScenarioSpec {
                insts: Some(3_000),
                interval_cycles: Some(50_000),
                workloads: names(&["2T_01x256"]),
                schemes: schemes(&["M-L", "L"]),
                profilers: Some(vec!["sketch8".to_string()]),
                ..base
            },
        }
    }
}

/// The spec's base seed for a command-line seed (splitmix64, kept to 48
/// bits so the value survives any JSON round trip of the spec).
fn spec_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}

/// The digest key of a case.
pub fn case_key(w: Workload, c: &ScenarioCase) -> String {
    format!(
        "{} {}/{}/{}K",
        w.name(),
        c.workload,
        c.scheme.acronym(),
        c.l2_bytes / 1024
    )
}

/// Everything the timed loop needs, built before timing starts.
pub struct Prepared {
    pub workload: Workload,
    pub cases: Vec<ScenarioCase>,
    pub engines: Vec<SimEngine>,
    /// Reference result per case (the live run; for trace-2c the capture).
    pub reference: Vec<SimResult>,
    /// Container path per case (trace-2c only).
    pub traces: Vec<PathBuf>,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| format!("panicked: {}", panic_text(p)))
}

/// One set-up: build the spec, its cases and engines, and compute the
/// reference result of every case. Trace-2c records each case to a v2
/// container in `work` and checks that it replays to the capture.
fn setup_once(w: Workload, seed: u64, work: &Path, tally: &mut Tally) -> Result<Prepared, String> {
    let cases = w.spec(seed).expand().map_err(|e| e.to_string())?;
    let engines: Vec<SimEngine> = cases.iter().map(|c| c.engine(Arc::default())).collect();
    let mut reference = Vec::with_capacity(cases.len());
    let mut traces = Vec::new();
    match w {
        Workload::Sweep2c => {
            let reports = guarded(|| SweepRunner::with_threads(2).run_cases(&cases));
            let reports = reports.inspect_err(|e| tally.record(Err(format!("sweep {e}"))))?;
            for r in reports {
                tally.record(Ok(()));
                reference.push(r.result);
            }
        }
        Workload::Trace2c => {
            for (i, (case, engine)) in cases.iter().zip(&engines).enumerate() {
                let path = work.join(format!("case{i}.pltc"));
                let wl = case.to_workload();
                let capture = guarded(|| engine.record_trace_with(&wl, &path, Compression::Dict))
                    .and_then(|r| r.map_err(|e| e.to_string()));
                let capture = capture.inspect_err(|e| tally.record(Err(e.clone())))?;
                tally.record(Ok(()));
                let replay = guarded(|| engine.run_trace(&path))
                    .and_then(|r| r.map_err(|e| e.to_string()))
                    .and_then(|r| {
                        check::same(&format!("replay of {}", case_key(w, case)), &r, &capture)
                    });
                tally.record(replay);
                reference.push(capture);
                traces.push(path);
            }
        }
        Workload::Manycore256t => {
            for (case, engine) in cases.iter().zip(&engines) {
                let wl = case.to_workload();
                let r =
                    guarded(|| engine.run(&wl)).inspect_err(|e| tally.record(Err(e.clone())))?;
                tally.record(Ok(()));
                reference.push(r);
            }
        }
    }
    Ok(Prepared {
        workload: w,
        cases,
        engines,
        reference,
        traces,
    })
}

/// Set up `SETUP_REPS` times, checking that every repetition reproduces
/// the first and, at the default seed, that the first matches the stored
/// digests. Returns the prepared state and each repetition's seconds.
pub fn setup(
    w: Workload,
    seed: u64,
    work: &Path,
    tally: &mut Tally,
) -> Result<(Prepared, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut first: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let p = setup_once(w, seed, work, tally)?;
        secs.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(p),
            Some(f) => {
                for (i, (got, want)) in p.reference.iter().zip(&f.reference).enumerate() {
                    if let Err(e) = check::same(
                        &format!("set-up repeat of {}", case_key(w, &f.cases[i])),
                        got,
                        want,
                    ) {
                        tally.fail(e);
                    }
                }
            }
        }
    }
    let first = first.ok_or("no set-up ran")?;
    if seed == check::DEFAULT_SEED {
        let stored = check::stored();
        for (case, r) in first.cases.iter().zip(&first.reference) {
            if let Err(e) = check::matches_stored(&stored, &case_key(w, case), r) {
                tally.fail(e);
            }
        }
    }
    Ok((first, secs))
}

/// Samples of the timed loop.
#[derive(Debug, Default)]
pub struct Timed {
    /// Simulated shared-L2 accesses per host second, one per iteration.
    pub sim_accesses_per_s: Vec<f64>,
    /// Completed cases per host hour, one per iteration.
    pub cases_per_hour: Vec<f64>,
    /// Host milliseconds of each timed run call, by case (sweep-2c has
    /// one: the whole sweep).
    pub run_ms: Vec<Vec<f64>>,
    /// Records captured and encoded per second, one per recording.
    pub trace_write_records_per_s: Vec<f64>,
    pub iterations: usize,
    pub measured_s: f64,
}

impl Timed {
    pub fn run_calls(&self) -> usize {
        self.run_ms.iter().map(Vec::len).sum()
    }
}

/// Repeat whole iterations of the workload until `seconds` have passed
/// and at least `MIN_RUN_SAMPLES` run calls were timed.
pub fn measure(p: &Prepared, seconds: f64, tally: &mut Tally) -> Timed {
    let cases = match p.workload {
        Workload::Sweep2c => 1,
        _ => p.cases.len(),
    };
    let mut out = Timed {
        run_ms: vec![Vec::new(); cases],
        ..Timed::default()
    };
    let start = Instant::now();
    while (start.elapsed().as_secs_f64() < seconds || out.run_calls() < MIN_RUN_SAMPLES)
        && start.elapsed() < MAX_MEASURE
    {
        match p.workload {
            Workload::Sweep2c => sweep_iteration(p, &mut out, tally),
            Workload::Trace2c => trace_iteration(p, &mut out, tally),
            Workload::Manycore256t => manycore_iteration(p, &mut out, tally),
        }
        out.iterations += 1;
    }
    out.measured_s = start.elapsed().as_secs_f64();
    out
}

fn l2_accesses(r: &SimResult) -> u64 {
    r.l2_stats.total().accesses
}

/// One cold sweep: a fresh runner (2 workers, empty isolation memo), as
/// every `sweep` invocation starts.
fn sweep_iteration(p: &Prepared, out: &mut Timed, tally: &mut Tally) {
    let runner = SweepRunner::with_threads(2);
    let t = Instant::now();
    let reports = guarded(|| runner.run_cases(&p.cases));
    let secs = t.elapsed().as_secs_f64();
    let reports = match reports {
        Ok(r) => r,
        Err(e) => {
            for _ in &p.cases {
                tally.record(Err(format!("sweep {e}")));
            }
            return;
        }
    };
    let mut accesses = 0;
    for (i, r) in reports.iter().enumerate() {
        tally.record(check::same(
            &case_key(p.workload, &p.cases[i]),
            &r.result,
            &p.reference[i],
        ));
        accesses += l2_accesses(&r.result);
    }
    out.run_ms[0].push(secs * 1e3);
    out.cases_per_hour
        .push(reports.len() as f64 / secs * 3600.0);
    out.sim_accesses_per_s.push(accesses as f64 / secs);
}

/// Record every case to a v2 container, then replay it with inline
/// decode. A case is the round trip.
fn trace_iteration(p: &Prepared, out: &mut Timed, tally: &mut Tally) {
    let t_iter = Instant::now();
    let (mut accesses, mut replay_s, mut done) = (0u64, 0.0, 0usize);
    for (i, (case, engine)) in p.cases.iter().zip(&p.engines).enumerate() {
        let key = case_key(p.workload, case);
        let wl = case.to_workload();
        let path = &p.traces[i];
        let t = Instant::now();
        let capture = guarded(|| engine.record_trace_with(&wl, path, Compression::Dict))
            .and_then(|r| r.map_err(|e| e.to_string()));
        let write_s = t.elapsed().as_secs_f64();
        let capture = match capture.and_then(|r| check::same(&key, &r, &p.reference[i]).map(|_| r))
        {
            Ok(r) => r,
            Err(e) => {
                tally.record(Err(e));
                continue;
            }
        };
        tally.record(Ok(()));
        match trace::load_info(path) {
            Ok(info) => out
                .trace_write_records_per_s
                .push(info.total_records() as f64 / write_s),
            Err(e) => {
                tally.record(Err(format!("{key}: recorded container unreadable: {e}")));
                continue;
            }
        }
        let t = Instant::now();
        let replay = guarded(|| engine.run_trace(path)).and_then(|r| r.map_err(|e| e.to_string()));
        let secs = t.elapsed().as_secs_f64();
        match replay.and_then(|r| check::same(&format!("replay of {key}"), &r, &capture).map(|_| r))
        {
            Ok(r) => {
                tally.record(Ok(()));
                accesses += l2_accesses(&r);
                replay_s += secs;
                done += 1;
                out.run_ms[i].push(secs * 1e3);
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    let secs = t_iter.elapsed().as_secs_f64();
    if done > 0 {
        out.cases_per_hour.push(done as f64 / secs * 3600.0);
        out.sim_accesses_per_s.push(accesses as f64 / replay_s);
    }
}

/// One single-threaded `SimEngine::run` per case.
fn manycore_iteration(p: &Prepared, out: &mut Timed, tally: &mut Tally) {
    let t_iter = Instant::now();
    let (mut accesses, mut run_s, mut done) = (0u64, 0.0, 0usize);
    for (i, (case, engine)) in p.cases.iter().zip(&p.engines).enumerate() {
        let wl = case.to_workload();
        let t = Instant::now();
        let r = guarded(|| engine.run(&wl));
        let secs = t.elapsed().as_secs_f64();
        match r
            .and_then(|r| check::same(&case_key(p.workload, case), &r, &p.reference[i]).map(|_| r))
        {
            Ok(r) => {
                tally.record(Ok(()));
                accesses += l2_accesses(&r);
                run_s += secs;
                done += 1;
                out.run_ms[i].push(secs * 1e3);
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    let secs = t_iter.elapsed().as_secs_f64();
    if done > 0 {
        out.cases_per_hour.push(done as f64 / secs * 3600.0);
        out.sim_accesses_per_s.push(accesses as f64 / run_s);
    }
}
