//! Benchmark worker: runs one Hopper experiment spec line and prints one
//! JSON line of raw measurements. `run.py` builds this binary, starts it
//! for each part of a benchmark run and aggregates what it prints.
//!
//! ```text
//! perfbench --spec "<key=value ...>" --mode memory|time|trace [--seconds S]
//! ```
//!
//! The spec's `seeds=` list names the trials: each seed is one
//! independent run of the spec through the public streaming pipeline
//! (`ExperimentSpec::parse`, `engine(seed)`, `stream(seed)`,
//! `Engine::run_stream`). `memory` runs each trial once and reports the
//! process's `VmHWM` (so `run.py` gives it one trial per fresh process).
//! `time` runs every trial in turn, round after round, until `--seconds`
//! is spent. `trace` alternates untraced runs with traced ones: spans
//! around setup, run and readout, the drivers' own counters, and timed
//! probes of each layer's public functions on inputs shaped like the
//! run. Every mode checks the outputs and reports each check by name.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hopper_central::{HopperConfig, Policy, RunOutput, SimConfig};
use hopper_cluster::ClusterConfig;
use hopper_core::{
    AllocConfig, AllocCounters, BetaEstimator, FreeSlotEpisode, IncrementalAlloc, Reservation,
    ResponseKind, WorkerAction,
};
use hopper_decentral::{DecConfig, DecOutput, DecPolicy, ShardStats};
use hopper_experiment::{Engine, EngineKind, ExperimentSpec};
use hopper_metrics::{RunReport, TelemetrySeries};
use hopper_sim::{EventQueue, SimTime};
use hopper_spec::{SpecConfig, Speculator};
use hopper_workload::TraceStream;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fewest traced rounds, however long one takes: two traced runs of a
/// trial are needed for the repeat check. Time mode makes at least one
/// round and checks repeats whenever the budget allows a second.
const MIN_TRACED_ROUNDS: usize = 2;
/// Set-ups timed before the first run; each run adds one more sample.
const EXTRA_SETUPS: usize = 8;
/// Telemetry window the traced run observes with when the spec has
/// none: the series supplies the per-window kill counts the decentral
/// driver keeps nowhere else, and the series the export probe writes.
const TRACE_WINDOW_MS: u64 = 1000;
/// The host-speed reference kernel: events it processes, events pending
/// in its heap, and 64-byte rows in its job table (4 MiB).
const REF_EVENTS: usize = 300_000;
const REF_PENDING: u32 = 8_192;
const REF_ROWS: usize = 65_536;
/// Batches per probe; a probe reports its median batch.
const PROBE_BATCHES: usize = 5;

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --spec \"<key=value ...>\" --mode memory|time|trace [--seconds S]"
        );
        std::process::exit(2);
    });
    let out = match args.mode {
        Mode::Memory => untraced(&args, true),
        Mode::Time => untraced(&args, false),
        Mode::Trace => traced(&args),
    };
    match out {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Memory,
    Time,
    Trace,
}

struct Args {
    spec: String,
    budget: Duration,
    mode: Mode,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut spec, mut seconds, mut mode) = (None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--spec" => spec = Some(value.clone()),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--mode" => {
                    mode = Some(match value.as_str() {
                        "memory" => Mode::Memory,
                        "time" => Mode::Time,
                        "trace" => Mode::Trace,
                        _ => return Err(bad()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let mode = mode.ok_or("--mode is required")?;
        let seconds = match (seconds, mode) {
            (None, Mode::Memory) => 0.0,
            (None, _) => return Err("--seconds is required".into()),
            (Some(s), _) if s.is_finite() && s > 0.0 => s,
            (Some(_), _) => return Err("--seconds must be positive".into()),
        };
        Ok(Args {
            spec: spec.ok_or("--spec is required")?,
            budget: Duration::from_secs_f64(seconds),
            mode,
        })
    }
}

fn parse(line: &str) -> Result<ExperimentSpec, String> {
    // `parse` takes one pair per line; the benchmark's specs are one line.
    let text = line.split_whitespace().collect::<Vec<_>>().join("\n");
    ExperimentSpec::parse(&text).map_err(|e| format!("spec: {e}"))
}

/// One set-up as a user pays it: parse, engine, and the arrival stream
/// (whose construction runs the calibration pre-pass over every job).
fn set_up(line: &str, seed: u64) -> Result<(Box<dyn Engine>, TraceStream), String> {
    let spec = parse(line)?;
    let engine = spec.engine(seed).map_err(|e| format!("engine: {e}"))?;
    Ok((engine, spec.stream(seed)))
}

/// The line survives parse∘render: rendering the parsed spec and
/// parsing that again gives the same spec and the same rendering.
fn parse_render_holds(line: &str) -> Result<bool, String> {
    let once = parse(line)?;
    let twice = ExperimentSpec::parse(&once.render()).map_err(|e| format!("render: {e}"))?;
    Ok(once == twice && once.render() == twice.render())
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A run's report with its telemetry series reduced to a hash, so the
/// repeat check can keep the first run's result without holding its
/// series through later runs (which would inflate `VmHWM`).
#[derive(PartialEq)]
struct Fingerprint {
    report: RunReport,
    telemetry: Option<u64>,
}

impl Fingerprint {
    /// A hash of the whole fingerprint, equal across processes of one
    /// build, so `run.py` can compare runs made in different processes.
    fn hex(&self) -> String {
        format!("{:016x}", hash_debug(&(&self.report, self.telemetry)))
    }
}

/// Hash of a value's `Debug` text (`DefaultHasher::new` has fixed keys).
fn hash_debug(x: &impl std::fmt::Debug) -> u64 {
    /// Feeds formatted text straight into a hasher.
    struct HashWriter(DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{x:?}").expect("hashing cannot fail");
    w.0.finish()
}

fn fingerprint(r: &RunReport) -> Fingerprint {
    let telemetry = r.telemetry.as_ref().map(hash_debug);
    Fingerprint {
        report: RunReport {
            core: r.core,
            digest: r.digest.clone(),
            live_high_water: r.live_high_water,
            telemetry: None,
        },
        telemetry,
    }
}

/// Partition independence: each trial run with one shard gives the
/// same result as `runs` (one per seed, in order).
fn shards_one_matches(spec: &ExperimentSpec, runs: &[&Fingerprint]) -> Result<bool, String> {
    let mut one = spec.clone();
    one.shards = 1;
    for (&seed, &run) in spec.seeds.iter().zip(runs) {
        let engine = one.engine(seed).map_err(|e| format!("engine: {e}"))?;
        if fingerprint(engine.run_stream(one.stream(seed)).report()) != *run {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Per-trial samples of the untraced mode. Each set-up and run sample
/// has a host sample beside it: the reference kernel's time around it.
#[derive(Default)]
struct Timed {
    setup_s: Vec<f64>,
    setup_host_s: Vec<f64>,
    run_s: Vec<f64>,
    run_host_s: Vec<f64>,
    delivered: usize,
    first: Option<Fingerprint>,
}

/// Host-speed reference: a fixed discrete-event kernel (an event heap
/// of `REF_PENDING` pending events over a `REF_ROWS`-row job table)
/// that calls no code of the repository, so no change to the simulator
/// can move it. Other tenants of a shared host slow it much as they
/// slow the simulator; `run.py` divides each timed sample by the kernel
/// time around it. Returns the kernel's time in seconds.
fn reference_s(table: &mut [[u64; 8]]) -> f64 {
    let clock = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..REF_PENDING)
        .map(|id| Reverse((next() % 1_000_000, id)))
        .collect();
    let mut acc = 0u64;
    for _ in 0..REF_EVENTS {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let row = &mut table[next() as usize % table.len()];
        let cell = &mut row[id as usize % 8];
        *cell = cell.wrapping_add(t);
        acc ^= row[0];
        heap.push(Reverse((t + 1 + next() % 10_000, id)));
    }
    black_box(acc);
    clock.elapsed().as_secs_f64()
}

/// Memory and time modes: every trial (seed) of the spec is set up and
/// run in turn; memory mode makes one round, time mode repeats rounds
/// until the budget is spent, timing the host reference between runs.
/// `VmHWM` is the peak of the whole process, so `run.py` reads memory
/// from one-trial processes. Each trial's report is printed as a hash,
/// which `run.py` compares across processes.
fn untraced(a: &Args, memory: bool) -> Result<String, String> {
    let start = Instant::now();
    let spec = parse(&a.spec)?;
    if spec.seeds.is_empty() {
        return Err("untraced mode takes a spec with at least one seed".into());
    }
    let mut trials: Vec<Timed> = spec.seeds.iter().map(|_| Timed::default()).collect();
    // Memory mode keeps the reference's table out of `VmHWM`.
    let mut table = vec![[0u64; 8]; if memory { 0 } else { REF_ROWS }];
    let mut host = 0.0;
    if !memory {
        // The first call pays the table's page faults.
        reference_s(&mut table);
        host = reference_s(&mut table);
    }
    for (t, &seed) in trials.iter_mut().zip(&spec.seeds).filter(|_| !memory) {
        // The first set-up in a fresh process pays page faults a user
        // pays once per process, not per run: it is left out of the
        // samples.
        black_box(set_up(&a.spec, seed)?);
        for _ in 0..EXTRA_SETUPS {
            let clock = Instant::now();
            black_box(set_up(&a.spec, seed)?);
            t.setup_s.push(clock.elapsed().as_secs_f64());
        }
        let after = reference_s(&mut table);
        t.setup_host_s.extend([(host + after) / 2.0; EXTRA_SETUPS]);
        host = after;
    }
    let mut repeat_identical = true;
    loop {
        let round = Instant::now();
        for (t, &seed) in trials.iter_mut().zip(&spec.seeds) {
            let t0 = Instant::now();
            let (engine, stream) = set_up(&a.spec, seed)?;
            t.delivered = stream.total_jobs();
            let t1 = Instant::now();
            let out = engine.run_stream(stream);
            let t2 = Instant::now();
            t.setup_s.push((t1 - t0).as_secs_f64());
            t.run_s.push((t2 - t1).as_secs_f64());
            if !memory {
                let after = reference_s(&mut table);
                t.setup_host_s.push((host + after) / 2.0);
                t.run_host_s.push((host + after) / 2.0);
                host = after;
            }
            let got = fingerprint(out.report());
            match &t.first {
                Some(f) => repeat_identical &= *f == got,
                None => t.first = Some(got),
            }
        }
        if memory || start.elapsed() + round.elapsed() > a.budget {
            break;
        }
    }
    let peak_kib = peak_rss_kib()?;

    let runs: Vec<&Fingerprint> = trials
        .iter()
        .map(|t| t.first.as_ref().expect("ran"))
        .collect();
    let all_complete = trials
        .iter()
        .zip(&runs)
        .all(|(t, r)| r.report.digest.count() == t.delivered as u64);
    let mut checks = vec![
        ("parse_render", parse_render_holds(&a.spec)?),
        ("all_complete", all_complete),
    ];
    if trials[0].run_s.len() > 1 {
        checks.push(("repeat_identical", repeat_identical));
    }

    let items: Vec<String> = trials
        .iter()
        .zip(&runs)
        .map(|(t, r)| {
            Obj::default()
                .int("delivered", t.delivered as u64)
                .int("completed", r.report.digest.count())
                .raw("report", &format!("\"{}\"", r.hex()))
                .num("sim_mean_jct_ms", r.report.digest.mean_ms())
                .num("sim_p99_jct_ms", r.report.digest.quantile_ms(0.99))
                .raw("setup_s", &list_json(&t.setup_s))
                .raw("setup_host_s", &list_json(&t.setup_host_s))
                .raw("run_s", &list_json(&t.run_s))
                .raw("run_host_s", &list_json(&t.run_host_s))
                .finish()
        })
        .collect();
    Ok(Obj::default()
        .raw("trials", &format!("[{}]", items.join(",")))
        .int("peak_rss_kib", peak_kib)
        .raw("checks", &checks_json(&checks))
        .finish())
}

/// The drivers' concrete outputs, which carry the counters the
/// `Engine` trait's summary does not expose.
enum Output {
    Central(RunOutput),
    Decentral(DecOutput),
}

impl Output {
    fn report(&self) -> &RunReport {
        match self {
            Output::Central(o) => &o.report,
            Output::Decentral(o) => &o.report,
        }
    }
}

/// Everything a repeat of the traced run must reproduce bit-for-bit.
impl PartialEq for Output {
    fn eq(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Central(a), Output::Central(b)) => {
                a.stats == b.stats && a.report == b.report && a.alloc_counters == b.alloc_counters
            }
            (Output::Decentral(a), Output::Decentral(b)) => {
                a.stats == b.stats && a.report == b.report && a.shard == b.shard
            }
            _ => false,
        }
    }
}

fn cluster(spec: &ExperimentSpec) -> ClusterConfig {
    ClusterConfig {
        machines: spec.machines,
        slots_per_machine: spec.slots,
        handoff_ms: spec.handoff_ms,
        ..Default::default()
    }
}

fn speculator(spec: &ExperimentSpec) -> Option<Speculator> {
    spec.spec_min_elapsed_ms.map(|ms| {
        Speculator::Late(SpecConfig {
            min_elapsed: SimTime::from_millis(ms),
            ..Default::default()
        })
    })
}

/// Run `spec` on the drivers directly, with the configuration
/// `ExperimentSpec::engine` builds plus the telemetry observer. The
/// traced-matches-untraced check pins the two configurations together.
fn run_direct(spec: &ExperimentSpec, seed: u64, stream: TraceStream) -> Result<Output, String> {
    if spec.policy != "hopper" {
        return Err("the traced run supports policy=hopper only".into());
    }
    let window_ms = match spec.telemetry_window_ms {
        0 => TRACE_WINDOW_MS,
        w => w,
    };
    let scan = spec.scan_ms.map(SimTime::from_millis);
    Ok(match spec.engine {
        EngineKind::Central => {
            let policy = Policy::Hopper(HopperConfig {
                alloc: AllocConfig {
                    fairness_eps: spec.eps,
                    ..Default::default()
                },
                learn_beta: spec.learn_beta,
                realloc_drift: spec.realloc_drift,
                ..Default::default()
            });
            let mut cfg = SimConfig {
                cluster: cluster(spec),
                dynamics: spec.dynamics(),
                seed,
                telemetry_window_ms: window_ms,
                ..Default::default()
            };
            cfg.scan_interval = scan.unwrap_or(cfg.scan_interval);
            cfg.speculator = speculator(spec).unwrap_or(cfg.speculator);
            Output::Central(hopper_central::run_stream(stream, &policy, &cfg))
        }
        EngineKind::Decentral => {
            let mut cfg = DecConfig {
                cluster: cluster(spec),
                num_schedulers: spec.schedulers,
                probe_ratio: spec.probe_ratio,
                refusal_threshold: spec.refusals,
                fairness_eps: Some(spec.eps),
                dynamics: spec.dynamics(),
                faults: spec.faults(),
                shards: spec.shards,
                seed,
                telemetry_window_ms: window_ms,
                ..Default::default()
            };
            cfg.scan_interval = scan.unwrap_or(cfg.scan_interval);
            cfg.speculator = speculator(spec).unwrap_or(cfg.speculator);
            Output::Decentral(hopper_decentral::run_stream(
                stream,
                DecPolicy::Hopper,
                &cfg,
            ))
        }
    })
}

/// In-memory span recorder: name, parent, start and end relative to
/// the recorder's creation. Written out once, with the result.
struct Spans {
    epoch: Instant,
    spans: Vec<(&'static str, Option<usize>, Duration, Duration)>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push((name, parent, now, now));
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.3 = self.epoch.elapsed();
        (span.3 - span.2).as_secs_f64()
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|(name, parent, start, end)| {
                Obj::default()
                    .raw("name", &format!("\"{name}\""))
                    .raw("parent", &parent.map_or("null".into(), |p| p.to_string()))
                    .num("start_ms", start.as_secs_f64() * 1e3)
                    .num("end_ms", end.as_secs_f64() * 1e3)
                    .finish()
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// The sharded engine's counters, and its run time against the serial
/// driver's on the same trials.
#[derive(Default)]
struct Pdes {
    stats: ShardStats,
    events: f64,
    sharded_s: f64,
    serial_s: f64,
}

/// Shards every decentral trial is compared across.
const PROBE_SHARDS: usize = 2;

/// The PDES layer on a decentral workload. Its trials also run once on
/// the other engine, so both decentral workloads price sharding: the
/// serial workload on `PROBE_SHARDS` shards (whose counters fill
/// `pdes.*`), the sharded one on the serial driver. Zero on central.
fn pdes_layer(spec: &ExperimentSpec, trials: &[Trial], outs: &[&Output]) -> Result<Pdes, String> {
    let mut p = Pdes::default();
    if spec.engine != EngineKind::Decentral {
        return Ok(p);
    }
    let mut other = spec.clone();
    other.shards = if spec.shards > 1 { 0 } else { PROBE_SHARDS };
    let mut probes = Vec::new();
    let mut other_s = 0.0;
    for &seed in &spec.seeds {
        let stream = other.stream(seed);
        let clock = Instant::now();
        probes.push(run_direct(&other, seed, stream)?);
        other_s += clock.elapsed().as_secs_f64();
    }
    let own_s: f64 = trials.iter().map(|t| min(&t.traced_s)).sum();
    let sharded: Vec<&Output> = if spec.shards > 1 {
        (p.sharded_s, p.serial_s) = (own_s, other_s);
        outs.to_vec()
    } else {
        (p.sharded_s, p.serial_s) = (other_s, own_s);
        probes.iter().collect()
    };
    for o in sharded {
        if let Output::Decentral(o) = o {
            let s = o.shard.as_ref().ok_or("sharded run reported no shard stats")?;
            p.stats.windows += s.windows;
            p.stats.horizon_stalls += s.horizon_stalls;
            p.stats.cross_msgs += s.cross_msgs;
            p.stats.local_msgs += s.local_msgs;
            p.events += o.report.core.events as f64;
        }
    }
    Ok(p)
}

/// Per-trial samples of the traced mode.
#[derive(Default)]
struct Trial {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    setup_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    delivered: usize,
    plain: Option<RunReport>,
    out: Option<Output>,
}

/// Traced mode: rounds over every trial of one untraced run then one
/// traced run (at least `MIN_TRACED_ROUNDS`, more while the budget
/// lasts), then the counters are read out and each layer is probed.
fn traced(a: &Args) -> Result<String, String> {
    let start = Instant::now();
    let spec = parse(&a.spec)?;
    let mut spans = Spans::new();
    let bench = spans.open("bench", None);
    let mut trials: Vec<Trial> = spec.seeds.iter().map(|_| Trial::default()).collect();
    let mut repeat_identical = true;
    let mut rounds = 0;
    loop {
        let round = Instant::now();
        for (t, &seed) in trials.iter_mut().zip(&spec.seeds) {
            let (engine, stream) = set_up(&a.spec, seed)?;
            let clock = Instant::now();
            let out = engine.run_stream(stream);
            t.untraced_s.push(clock.elapsed().as_secs_f64());
            match &t.plain {
                Some(p) => repeat_identical &= p == out.report(),
                None => t.plain = Some(out.report().clone()),
            }
            drop(out);

            let setup = spans.open("setup", Some(bench));
            let s = spans.open("hopper-experiment::spec.parse", Some(setup));
            let spec = parse(&a.spec)?;
            spans.close(s);
            let s = spans.open("hopper-workload::stream", Some(setup));
            let stream = spec.stream(seed);
            t.stream_ms.push(spans.close(s) * 1e3);
            t.setup_ms.push(spans.close(setup) * 1e3);
            t.delivered = stream.total_jobs();
            let run = spans.open("run", Some(bench));
            let out = run_direct(&spec, seed, stream)?;
            t.traced_s.push(spans.close(run));
            match &t.out {
                Some(f) => repeat_identical &= *f == out,
                None => t.out = Some(out),
            }
        }
        rounds += 1;
        if rounds >= MIN_TRACED_ROUNDS && start.elapsed() + round.elapsed() > a.budget {
            break;
        }
    }

    let readout = spans.open("readout", Some(bench));
    let outs: Vec<&Output> = trials
        .iter()
        .map(|t| t.out.as_ref().expect("ran"))
        .collect();
    let plains: Vec<&RunReport> = trials
        .iter()
        .map(|t| t.plain.as_ref().expect("ran"))
        .collect();
    let delivered: usize = trials.iter().map(|t| t.delivered).sum();
    let sum =
        |f: &dyn Fn(&RunReport) -> u64| outs.iter().map(|o| f(o.report())).sum::<u64>() as f64;
    let events = sum(&|r| r.core.events);
    let spec_launched = sum(&|r| r.core.spec_launched);
    let spec_won = sum(&|r| r.core.spec_won);
    let messages = sum(&|r| r.core.messages);
    let mut series = Vec::new();
    for o in &outs {
        series.push(
            o.report()
                .telemetry
                .as_ref()
                .ok_or("traced run produced no telemetry series")?,
        );
    }
    let killed: u64 = series
        .iter()
        .flat_map(|s| &s.windows)
        .map(|w| w.killed)
        .sum();
    let high_water = outs
        .iter()
        .map(|o| o.report().live_high_water)
        .max()
        .unwrap_or(0);
    let traced_s: f64 = trials.iter().map(|t| min(&t.traced_s)).sum();
    let untraced_s: f64 = trials.iter().map(|t| min(&t.untraced_s)).sum();

    let (mut alloc, mut warm, mut betas) = (AllocCounters::default(), 0, Vec::new());
    let (mut refusals, mut g3) = (0, 0);
    for o in &outs {
        match o {
            Output::Central(o) => {
                let c = o.alloc_counters;
                alloc.recomputes += c.recomputes;
                alloc.suffix_fills += c.suffix_fills;
                alloc.reuses += c.reuses;
                alloc.stale_skips += c.stale_skips;
                warm += o.stats.spec_warm;
                betas.extend(o.stats.final_beta);
            }
            Output::Decentral(o) => {
                refusals += o.stats.refusals;
                g3 += o.stats.guideline3_switches;
            }
        }
    }
    let pdes = pdes_layer(&spec, &trials, &outs)?;
    let beta = ratio(betas.iter().sum(), betas.len() as f64);
    let mut m: Vec<(&str, f64)> = vec![
        ("workload.jobs", delivered as f64),
        (
            "workload.stream_build_ms",
            trials.iter().map(|t| median(&t.stream_ms)).sum(),
        ),
        ("sim.events", events),
        ("sim.events_per_s", ratio(events, traced_s)),
        ("alloc.recomputes", alloc.recomputes as f64),
        ("alloc.suffix_fills", alloc.suffix_fills as f64),
        (
            "alloc.suffix_share",
            ratio(alloc.suffix_fills as f64, alloc.recomputes as f64),
        ),
        ("alloc.reuses", alloc.reuses as f64),
        ("alloc.stale_skips", alloc.stale_skips as f64),
        ("beta.final", beta),
        ("launch.orig", sum(&|r| r.core.orig_launched)),
        ("launch.spec", spec_launched),
        ("spec.won", spec_won),
        ("spec.useful_ratio", ratio(spec_won, spec_launched)),
        ("launch.killed", killed as f64),
        ("launch.spec_warm_share", ratio(warm as f64, spec_launched)),
        ("msg.total", messages),
        ("msg.per_job", ratio(messages, delivered as f64)),
        ("msg.refusals", refusals as f64),
        ("proto.g3_switches", g3 as f64),
        ("pdes.windows", pdes.stats.windows as f64),
        (
            "pdes.events_per_window",
            ratio(pdes.events, pdes.stats.windows as f64),
        ),
        ("pdes.horizon_stalls", pdes.stats.horizon_stalls as f64),
        (
            "pdes.cross_share",
            ratio(
                pdes.stats.cross_msgs as f64,
                (pdes.stats.cross_msgs + pdes.stats.local_msgs) as f64,
            ),
        ),
        ("pdes.run_ratio", ratio(pdes.sharded_s, pdes.serial_s)),
        ("jobs.live_high_water", high_water as f64),
        (
            "telemetry.windows",
            if spec.telemetry_window_ms > 0 {
                series.iter().map(|s| s.windows.len()).sum::<usize>() as f64
            } else {
                0.0
            },
        ),
    ];
    let readout_ms = spans.close(readout) * 1e3;

    let mut checks = vec![
        ("parse_render", parse_render_holds(&a.spec)?),
        (
            "all_complete",
            trials.iter().zip(&outs).zip(&plains).all(|((t, o), p)| {
                o.report().digest.count() == t.delivered as u64
                    && p.digest.count() == t.delivered as u64
            }),
        ),
        ("repeat_identical", repeat_identical),
        (
            "traced_matches_untraced",
            outs.iter().zip(&plains).all(|(o, &p)| {
                let r = o.report();
                p.core == r.core
                    && p.digest == r.digest
                    && p.live_high_water == r.live_high_water
                    && (spec.telemetry_window_ms == 0 || p == r)
            }),
        ),
    ];
    if spec.shards > 1 {
        let plain: Vec<Fingerprint> = plains.iter().map(|p| fingerprint(p)).collect();
        let plain: Vec<&Fingerprint> = plain.iter().collect();
        checks.push(("shards_one_identical", shards_one_matches(&spec, &plain)?));
    }

    // Probe inputs shaped like the run: the largest live set any trial
    // reached, with task counts from that trial's own stream.
    let widest = (0..outs.len())
        .max_by_key(|&k| outs[k].report().live_high_water)
        .expect("at least one trial");
    let seed = spec.seeds[widest];
    let tasks: Vec<f64> = spec
        .stream(seed)
        .take(high_water.max(1))
        .map(|j| j.num_tasks() as f64)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let probe_beta = if beta > 1.0 { beta } else { 1.5 };
    m.extend([
        ("spec.parse_us", probe_parse_us(&a.spec)?),
        (
            "sim.queue_op_ns",
            probe_queue_ns(spec.total_slots(), &mut rng),
        ),
        (
            "alloc.refill_us",
            probe_refill_us(&tasks, spec.total_slots(), spec.eps, probe_beta),
        ),
        ("beta.read_ns", probe_beta_ns(probe_beta, &mut rng)),
        (
            "proto.next_action_ns",
            probe_next_action_ns(&spec, &tasks, &mut rng),
        ),
        ("telemetry.export_ms", probe_export_ms(series[widest], seed)),
        (
            "span.setup_ms",
            trials.iter().map(|t| median(&t.setup_ms)).sum(),
        ),
        ("span.run_ms", traced_s * 1e3),
        ("span.readout_ms", readout_ms),
        (
            "trace.overhead_frac",
            ratio(traced_s - untraced_s, untraced_s),
        ),
    ]);
    spans.close(bench);

    let mut metrics = Obj::default();
    for (name, value) in &m {
        metrics = metrics.num(name, *value);
    }
    Ok(Obj::default()
        .int("delivered", delivered as u64)
        .int(
            "completed",
            outs.iter().map(|o| o.report().digest.count()).sum(),
        )
        .int("runs", (2 * rounds * trials.len()) as u64)
        .raw("metrics", &metrics.finish())
        .raw("spans", &spans.json())
        .raw("checks", &checks_json(&checks))
        .finish())
}

/// Median over `PROBE_BATCHES` batches of `per_batch` timed calls of
/// `f`, in nanoseconds per call.
fn probe_ns(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..PROBE_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches)
}

/// `ExperimentSpec::parse` of the workload's spec line, in µs.
fn probe_parse_us(line: &str) -> Result<f64, String> {
    parse(line)?;
    Ok(probe_ns(200, || {
        black_box(parse(black_box(line)).ok());
    }) / 1e3)
}

/// One `EventQueue` push + pop at a depth of one pending event per
/// cluster slot (a completion per busy slot), in ns.
fn probe_queue_ns(depth: usize, rng: &mut StdRng) -> f64 {
    let delays: Vec<u64> = (0..4096).map(|_| rng.gen_range(1..10_000)).collect();
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.push(SimTime(delays[i % delays.len()]), i);
    }
    let mut i = 0;
    probe_ns(100_000, || {
        let (now, e) = q.pop().expect("queue holds `depth` events");
        q.push(SimTime(now.0 + delays[i & 4095]), black_box(e));
        i += 1;
    })
}

/// One `IncrementalAlloc` update + allocate over the run's live
/// high-water of jobs (task counts from the workload's stream): each
/// call takes one task off one job, as a task completion does, and the
/// allocator picks a full or suffix refill itself. In µs.
fn probe_refill_us(tasks: &[f64], capacity: usize, eps: f64, beta: f64) -> f64 {
    let cfg = AllocConfig {
        fairness_eps: eps,
        ..Default::default()
    };
    let mut alloc = IncrementalAlloc::new(Some(beta));
    let mut remaining = tasks.to_vec();
    for (j, &r) in remaining.iter().enumerate() {
        alloc.upsert(j, r, 0.0, 1.0, beta, 1.0);
    }
    alloc.allocate(capacity.max(1), &cfg);
    let mut j = 0;
    probe_ns(200, || {
        remaining[j] = if remaining[j] > 1.0 {
            remaining[j] - 1.0
        } else {
            tasks[j]
        };
        alloc.upsert(j, remaining[j], 0.0, 1.0, beta, 1.0);
        black_box(alloc.allocate(capacity.max(1), &cfg));
        j = (j + 1) % remaining.len();
    }) / 1e3
}

/// One `BetaEstimator::observe` then `beta()` on a full window of
/// Pareto(1, β) multipliers, in ns.
fn probe_beta_ns(beta: f64, rng: &mut StdRng) -> f64 {
    let draws: Vec<f64> = (0..4096)
        .map(|_| (1.0 - rng.gen::<f64>()).powf(-1.0 / beta))
        .collect();
    let mut est = BetaEstimator::with_prior(1.5);
    for i in 0..4000 {
        est.observe(draws[i % draws.len()]);
    }
    let mut i = 0;
    probe_ns(2_000, || {
        est.observe(draws[i & 4095]);
        black_box(est.beta());
        i += 1;
    })
}

/// One `FreeSlotEpisode::next_action` on a worker queue of
/// `probe_ratio × slots` reservations from the spec's schedulers, with
/// virtual sizes from the workload's task counts. Each episode runs to
/// its end: every refusable response is refused, so the refusal
/// threshold is reached and Guideline 3 picks. In ns per call.
fn probe_next_action_ns(spec: &ExperimentSpec, tasks: &[f64], rng: &mut StdRng) -> f64 {
    const EPISODES: usize = 200;
    let len = ((spec.probe_ratio * spec.slots as f64).ceil() as usize).max(1);
    let queue: Vec<Reservation> = (0..len)
        .map(|i| Reservation {
            scheduler: rng.gen_range(0..spec.schedulers.max(1)),
            job: i as u64,
            virtual_size: tasks[i % tasks.len()],
            remaining_tasks: tasks[i % tasks.len()],
        })
        .collect();
    let mut calls = 0usize;
    let per_episode = probe_ns(EPISODES, || {
        let mut episode = FreeSlotEpisode::new(spec.refusals);
        loop {
            calls += 1;
            match episode.next_action(&queue, rng) {
                WorkerAction::Respond {
                    scheduler,
                    job,
                    kind: ResponseKind::Refusable,
                } => {
                    episode.mark_probed(scheduler);
                    episode.record_refusal(scheduler, job, None);
                }
                _ => break,
            }
        }
    });
    per_episode * (EPISODES * PROBE_BATCHES) as f64 / calls as f64
}

/// `TelemetrySeries::to_jsonl` of a traced run's series, in ms.
fn probe_export_ms(series: &TelemetrySeries, seed: u64) -> f64 {
    probe_ns(3, || {
        black_box(series.to_jsonl("perfbench", seed));
    }) / 1e6
}

fn checks_json(checks: &[(&str, bool)]) -> String {
    let mut o = Obj::default();
    for (name, ok) in checks {
        o = o.raw(name, if *ok { "true" } else { "false" });
    }
    o.finish()
}

fn list_json(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(","))
}

/// Minimal JSON object writer (the workspace has no serde).
#[derive(Default)]
struct Obj(Vec<String>);

impl Obj {
    fn raw(mut self, key: &str, json: &str) -> Obj {
        self.0.push(format!("\"{key}\":{json}"));
        self
    }

    fn num(self, key: &str, v: f64) -> Obj {
        let json = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".into()
        };
        self.raw(key, &json)
    }

    fn int(self, key: &str, v: u64) -> Obj {
        self.raw(key, &v.to_string())
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}
