//! `hopper` — command-line experiment runner over the experiment layer.
//!
//! ```text
//! hopper central   [SPEC ARGS] [--series-out FILE]
//! hopper decentral [SPEC ARGS] [--series-out FILE]
//! hopper sweep     [SPEC ARGS] --axis KEY=V1,V2[,...] [--threads N] [--csv]
//!                  [--series-dir DIR]
//! hopper stability [SPEC ARGS] [--policies P1,P2,...] [--profiles constant,diurnal]
//!                  [--lo F] [--hi F] [--iters N] [--threads N] [--csv]
//! hopper report    [--out FILE] [--svg-out FILE] A.jsonl [B.jsonl]
//! hopper example   # the §3 motivating example (Table 1 / Figures 1-2)
//! ```
//!
//! The four spec-driven modes share one argument reader ([`read_args`]):
//! `--spec FILE` lines, then `key=value` arguments, then flags, each
//! later source overriding an earlier one. Every key of the spec-key
//! table ([`KEYS`]) has a flag: `--foo-bar V` sets `foo_bar=V`. `central`
//! and `decentral` run one trial on their engine's defaults — central
//! 50×4 slots, decentral the paper's deployment shape (300 workers × 2
//! slots, 10 schedulers) — and take values as given, unclamped. `sweep`
//! expands one spec along one axis (any sweepable key) × its seed list
//! and fans the grid out over worker threads; results are bit-identical
//! to a serial run regardless of `--threads`. Exit code 0 on success;
//! unknown flags or keys abort with usage.

use hopper::experiment::{
    frontier_csv, frontier_grid, sweep_with_threads, EngineKind, ExperimentSpec, FrontierConfig,
    SpecError, SweepAxis, SweepTable, KEYS,
};
use hopper::metrics::{mean_duration_in_bin, JobResult, SizeBin, Table};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        usage();
        exit(2);
    };
    match mode.as_str() {
        "central" => run_single(EngineKind::Central, &args[1..]),
        "decentral" => run_single(EngineKind::Decentral, &args[1..]),
        "sweep" => run_sweep(&args[1..]),
        "stability" => run_stability(&args[1..]),
        "report" => run_report(&args[1..]),
        "example" => run_example(),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown mode: {other}");
            usage();
            exit(2);
        }
    }
}

fn bail(e: SpecError) -> ! {
    eprintln!("{e}");
    exit(2);
}

/// A mode flag's numeric value, or exit 2.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a number, got `{value}`");
        exit(2)
    })
}

/// Flags that set a key without taking a value.
const SWITCHES: &[(&str, &str)] = &[
    ("--interactive", "interactive=true"),
    ("--stream", "stream=on"),
];

/// Read the spec arguments the spec-driven modes share. `own` sees every
/// argument first and claims the mode's own flags, calling `next` for a
/// flag's value. Returns the spec as `key=value` text in order of
/// precedence — `--spec FILE` lines, then `key=value` arguments, then
/// flags — so that a later source overrides an earlier one (the parser
/// takes the last occurrence of a key) wherever `--spec` sits.
fn read_args(
    rest: &[String],
    mut own: impl FnMut(&str, &mut dyn FnMut() -> String) -> bool,
) -> String {
    let (mut file, mut pairs, mut flags) = (String::new(), String::new(), String::new());
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut next = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag {arg} needs a value");
                exit(2)
            })
        };
        if own(arg, &mut next) {
            continue;
        }
        let (pair, into) = match arg.as_str() {
            "--spec" => {
                let path = next();
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("could not read spec file {path}: {e}");
                    exit(2)
                });
                file.push_str(&text);
                // Keep a file whose last line lacks '\n' from merging
                // with the next spec line.
                if !file.ends_with('\n') {
                    file.push('\n');
                }
                continue;
            }
            kv if kv.contains('=') && !kv.starts_with("--") => (kv.to_string(), &mut pairs),
            "--seed" => {
                // `--seed` names exactly one seed; lists go through
                // `seeds=` or `--seeds`.
                let seed = next();
                if seed.parse::<u64>().is_err() {
                    eprintln!(
                        "--seed takes one seed (use `hopper sweep` with seeds=... for lists)"
                    );
                    exit(2);
                }
                (format!("seeds={seed}"), &mut flags)
            }
            "--workers" => (format!("machines={}", next()), &mut flags),
            flag => match SWITCHES.iter().find(|(switch, _)| *switch == flag) {
                Some((_, pair)) => (pair.to_string(), &mut flags),
                None => match KEYS.iter().find(|key| key.flag() == flag) {
                    Some(key) => (format!("{}={}", key.name, next()), &mut flags),
                    None => {
                        eprintln!("unknown argument: {flag} (expected key=value or a --flag)");
                        usage();
                        exit(2);
                    }
                },
            },
        };
        // Check the pair alone, so an error names the argument rather than
        // a line of the combined text.
        let (key, value) = pair.split_once('=').expect("a key=value pair");
        if let Err(e) = ExperimentSpec::central().set(key.trim(), value.trim()) {
            bail(e);
        }
        into.push_str(&pair);
        into.push('\n');
    }
    file + &pairs + &flags
}

fn run_single(kind: EngineKind, rest: &[String]) {
    // `--series-out` is an output sink, not a spec key.
    let mut series_out: Option<String> = None;
    let text = read_args(rest, |flag, next| {
        let claimed = flag == "--series-out";
        if claimed {
            series_out = Some(next());
        }
        claimed
    });
    let spec = ExperimentSpec::parse_on(kind, &text).unwrap_or_else(|e| bail(e));
    if spec.engine != kind {
        eprintln!(
            "`hopper {0}` runs engine={0}; drop the engine= setting",
            kind.as_str()
        );
        exit(2);
    }
    let [seed] = spec.seeds[..] else {
        eprintln!("a single run takes one seed (use `hopper sweep` for seed lists)");
        exit(2);
    };
    if series_out.is_some() && spec.telemetry_window_ms == 0 {
        eprintln!("--series-out needs --telemetry-window-ms N (N > 0) to collect a series");
        exit(2);
    }
    let out = spec.run_one(seed).unwrap_or_else(|e| bail(e));
    let report = out.report();
    let core = &report.core;
    println!(
        "{}/{} on {} jobs ({} workload, util {:.0}%, seed {}): mean JCT {:.0} ms, p90 {:.0} ms, \
         makespan {:.1} s, spec {}/{} won, events {}, msgs {}",
        spec.engine.as_str(),
        spec.policy,
        report.digest.count(),
        spec.workload,
        spec.util * 100.0,
        seed,
        out.mean_duration_ms(),
        out.percentile_duration_ms(0.9),
        core.makespan.as_secs_f64(),
        core.spec_won,
        core.spec_launched,
        core.events,
        core.messages,
    );
    if spec.stream {
        // Streaming runs retire per-job results; report the memory
        // yardstick instead of the per-bin table.
        println!(
            "streaming: live-job high-water {} of {} total ({:.2}%), p50 ~{:.0} ms (sketch ε={})",
            report.live_high_water,
            report.digest.count(),
            100.0 * report.live_high_water as f64 / report.digest.count().max(1) as f64,
            out.percentile_duration_ms(0.5),
            report.digest.eps(),
        );
    } else {
        print_bins(out.jobs());
    }
    if let Some(path) = series_out {
        let series = report
            .telemetry
            .as_ref()
            .expect("telemetry_window_ms > 0 was checked before the run");
        let label = format!("{}/{}", spec.engine.as_str(), spec.policy);
        if let Err(e) = std::fs::write(&path, series.to_jsonl(&label, seed)) {
            eprintln!("could not write series to {path}: {e}");
            exit(2);
        }
        println!(
            "telemetry: {} windows of {} ms written to {path}",
            series.windows.len(),
            series.window_ms,
        );
    }
}

fn run_sweep(rest: &[String]) {
    let mut axis: Option<SweepAxis> = None;
    let mut threads: Option<usize> = None;
    let mut csv = false;
    let mut series_dir: Option<String> = None;
    let text = read_args(rest, |flag, next| {
        match flag {
            "--axis" => axis = Some(SweepAxis::parse(&next()).unwrap_or_else(|e| bail(e))),
            "--threads" => threads = Some(number(flag, &next())),
            "--csv" => csv = true,
            "--series-dir" => series_dir = Some(next()),
            _ => return false,
        }
        true
    });
    let Some(axis) = axis else {
        eprintln!("sweep needs --axis KEY=V1,V2[,...]");
        exit(2);
    };
    let spec = ExperimentSpec::parse(&text).unwrap_or_else(|e| bail(e));
    if series_dir.is_some() && spec.telemetry_window_ms == 0 {
        eprintln!("--series-dir needs telemetry_window_ms=N (N > 0) on the spec to collect series");
        exit(2);
    }
    let threads = threads.unwrap_or_else(hopper::experiment::default_threads);
    let table = sweep_with_threads(&spec, &axis, threads).unwrap_or_else(|e| bail(e));
    if let Some(dir) = series_dir {
        write_series_dir(&dir, &axis.key, &spec, &table);
    }
    if csv {
        print!("{}", table.to_csv());
    } else {
        let title = format!(
            "{}/{} sweep over {} ({} trials, {} threads)",
            spec.engine.as_str(),
            spec.policy,
            axis.key,
            table.trials.len(),
            threads,
        );
        table.to_table(&title).print();
    }
}

/// `hopper stability`: bisect each policy's maximum sustainable
/// utilization (its stability frontier) under each rate profile.
///
/// Policies pick their natural engine — `fifo|fair|srpt|budgeted` run
/// centralized, `sparrow|sparrow-srpt` decentralized, and `hopper` the
/// paper's decentralized deployment — so the comparison is frontier vs
/// frontier, each scheduler in its own home configuration refined by
/// the shared `key=value` overrides.
fn run_stability(rest: &[String]) {
    let mut policies = "hopper,sparrow,srpt".to_string();
    let mut profiles = "constant".to_string();
    let mut cfg = FrontierConfig::default();
    let mut threads: Option<usize> = None;
    let mut csv = false;
    let text = read_args(rest, |flag, next| {
        match flag {
            "--policies" => policies = next(),
            "--profiles" => profiles = next(),
            "--lo" => cfg.lo = number(flag, &next()),
            "--hi" => cfg.hi = number(flag, &next()),
            "--iters" => cfg.iters = number(flag, &next()),
            "--threads" => threads = Some(number(flag, &next())),
            "--csv" => csv = true,
            _ => return false,
        }
        true
    });
    let mut cells = Vec::new();
    for profile in profiles.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        for policy in policies.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let engine = match policy {
                "fifo" | "fair" | "srpt" | "budgeted" => EngineKind::Central,
                _ => EngineKind::Decentral,
            };
            let text = format!("{text}policy={policy}\nrate_profile={profile}\n");
            cells.push(ExperimentSpec::parse_on(engine, &text).unwrap_or_else(|e| bail(e)));
        }
    }
    if cells.is_empty() {
        eprintln!("stability needs at least one policy and one profile");
        exit(2);
    }
    let threads = threads.unwrap_or_else(hopper::experiment::default_threads);
    let results = frontier_grid(&cells, &cfg, threads).unwrap_or_else(|e| bail(e));
    if csv {
        print!("{}", frontier_csv(&results));
    } else {
        let mut t = Table::new(
            "stability frontier (max sustainable utilization)",
            &["policy", "rate profile", "frontier", "probes"],
        );
        for r in &results {
            let frontier = if r.lo == r.hi {
                format!("at/beyond {:.2}", r.lo)
            } else {
                format!("[{:.3}, {:.3}]", r.lo, r.hi)
            };
            t.row(&[
                r.policy.clone(),
                r.rate_profile.clone(),
                frontier,
                r.probes.len().to_string(),
            ]);
        }
        t.print();
    }
}

/// Deterministic per-trial series file name: `{axis_key}-{value}-seed{N}.jsonl`
/// with every character outside `[A-Za-z0-9._-]` of the value mapped to `-`.
/// The contract lets the nightly diff (and any external tooling) address a
/// trial's series from the grid cell alone, with no directory listing.
fn series_file_name(axis_key: &str, axis_value: &str, seed: u64) -> String {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .collect()
    };
    format!(
        "{}-{}-seed{}.jsonl",
        sanitize(axis_key),
        sanitize(axis_value),
        seed
    )
}

/// Write one JSON-lines telemetry file per trial into `dir` (created if
/// missing), named by [`series_file_name`].
fn write_series_dir(dir: &str, axis_key: &str, spec: &ExperimentSpec, table: &SweepTable) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create series dir {dir}: {e}");
        exit(2);
    }
    let mut written = 0usize;
    for trial in &table.trials {
        let Some(series) = &trial.report.telemetry else {
            continue;
        };
        let name = series_file_name(axis_key, &trial.axis_value, trial.seed);
        let path = format!("{dir}/{name}");
        let label = format!(
            "{}/{} {}={}",
            spec.engine.as_str(),
            spec.policy,
            axis_key,
            trial.axis_value
        );
        if let Err(e) = std::fs::write(&path, series.to_jsonl(&label, trial.seed)) {
            eprintln!("could not write series to {path}: {e}");
            exit(2);
        }
        written += 1;
    }
    eprintln!("telemetry: wrote {written} series files to {dir}/");
}

/// `hopper report`: render one or two JSON-lines telemetry series into a
/// self-contained HTML page (and optionally a standalone SVG).
fn run_report(rest: &[String]) {
    let mut out_path = "report.html".to_string();
    let mut svg_path: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut next = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag {name} needs a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = next("--out"),
            "--svg-out" => svg_path = Some(next("--svg-out")),
            flag if flag.starts_with("--") => {
                eprintln!("unknown report flag: {flag}");
                usage();
                exit(2);
            }
            path => inputs.push(path.to_string()),
        }
    }
    if inputs.is_empty() || inputs.len() > 2 {
        eprintln!(
            "report takes one series file (single run) or two (A/B), got {}",
            inputs.len()
        );
        exit(2);
    }
    let mut runs = Vec::with_capacity(inputs.len());
    for path in &inputs {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("could not read series file {path}: {e}");
            exit(2);
        });
        match hopper::metrics::parse_jsonl(&text) {
            Ok(data) => runs.push(data),
            Err(e) => {
                eprintln!("{path}: {e}");
                exit(2);
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, hopper::metrics::render_html(&runs)) {
        eprintln!("could not write report to {out_path}: {e}");
        exit(2);
    }
    println!(
        "report: {} run{} -> {out_path}",
        runs.len(),
        if runs.len() == 1 { "" } else { "s (A/B)" },
    );
    if let Some(path) = svg_path {
        if let Err(e) = std::fs::write(&path, hopper::metrics::render_svg(&runs)) {
            eprintln!("could not write SVG to {path}: {e}");
            exit(2);
        }
        println!("report: SVG panel -> {path}");
    }
}

fn print_bins(jobs: &[JobResult]) {
    let mut t = Table::new("mean JCT by job size", &["bin", "jobs", "mean JCT (ms)"]);
    for bin in SizeBin::all() {
        let n = jobs
            .iter()
            .filter(|r| SizeBin::of(r.size_tasks) == bin)
            .count();
        let cell = mean_duration_in_bin(jobs, bin).map_or("n/a".to_string(), |m| format!("{m:.0}"));
        t.row(&[bin.label().into(), n.to_string(), cell]);
    }
    t.print();
}

fn run_example() {
    use hopper::central::{self, scenario::motivating_sim_config, scenario::motivating_trace};
    let (trace, _) = motivating_trace();
    let cfg = motivating_sim_config();
    let mut t = Table::new(
        "§3 motivating example (paper: 20/30, 12/32, 12/22 s)",
        &["strategy", "A (s)", "B (s)"],
    );
    let cases: Vec<(&str, central::Policy)> = vec![
        ("best-effort", central::Policy::Srpt),
        (
            "budgeted",
            central::Policy::BudgetedSrpt {
                budget_fraction: 3.0 / 7.0,
            },
        ),
        (
            "hopper",
            central::Policy::Hopper(central::HopperConfig::pure()),
        ),
    ];
    for (name, policy) in cases {
        let out = central::run(&trace, &policy, &cfg);
        let a = out.jobs.iter().find(|r| r.job == 0).unwrap().duration_ms() / 1000;
        let b = out.jobs.iter().find(|r| r.job == 1).unwrap().duration_ms() / 1000;
        t.row(&[name.into(), a.to_string(), b.to_string()]);
    }
    t.print();
}

fn usage() {
    let (central, decentral) = (ExperimentSpec::central(), ExperimentSpec::decentral());
    let mut keys = String::new();
    for key in KEYS {
        let flag = key.flag();
        let is_switch = SWITCHES.iter().any(|(switch, _)| *switch == flag);
        keys.push_str(&format!(
            "\n  {:<24}{:<40} {} / {}",
            if is_switch { flag } else { format!("{flag} V") },
            key.domain.describe(),
            key.value(&central),
            key.value(&decentral),
        ));
    }
    let frontier = FrontierConfig::default();
    eprintln!(
        "usage:
  hopper central   [SPEC ARGS] [--series-out FILE]
  hopper decentral [SPEC ARGS] [--series-out FILE]
  hopper sweep     [SPEC ARGS] --axis KEY=V1,V2[,...] [--threads N] [--csv]
                   [--series-dir DIR]
  hopper stability [SPEC ARGS] [--policies P1,P2,...] [--profiles constant,diurnal]
                   [--lo F] [--hi F] [--iters N] [--threads N] [--csv]
  hopper report    [--out FILE] [--svg-out FILE] A.jsonl [B.jsonl]
  hopper example   # the §3 motivating example (Table 1 / Figures 1-2)

SPEC ARGS set experiment-spec keys; a later source overrides an earlier one:
  --spec FILE       key=value lines (# starts a comment)
  key=value         one key
  --foo-bar V       foo_bar=V, for every key below; the switches --interactive
                    and --stream set true and on; --seed N sets exactly one
                    seed and --workers N is --machines N
central and decentral run their own engine, from its defaults.

spec keys                 domain                                   default (central / decentral){keys}

stability: bisects each policy's maximum sustainable utilization per rate
  profile. --policies defaults to hopper,sparrow,srpt (fifo|fair|srpt|budgeted
  run centralized, the rest decentralized); --lo/--hi bracket utilization
  (default {lo}/{hi}); --iters bisection steps (default {iters}).

telemetry (needs a positive telemetry window):
  --series-out FILE single runs: write the series as JSON lines
  --series-dir DIR  sweeps: one AXIS-VALUE-seedN.jsonl per trial (the value is
                    sanitized to [A-Za-z0-9._-]; deterministic names)
  hopper report     render series files into a self-contained HTML page
                    (one file = single run, two = A/B overlay)",
        lo = frontier.lo,
        hi = frontier.hi,
        iters = frontier.iters,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper::experiment::Domain;

    /// Valid values of `domain`, one of which differs from every
    /// default.
    fn samples(domain: &Domain) -> Vec<String> {
        match *domain {
            Domain::Bool(words) => words.map(String::from).to_vec(),
            Domain::Int { lo, hi } => vec![if hi < u64::MAX { hi } else { lo + 7 }.to_string()],
            Domain::Float { lo, hi, .. } => {
                vec![if hi.is_finite() { hi } else { lo + 2.5 }.to_string()]
            }
            Domain::Enum(names) => vec![names[1].into()],
            Domain::Path => vec!["trace.csv".into()],
            Domain::Opt(inner) => samples(inner),
            Domain::Seeds => vec!["7".into()],
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_key_flag_sets_the_same_spec_as_its_key() {
        for key in KEYS {
            let flag = key.flag();
            let switch = SWITCHES.iter().find(|(switch, _)| *switch == flag);
            let mut moved = false;
            for value in samples(&key.domain) {
                let (flag_args, value) = match switch {
                    Some((_, pair)) => (args(&[&flag]), pair.split_once('=').unwrap().1.into()),
                    None => (args(&[&flag, &value]), value),
                };
                let flagged = read_args(&flag_args, |_, _| false);
                assert_eq!(flagged, format!("{}={value}\n", key.name));
                moved |= ["central", "decentral"].iter().any(|engine| {
                    let base = ExperimentSpec::parse(&format!("engine={engine}\n")).unwrap();
                    ExperimentSpec::parse(&format!("engine={engine}\n{flagged}"))
                        .is_ok_and(|keyed| keyed != base)
                });
            }
            assert!(moved, "no sample of {flag} is a valid non-default value");
        }
    }

    #[test]
    fn aliases_map_onto_their_keys() {
        let text = read_args(&args(&["--workers", "120", "--seed", "9"]), |_, _| false);
        assert_eq!(text, "machines=120\nseeds=9\n");
    }

    #[test]
    fn flags_override_pairs_and_mode_flags_are_claimed() {
        let mut threads = None;
        let text = read_args(
            &args(&["--jobs", "5", "--threads", "3", "jobs=4", "util=0.5"]),
            |flag, next| {
                let claimed = flag == "--threads";
                if claimed {
                    threads = Some(next());
                }
                claimed
            },
        );
        assert_eq!(text, "jobs=4\nutil=0.5\njobs=5\n");
        assert_eq!(threads.as_deref(), Some("3"));
    }
}
