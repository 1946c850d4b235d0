#![warn(missing_docs)]

//! Shared harness for the figure/table binaries.
//!
//! Every binary follows the same pattern: build the experiment's parameter
//! sweep, run the simulations (in parallel when cores allow), assemble an
//! [`ExperimentRecord`], print it as an aligned table, and persist it as
//! JSON under `results/`.
//!
//! All binaries accept `--quick` (shorter traffic windows, for smoke runs)
//! and `--full` (paper-length windows); the default sits in between so the
//! whole suite finishes in tens of minutes on one core. The scale can also
//! be set via the `DIBS_SCALE` environment variable (`quick`, `default`,
//! `full`).

pub mod timing;

use dibs::{RunResults, Scenario, SimConfig};
use dibs_harness::Executor;
use dibs_stats::{ExperimentRecord, SeriesPoint};
use std::path::PathBuf;

/// Master seed used by the sweep binaries unless `--seed` / `DIBS_SEED`
/// overrides it. Every run derives its own stream from this via its
/// `dibs::RunDescriptor`, so one number pins the whole suite.
pub const DEFAULT_MASTER_SEED: u64 = 0xD1B5_2014;

/// How long the traffic windows run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test: tiny windows, coarse percentiles.
    Quick,
    /// Suite default: enough queries for a stable 99th percentile.
    Default,
    /// Paper-length windows.
    Full,
}

impl Scale {
    /// Traffic generation window for mixed workloads, in milliseconds.
    pub fn duration_ms(self) -> u64 {
        match self {
            Scale::Quick => 120,
            Scale::Default => 400,
            Scale::Full => 1000,
        }
    }

    /// Drain time appended after the generation window, in milliseconds.
    pub fn drain_ms(self) -> u64 {
        match self {
            Scale::Quick => 300,
            Scale::Default => 600,
            Scale::Full => 1000,
        }
    }

    /// A short window for the very heavy experiments (10 ms background
    /// inter-arrival, extreme qps), in milliseconds.
    pub fn heavy_duration_ms(self) -> u64 {
        match self {
            Scale::Quick => 80,
            Scale::Default => 200,
            Scale::Full => 500,
        }
    }

    fn parse(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Execution context shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Chosen scale.
    pub scale: Scale,
    /// Where JSON records land.
    pub out_dir: PathBuf,
    /// Worker threads for the sweep executor (`--jobs` / `DIBS_JOBS`).
    pub jobs: usize,
    /// Master seed for run-descriptor stream derivation (`--seed` /
    /// `DIBS_SEED`).
    pub master_seed: u64,
    /// Event-trace spec from `--trace` / `DIBS_TRACE`, if any.
    pub trace: Option<String>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Harness {
    /// Builds a harness from argv (`--quick` / `--full` / `--jobs N` /
    /// `--seed N`) and the `DIBS_SCALE` / `DIBS_JOBS` / `DIBS_SEED`
    /// environment variables (argv wins). A malformed seed or an unknown
    /// scale exits with status 2 rather than run a figure under settings
    /// nobody asked for.
    pub fn from_env() -> Self {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let jobs = dibs_harness::take_jobs_flag(&mut args)
            .or_else(dibs_harness::env_jobs)
            .unwrap_or_else(dibs_harness::default_jobs);
        let options = parse_options(&args, |name| std::env::var(name).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let out_dir = std::env::var("DIBS_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        timing::meter_start();
        Harness {
            scale: options.scale,
            out_dir,
            jobs,
            master_seed: options.master_seed,
            trace: options.trace,
        }
    }

    /// The tracer requested via `--trace` / `DIBS_TRACE`, falling back to
    /// `default` when neither was given (binaries with their own trace
    /// needs, like `fig02_detour_timeline`, pass a non-`off` default).
    ///
    /// A malformed user spec is reported and degrades to `default` rather
    /// than silently tracing the wrong kinds.
    pub fn tracer_or(&self, default: &str) -> dibs::Tracer {
        let requested = self.trace.as_deref();
        let spec = requested.unwrap_or(default);
        match spec.parse::<dibs::TraceSpec>() {
            Ok(s) => dibs::Tracer::from_spec(&s),
            Err(e) => {
                eprintln!("warning: bad trace spec `{spec}` ({e}); using `{default}`");
                default
                    .parse::<dibs::TraceSpec>()
                    .map(|s| dibs::Tracer::from_spec(&s))
                    .unwrap_or_else(|_| dibs::Tracer::off())
            }
        }
    }

    /// Writes a captured trace as Chrome-viewable JSON next to the
    /// records, but only when the user explicitly asked to trace (a
    /// binary's own default tracer stays internal).
    pub fn export_trace(&self, id: &str, results: &RunResults) {
        let (Some(_), Some(trace)) = (&self.trace, &results.trace) else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("trace_{id}.json"));
        match std::fs::write(&path, trace.chrome_trace().render_pretty()) {
            Ok(()) => eprintln!(
                "trace: {} events ({} observed, {} dropped) -> {} (open in chrome://tracing)",
                trace.events.len(),
                trace.observed,
                trace.dropped,
                path.display()
            ),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    /// The deterministic sweep executor at this harness's `--jobs` width.
    pub fn executor(&self) -> Executor {
        Executor::new(self.jobs)
    }

    /// Prints the record and writes `results/<id>.json`.
    pub fn finish(&self, record: &ExperimentRecord) {
        print!("{}", record.to_table());
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{}.json", record.id));
        match std::fs::write(&path, record.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        // An eyeball-comparison chart next to the raw series. Milliseconds
        // span orders of magnitude across sweeps, so use a log axis.
        let chart = dibs_stats::LineChart::from_record(record, "value", true);
        let svg_path = self.out_dir.join(format!("{}.svg", record.id));
        if let Err(e) = std::fs::write(&svg_path, chart.render()) {
            eprintln!("warning: cannot write {}: {e}", svg_path.display());
        }
        // Cumulative simulation throughput for this process so far;
        // `repro_all` surfaces the final line per figure binary.
        if let Some(line) = timing::meter_summary() {
            println!("{line}");
        }
    }
}

/// The run options a figure binary takes from argv and the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Options {
    scale: Scale,
    master_seed: u64,
    trace: Option<String>,
}

/// Parses `--quick` / `--full` / `--default` / `--seed N` / `--trace SPEC`
/// from `args` over the `DIBS_SCALE` / `DIBS_SEED` / `DIBS_TRACE` values
/// that `env` returns (argv wins). Unknown arguments only warn, since
/// `repro_all` forwards its own flags to every binary.
fn parse_options(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Options, String> {
    let parse_seed = |v: &str, from: &str| {
        v.trim()
            .parse::<u64>()
            .map_err(|e| format!("{from} `{v}` is not a seed: {e}"))
    };
    let scale = match env("DIBS_SCALE") {
        Some(v) => Scale::parse(v.trim())
            .ok_or_else(|| format!("DIBS_SCALE `{v}` is not one of quick, default, full"))?,
        None => Scale::Default,
    };
    let master_seed = match env("DIBS_SEED") {
        Some(v) => parse_seed(&v, "DIBS_SEED")?,
        None => DEFAULT_MASTER_SEED,
    };
    let mut options = Options {
        scale,
        master_seed,
        trace: env("DIBS_TRACE"),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.scale = Scale::Quick,
            "--full" => options.scale = Scale::Full,
            "--default" => options.scale = Scale::Default,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                options.master_seed = parse_seed(v, "--seed")?;
            }
            "--trace" => options.trace = Some(args.next().ok_or("--trace needs a spec")?.clone()),
            other => eprintln!(
                "warning: unrecognized argument `{other}` \
                 (expected --quick/--full/--jobs N/--seed N/--trace SPEC)"
            ),
        }
    }
    Ok(options)
}

/// Builds `scenario` under `cfg` (see [`Scenario::build_with`]) and runs
/// it to completion.
///
/// # Panics
///
/// If the scenario does not build. Figure scenarios are fixed in code, so
/// that is a bug in the binary, not bad input.
pub fn run(scenario: &Scenario, cfg: SimConfig) -> RunResults {
    scenario
        .build_with(cfg)
        .unwrap_or_else(|e| panic!("figure scenario does not build: {e}"))
        .run()
}

/// Extracts the standard pair of paper metrics from a finished run:
/// `(qct_p99_ms, bg_short_fct_p99_ms)`.
pub fn headline_metrics(results: &mut RunResults) -> (f64, f64) {
    timing::note_run(results);
    let qct = results.qct_p99_ms().unwrap_or(f64::NAN);
    let fct = results.bg_fct_p99_ms().unwrap_or(f64::NAN);
    (qct, fct)
}

/// Builds a `SeriesPoint` from baseline and DIBS runs of the same workload.
pub fn baseline_vs_dibs_point(x: f64, base: &mut RunResults, dibs: &mut RunResults) -> SeriesPoint {
    let (qb, fb) = headline_metrics(base);
    let (qd, fd) = headline_metrics(dibs);
    SeriesPoint::at(x)
        .with("qct_p99_ms_dctcp", qb)
        .with("qct_p99_ms_dibs", qd)
        .with("bg_fct_p99_ms_dctcp", fb)
        .with("bg_fct_p99_ms_dibs", fd)
        .with("drops_dctcp", base.counters.total_drops() as f64)
        .with("drops_dibs", dibs.counters.total_drops() as f64)
        .with("detoured_frac_dibs", dibs.counters.detoured_fraction())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_windows_are_ordered() {
        assert!(Scale::Quick.duration_ms() < Scale::Default.duration_ms());
        assert!(Scale::Default.duration_ms() < Scale::Full.duration_ms());
        assert!(Scale::Quick.heavy_duration_ms() < Scale::Full.heavy_duration_ms());
    }

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        parse_options(&args, |name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn options_default_without_flags_or_environment() {
        let o = parse(&[], &[]).unwrap();
        assert_eq!(o.scale, Scale::Default);
        assert_eq!(o.master_seed, DEFAULT_MASTER_SEED);
        assert_eq!(o.trace, None);
    }

    #[test]
    fn argv_wins_over_the_environment() {
        let env = [
            ("DIBS_SCALE", "full"),
            ("DIBS_SEED", "9"),
            ("DIBS_TRACE", "all"),
        ];
        let o = parse(&[], &env).unwrap();
        assert_eq!((o.scale, o.master_seed), (Scale::Full, 9));
        assert_eq!(o.trace.as_deref(), Some("all"));
        let o = parse(&["--quick", "--seed", "4", "--trace", "detour"], &env).unwrap();
        assert_eq!((o.scale, o.master_seed), (Scale::Quick, 4));
        assert_eq!(o.trace.as_deref(), Some("detour"));
    }

    #[test]
    fn malformed_seed_or_scale_is_an_error() {
        for (args, env) in [
            (&["--seed", "x"][..], &[][..]),
            (&["--seed", "-1"][..], &[][..]),
            (&["--seed"][..], &[][..]),
            (&[][..], &[("DIBS_SEED", "x")][..]),
            (&["--seed", "3"][..], &[("DIBS_SEED", "0x10")][..]),
            (&[][..], &[("DIBS_SCALE", "huge")][..]),
            (&["--trace"][..], &[][..]),
        ] {
            assert!(parse(args, env).is_err(), "{args:?} {env:?}");
        }
    }

    #[test]
    fn unknown_arguments_only_warn() {
        assert_eq!(parse(&["--bogus"], &[]).unwrap(), parse(&[], &[]).unwrap());
    }
}

#[cfg(test)]
mod finish_tests {
    use super::*;
    use dibs_stats::{ExperimentRecord, SeriesPoint};

    #[test]
    fn finish_writes_json_and_svg() {
        let dir = std::env::temp_dir().join(format!("dibs-bench-test-{}", std::process::id()));
        let h = Harness {
            scale: Scale::Quick,
            out_dir: dir.clone(),
            jobs: 1,
            master_seed: DEFAULT_MASTER_SEED,
            trace: None,
        };
        let mut rec = ExperimentRecord::new("unit_test_record", "t", "x");
        rec.push(SeriesPoint::at(1.0).with("m", 2.0));
        h.finish(&rec);
        let json = dir.join("unit_test_record.json");
        let svg = dir.join("unit_test_record.svg");
        assert!(json.exists());
        assert!(svg.exists());
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
