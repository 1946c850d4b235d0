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

use dibs::presets::MixedWorkload;
use dibs::RunResults;
use dibs_engine::time::SimDuration;
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
    /// Traffic generation window for mixed workloads.
    pub fn duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(120),
            Scale::Default => SimDuration::from_millis(400),
            Scale::Full => SimDuration::from_millis(1000),
        }
    }

    /// Drain time appended after the generation window.
    pub fn drain(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(300),
            Scale::Default => SimDuration::from_millis(600),
            Scale::Full => SimDuration::from_millis(1000),
        }
    }

    /// A short window for the very heavy experiments (10 ms background
    /// inter-arrival, extreme qps).
    pub fn heavy_duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(80),
            Scale::Default => SimDuration::from_millis(200),
            Scale::Full => SimDuration::from_millis(500),
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
    /// environment variables (argv wins).
    pub fn from_env() -> Self {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let jobs = dibs_harness::take_jobs_flag(&mut args)
            .or_else(dibs_harness::env_jobs)
            .unwrap_or_else(dibs_harness::default_jobs);

        let mut scale = match std::env::var("DIBS_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Default,
        };
        let mut master_seed = std::env::var("DIBS_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_MASTER_SEED);
        let mut trace = std::env::var("DIBS_TRACE").ok();

        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => scale = Scale::Quick,
                "--full" => scale = Scale::Full,
                "--default" => scale = Scale::Default,
                "--seed" if i + 1 < args.len() => {
                    if let Ok(s) = args[i + 1].parse::<u64>() {
                        master_seed = s;
                    }
                    i += 1;
                }
                "--trace" if i + 1 < args.len() => {
                    trace = Some(args[i + 1].clone());
                    i += 1;
                }
                other => {
                    eprintln!(
                        "warning: unrecognized argument `{other}` \
                         (expected --quick/--full/--jobs N/--seed N/--trace SPEC)"
                    );
                }
            }
            i += 1;
        }
        let out_dir = std::env::var("DIBS_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        timing::meter_start();
        Harness {
            scale,
            out_dir,
            jobs,
            master_seed,
            trace,
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

    /// The mixed-workload defaults at this scale (Table 2 bold values).
    pub fn workload(&self) -> MixedWorkload {
        MixedWorkload {
            duration: self.scale.duration(),
            drain: self.scale.drain(),
            ..MixedWorkload::paper_default()
        }
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
        assert!(Scale::Quick.duration() < Scale::Default.duration());
        assert!(Scale::Default.duration() < Scale::Full.duration());
        assert!(Scale::Quick.heavy_duration() < Scale::Full.heavy_duration());
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
