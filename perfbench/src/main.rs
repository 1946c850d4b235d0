//! `perfbench`: the repository's end-to-end benchmark, with per-layer
//! attribution.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed_k8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` makes one fully traced run and attributes its run time to layers.
//! Every run passes the correctness gate. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and metrics.

mod gate;
mod measure;
mod replay;
mod workload;

use dibs_json::{Json, ObjBuilder};
use measure::Measured;
use std::process::ExitCode;
use workload::{Size, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        size: Size::Full,
    })
}

fn measure(args: &Args) -> Result<Measured, String> {
    if args.trace {
        measure::per_layer(args.workload, args.seed, args.size)
    } else {
        measure::end_to_end(args.workload, args.seed, args.seconds, args.size)
    }
}

/// The metric table of a mode: `(name, unit)` in `BENCHMARK.json` order.
fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &measure::PER_LAYER
    } else {
        &measure::END_TO_END
    }
}

/// Every metric of the mode's table with its measured value and unit.
fn metric_rows(m: &Measured, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    table(trace)
        .iter()
        .map(|&(name, unit)| {
            let value = m.values.iter().find(|v| v.0 == name).map(|v| v.1);
            (
                name,
                unit,
                value.expect("every metric in the table is measured"),
            )
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn result_line(m: &Measured, trace: bool) -> Json {
    let metrics = metric_rows(m, trace)
        .into_iter()
        .map(|(name, unit, value)| {
            let v = ObjBuilder::new()
                .field("value", value)
                .field("unit", unit)
                .build();
            (name.to_string(), v)
        })
        .collect();
    ObjBuilder::new()
        .field("correct", m.gate.failed == 0)
        .field("attempted", m.gate.attempted)
        .field("failed", m.gate.failed)
        .field("metrics", Json::Obj(metrics))
        .build()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let m = match measure(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for f in &m.gate.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for e in &m.replay_errors {
        eprintln!("perfbench: REPLAY ERROR {e}");
    }
    println!(
        "{}",
        ObjBuilder::new()
            .field("provenance", m.provenance.clone())
            .build()
            .render()
    );
    for (name, unit, value) in metric_rows(&m, args.trace) {
        println!("  {name:<26} {value:>18.6} {unit}");
    }
    if args.trace {
        let get = |n: &str| m.values.iter().find(|v| v.0 == n).map_or(0.0, |v| v.1);
        println!(
            "  layer shares sum to {:.4}; core.residual_share {:.4}",
            get("core.share_sum"),
            get("core.residual_share")
        );
    }
    println!("{}", result_line(&m, args.trace).render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = measure::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layer: Vec<(String, String)> = measure::PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        assert_eq!(names(&doc, "per_layer"), layer);
        for (name, _) in e2e.iter().chain(&layer) {
            assert!(valid_name(name), "bad metric name {name}");
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn parses_the_command_line() {
        let raw: Vec<String> = "--workload pfabric_k8 --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&raw).expect("parses");
        assert_eq!(
            a,
            Args {
                workload: Workload::PfabricK8,
                seed: 7,
                seconds: 10,
                trace: true,
                size: Size::Full,
            }
        );
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }

    /// Runs one workload at the tiny size in both modes and checks the
    /// result line: every named metric, finite, and a dibs-json round trip.
    fn tiny_round_trip(w: Workload) {
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed: 5,
                seconds: 1,
                trace,
                size: Size::Tiny,
            };
            let m = measure(&args).expect("tiny run");
            assert!(m.gate.failures.is_empty(), "{:?}", m.gate.failures);
            let line = result_line(&m, trace).render();
            let back = Json::parse(&line).expect("result line parses");
            assert_eq!(back.render(), line);
            assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
            assert!(back.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert_eq!(back.get("failed").and_then(Json::as_u64), Some(0));
            let table = table(trace);
            let metrics = back
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), table.len());
            for (&(name, unit), (key, v)) in table.iter().zip(metrics) {
                assert_eq!(name, key);
                assert_eq!(v.get("unit").and_then(Json::as_str), Some(unit));
                let value = v.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
            }
            let prov = ObjBuilder::new().field("provenance", m.provenance).build();
            assert!(Json::parse(&prov.render()).is_ok());
            if trace {
                let value = |name: &str| {
                    metrics
                        .iter()
                        .find(|(k, _)| k == name)
                        .and_then(|(_, v)| v.get("value").and_then(Json::as_f64))
                };
                let mut busy = vec!["engine.events", "routing.lookups", "switch.dequeues"];
                busy.extend(["transport.sends", "transport.acks", "trace.events"]);
                if w == Workload::FaultedK8 {
                    busy.push("fault.reroutes");
                }
                for name in busy {
                    assert!(value(name) > Some(0.0), "{name} is zero at the tiny size");
                }
            }
        }
    }

    #[test]
    fn tiny_testbed_incast() {
        tiny_round_trip(Workload::TestbedIncast);
    }

    #[test]
    fn tiny_mixed_k8() {
        tiny_round_trip(Workload::MixedK8);
    }

    #[test]
    fn tiny_pfabric_k8() {
        tiny_round_trip(Workload::PfabricK8);
    }

    #[test]
    fn tiny_faulted_k8() {
        tiny_round_trip(Workload::FaultedK8);
    }
}
