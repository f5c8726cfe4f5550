//! The repository's benchmark: four workloads through the public serving,
//! executor and streaming paths of `kfuse`.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload serve-warm --seed 1 --seconds 20 --trace 0 [--out result.json]
//! ```
//!
//! With `--trace 0` the run measures with tracing off and reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics of
//! a traced run. Every reply is checked against the reference interpreter.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--out` additionally writes that result, with its provenance, to a file.

mod budget;
mod common;
mod exec;
mod layers;
mod serve;
mod stream;

use std::process::ExitCode;

use common::{json_num, Metric, Outcome};

/// Every end-to-end metric with its unit; each workload reports all of
/// them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("sustained_req_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("mpix_per_s", "Mpix/s"),
    ("peak_rss_mb", "MiB"),
];

pub const WORKLOADS: &[&str] = &["serve-warm", "serve-cold", "exec-2048", "stream-512"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        out,
    })
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match workload {
        "serve-warm" => serve::run(&serve::Params::full(serve::Mix::Warm, seconds), seed, trace),
        "serve-cold" => serve::run(&serve::Params::full(serve::Mix::Cold, seconds), seed, trace),
        "exec-2048" => exec::run(&exec::Params::full(seconds), seed, trace),
        "stream-512" => stream::run(&stream::Params::full(seconds), seed, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The metrics a run must report, by name and unit.
fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        layers::PER_LAYER
    } else {
        END_TO_END
    }
}

fn check_metrics(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let want = expected(trace);
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    if got != want {
        return Err(format!("metrics reported {got:?}, expected {want:?}"));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not a finite number", m.name)),
        None => Ok(()),
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.mismatched == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            eprintln!(
                "usage: repobench --workload <{}> --seed N --seconds N --trace 0|1 [--out PATH]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args.workload, args.seed, args.seconds as f64, args.trace)
        .and_then(|o| check_metrics(&o.metrics, args.trace).map(|()| o));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repobench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let provenance = common::provenance_json(&args.workload, args.seed, args.seconds, args.trace);
    println!("provenance: {provenance}");
    for m in &outcome.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>16.6} ratio ({} of {} operations failed)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    let result = result_json(&outcome);
    if let Some(path) = &args.out {
        let full = format!(
            "{{\"provenance\": {provenance}, \"error_rate\": {}, \"result\": {result}}}\n",
            json_num(outcome.error_rate())
        );
        if let Err(e) = std::fs::write(path, full) {
            eprintln!("repobench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    //! Smoke-scale runs of every workload. Run with `cargo test --release`:
    //! the reference interpreter is slow without optimization.

    use super::*;
    use kfuse_obs::{parse_json, Json};

    fn smoke(workload: &str, trace: bool, corrupt: bool) -> Outcome {
        let seconds = 1.0;
        let outcome = match workload {
            "serve-warm" | "serve-cold" => {
                let mix = if workload == "serve-warm" {
                    serve::Mix::Warm
                } else {
                    serve::Mix::Cold
                };
                let mut p = serve::Params::full(mix, seconds);
                p.edge_div = 2;
                p.sizes_per_app = 8;
                p.ladder = vec![100.0, 200.0];
                p.reference_rate = 100.0;
                p.setup_reps = 2;
                p.corrupt = corrupt;
                serve::run(&p, 7, trace)
            }
            "exec-2048" => {
                let mut p = exec::Params::full(seconds);
                p.edge_div = 16;
                p.setup_reps = 2;
                p.corrupt = corrupt;
                exec::run(&p, 7, trace)
            }
            "stream-512" => {
                let mut p = stream::Params::full(seconds);
                p.edge = 64;
                p.clip = 6;
                p.setup_reps = 2;
                p.corrupt = corrupt;
                stream::run(&p, 7, trace)
            }
            other => panic!("unknown workload {other}"),
        };
        let outcome = outcome.unwrap_or_else(|e| panic!("{workload}: {e}"));
        check_metrics(&outcome.metrics, trace).unwrap();
        outcome
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn every_declared_metric_is_reported_with_its_unit() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert!(names.len() >= 2 && names.iter().all(|n| WORKLOADS.contains(n)));
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let want: Vec<(String, String)> = expected(trace)
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&doc, key), want, "{key}");
        }
        for w in WORKLOADS {
            for trace in [false, true] {
                let o = smoke(w, trace, false);
                assert!(o.attempted > 0, "{w}");
                assert_eq!(o.failed, 0, "{w} trace {trace}");
                assert_eq!(o.mismatched, 0, "{w}");
                let json = parse_json(&result_json(&o)).unwrap();
                for (name, unit) in expected(trace) {
                    let m = json.get("metrics").and_then(|m| m.get(name)).unwrap();
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                    assert!(m.get("value").and_then(Json::as_num).is_some());
                }
            }
        }
    }

    #[test]
    fn a_corrupted_reply_counts_as_a_failure() {
        for w in WORKLOADS {
            let o = smoke(w, false, true);
            assert!(o.mismatched > 0, "{w}");
            assert_eq!(o.failed, o.attempted, "{w}: every reply was corrupted");
            assert!(result_json(&o).starts_with("{\"correct\": false"));
        }
    }

    #[test]
    fn the_traced_run_accounts_for_client_observed_time() {
        let o = smoke("serve-warm", true, false);
        let get = |n: &str| o.metrics.iter().find(|m| m.name == n).unwrap().value;
        let unattributed = get("obs.unattributed_pct");
        assert!((0.0..100.0).contains(&unattributed));
        let shares: f64 = budget::LAYERS
            .iter()
            .map(|(_, name)| get(&format!("{name}.share_pct")))
            .sum();
        assert!((shares + unattributed - 100.0).abs() < 1e-6);
        assert!(get("sim.exec.share_pct") > 0.0);
    }
}
