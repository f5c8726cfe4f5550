//! Observability-overhead benchmark: the always-on flight recorder must
//! be cheap enough to leave on in production.
//!
//! Two identical runtimes serve the same traced load — one with a
//! [`kfuse_obs::FlightRecorder`] installed (every request gets a private
//! span buffer, outcome classification, and ring retention), one without.
//! Both receive requests through the same `Runtime::submit` path with
//! client-style trace ids, so the *only* delta is the recorder itself.
//!
//! Trials run in off/on pairs so clock drift and thermal throttling hit
//! both configurations equally; the reported overhead is the median of
//! the per-pair throughput ratios, which cancels ambient machine noise a
//! trial-aggregate comparison would conflate with recorder cost. The run
//! fails (non-zero exit) if the recorder costs 5% or more of median
//! throughput — the budget the serving plane's "always-on" claim is
//! priced against.
//!
//! Writes machine-readable results to `BENCH_obs.json` in the current
//! directory. Run with `cargo run --release -p kfuse-bench --bin bench_obs`.
//! Set `KFUSE_BENCH_SCALE=<div>` to shrink frames for a CI smoke run.

use std::sync::Arc;
use std::time::Instant;

use kfuse_apps::paper_apps;
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_obs::FlightRecorder;
use kfuse_runtime::{Admission, Request, Runtime, RuntimeConfig};
use kfuse_sim::synthetic_image;

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

/// One trial: `requests` traced submissions, all in flight, drained by
/// the worker pool. Returns requests per second.
fn run_trial(
    rt: &Runtime,
    name: &str,
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
    requests: usize,
    trace_base: u64,
) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..requests)
        .map(|i| {
            // Client-style nonzero trace ids so the recorder (when
            // present) runs its full begin/finish path per request.
            let trace_id = trace_base + i as u64;
            rt.submit(
                name,
                p,
                Request {
                    trace_id,
                    span_id: 1,
                    ..Request::new(inputs.to_vec(), Schedule::Optimized)
                },
            )
            .expect("submit")
        })
        .collect();
    for h in handles {
        h.wait().expect("request executes");
    }
    requests as f64 / start.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let scale: usize = std::env::var("KFUSE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let requests = 512;
    let trials = 11;

    let cfg = |recorder: Option<Arc<FlightRecorder>>| RuntimeConfig {
        workers,
        queue_capacity: 256,
        admission: Admission::Block,
        recorder,
        ..RuntimeConfig::default()
    };
    let off = Runtime::new(cfg(None));
    let on = Runtime::new(cfg(Some(Arc::new(FlightRecorder::default()))));

    // Serving-sized frames of the first paper app (same regime as
    // bench_serve: small latency-sensitive requests, where fixed
    // per-request costs are at their most visible).
    let app = &paper_apps()[0];
    let (w, h) = ((64 / scale).max(8), (64 / scale).max(8));
    let p = (app.build_sized)(w, h);
    let inputs = inputs_for(&p, 42);

    // Warm both plan caches so trials measure the steady state.
    off.execute(app.name, &p, inputs.clone(), Schedule::Optimized)
        .expect("warm-up executes");
    on.execute(app.name, &p, inputs.clone(), Schedule::Optimized)
        .expect("warm-up executes");

    let mut off_rps = Vec::with_capacity(trials);
    let mut on_rps = Vec::with_capacity(trials);
    for t in 0..trials {
        let base = 1 + (t as u64) * (requests as u64) * 2;
        off_rps.push(run_trial(&off, app.name, &p, &inputs, requests, base));
        on_rps.push(run_trial(
            &on,
            app.name,
            &p,
            &inputs,
            requests,
            base + requests as u64,
        ));
    }
    // Each off/on pair ran back to back under the same ambient load, so
    // the per-pair throughput ratio cancels machine-level drift; the
    // median across pairs then discards trials an outside burst hit
    // mid-pair. Far stabler than comparing aggregate medians.
    let mut overheads: Vec<f64> = off_rps
        .iter()
        .zip(&on_rps)
        .map(|(off, on)| (off - on) / off * 100.0)
        .collect();
    let overhead_pct = median(&mut overheads);
    let off_med = median(&mut off_rps);
    let on_med = median(&mut on_rps);

    let recorder = on.recorder().expect("recorder installed");
    let stats = recorder.stats();
    let off_snap = off.metrics();
    let on_snap = on.metrics();
    let p50 = |s: &kfuse_runtime::MetricsSnapshot| s.pipelines.first().map_or(0, |m| m.p50_us);
    let p99 = |s: &kfuse_runtime::MetricsSnapshot| s.pipelines.first().map_or(0, |m| m.p99_us);

    println!(
        "{:<14} {:>12} {:>9} {:>9}",
        "config", "median req/s", "p50 µs", "p99 µs"
    );
    println!(
        "{:<14} {:>12.0} {:>9} {:>9}",
        "recorder off",
        off_med,
        p50(&off_snap),
        p99(&off_snap)
    );
    println!(
        "{:<14} {:>12.0} {:>9} {:>9}",
        "recorder on",
        on_med,
        p50(&on_snap),
        p99(&on_snap)
    );
    println!(
        "\nrecorder overhead: {overhead_pct:.2}% of median throughput \
         ({} requests recorded, {} retained)",
        stats.finished,
        stats.retained_recent + stats.retained_interesting
    );

    let pass = overhead_pct < 5.0;
    let json = format!(
        "{{\n  \"benchmark\": \"flight recorder overhead (on vs off)\",\n  \
         \"scale_divisor\": {scale},\n  \"workers\": {workers},\n  \
         \"requests_per_trial\": {requests},\n  \"trials\": {trials},\n  \
         \"frame\": \"{w}x{h}\",\n  \"app\": \"{}\",\n  \
         \"recorder_off_req_s\": {off_med:.3},\n  \
         \"recorder_on_req_s\": {on_med:.3},\n  \
         \"recorder_off_p50_us\": {},\n  \"recorder_on_p50_us\": {},\n  \
         \"recorder_off_p99_us\": {},\n  \"recorder_on_p99_us\": {},\n  \
         \"requests_recorded\": {},\n  \
         \"overhead_p50_pct\": {overhead_pct:.3},\n  \
         \"threshold_pct\": 5.0,\n  \"pass\": {pass}\n}}\n",
        app.name,
        p50(&off_snap),
        p50(&on_snap),
        p99(&off_snap),
        p99(&on_snap),
        stats.finished,
    );
    let path = "BENCH_obs.json";
    std::fs::write(path, json).expect("write BENCH_obs.json");
    println!("wrote {path}");

    if !pass {
        eprintln!("bench_obs FAILED: recorder overhead {overhead_pct:.2}% >= 5%");
        std::process::exit(1);
    }
}
