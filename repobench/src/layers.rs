//! The per-layer metrics of a traced run, and the timed calls into each
//! layer's public functions that some of them come from.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use kfuse_dsl::{compile, default_config, Schedule};
use kfuse_ir::Pipeline;
use kfuse_model::GpuSpec;
use kfuse_net::wire::{decode_frame, encode_frame};
use kfuse_net::{Frame, Limits};
use kfuse_sim::CompiledPlan;

use crate::budget::Budget;
use crate::common::{self, Metric, Outcome};

/// Every per-layer metric with its unit. A workload that does not pass
/// through a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.codec_mb_per_s", "MB/s"),
    ("net.bytes_per_op", "B"),
    ("net.client_send_us", "us"),
    ("net.client_recv_us", "us"),
    ("net.server_ingress_us", "us"),
    ("net.encode_write_us", "us"),
    ("runtime.queue_wait_p50_us", "us"),
    ("runtime.queue_wait_p99_us", "us"),
    ("runtime.plan_hit_us", "us"),
    ("runtime.plan_miss_us", "us"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_evictions", "count"),
    ("runtime.queue_depth_hwm", "count"),
    ("runtime.shed", "count"),
    ("runtime.rejected", "count"),
    ("core.plan_us", "us"),
    ("core.kernels_before", "count"),
    ("core.kernels_after", "count"),
    ("sim.lower_us", "us"),
    ("sim.execute_us", "us"),
    ("sim.Harris.mpix_per_s", "Mpix/s"),
    ("sim.Sobel.mpix_per_s", "Mpix/s"),
    ("sim.Unsharp.mpix_per_s", "Mpix/s"),
    ("sim.ShiTomasi.mpix_per_s", "Mpix/s"),
    ("sim.Enhance.mpix_per_s", "Mpix/s"),
    ("sim.Night.mpix_per_s", "Mpix/s"),
    ("sim.achieved_gb_per_s", "GB/s"),
    ("sim.copy_gb_per_s", "GB/s"),
    ("stream.step_us", "us"),
    ("loadgen.self_us", "us"),
    ("loadgen.share_pct", "%"),
    ("net.self_us", "us"),
    ("net.share_pct", "%"),
    ("runtime.self_us", "us"),
    ("runtime.share_pct", "%"),
    ("core.self_us", "us"),
    ("core.share_pct", "%"),
    ("sim.lower.self_us", "us"),
    ("sim.lower.share_pct", "%"),
    ("sim.exec.self_us", "us"),
    ("sim.exec.share_pct", "%"),
    ("stream.self_us", "us"),
    ("stream.share_pct", "%"),
    ("obs.unattributed_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog", "count"),
    ("error_rate", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// Per-layer values of one traced run, each starting at 0.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let key = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(key, value);
    }

    /// Adds the budget, the host's copy ceiling and the error rate, and
    /// lists every metric in [`PER_LAYER`] order.
    pub fn finish(mut self, budget: &Budget, outcome: &Outcome) -> Vec<Metric> {
        for m in budget.metrics() {
            self.set(&m.name, m.value);
        }
        self.set("sim.copy_gb_per_s", copy_gb_per_s());
        self.set("error_rate", outcome.error_rate());
        PER_LAYER
            .iter()
            .map(|(n, _)| common::metric(*n, self.0[n], unit_of(n)))
            .collect()
    }
}

/// Median time of `f` over a few calls, in µs.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || (samples.len() < 50 && started.elapsed().as_millis() < 5) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    common::median(&samples)
}

/// `(encode µs, decode µs, bytes)` of one frame through the wire codec.
pub fn codec_us(frame: &Frame, limits: &Limits) -> (f64, f64, f64) {
    let bytes = encode_frame(frame);
    let enc = time_us(|| {
        black_box(encode_frame(black_box(frame)));
    });
    let dec = time_us(|| {
        black_box(decode_frame(black_box(&bytes), limits).expect("encoded frames decode"));
    });
    (enc, dec, bytes.len() as f64)
}

/// `(planning µs, lowering µs)` of one pipeline under the Optimized
/// schedule, with the configuration the runtime's default policy uses.
pub fn plan_and_lower_us(p: &Pipeline) -> (f64, f64) {
    let cfg = default_config(GpuSpec::gtx680());
    let fused = compile(p, Schedule::Optimized, &cfg);
    let plan = time_us(|| {
        black_box(compile(black_box(p), Schedule::Optimized, &cfg));
    });
    let lower = time_us(|| {
        black_box(CompiledPlan::compile(black_box(&fused)).expect("fused pipelines lower"));
    });
    (plan, lower)
}

/// Kernels before and after Optimized fusion, summed over `pipelines`.
pub fn kernel_counts(pipelines: &[&Pipeline]) -> (f64, f64) {
    let cfg = default_config(GpuSpec::gtx680());
    pipelines.iter().fold((0.0, 0.0), |(b, a), p| {
        let fused = compile(p, Schedule::Optimized, &cfg);
        (
            b + p.kernels().len() as f64,
            a + fused.kernels().len() as f64,
        )
    })
}

/// The host's copy bandwidth (bytes read plus bytes written per second),
/// the ceiling an executor's achieved bandwidth is set against.
pub fn copy_gb_per_s() -> f64 {
    const LEN: usize = 32 << 20;
    let src = vec![1u8; LEN];
    let mut dst = vec![0u8; LEN];
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * LEN as f64 / best / 1e9
}
