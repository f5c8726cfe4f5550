//! The per-layer latency budget of a traced run.
//!
//! Every operation contributes its end-to-end interval and the spans that
//! fell inside it: spans the program records (server, runtime, client and
//! kernel spans) and spans the benchmark records around its own calls.
//! Each instant of the interval is charged to the most specific span that
//! covers it; an instant no span covers is unattributed. A layer's self
//! time is the time charged to it.

use std::collections::HashMap;

use kfuse_obs::{ArgValue, Event, EventKind};

use crate::common::{metric, Metric};

/// The layers of the repository, as the budget reports them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own generator running behind its schedule.
    Loadgen,
    /// `kfuse-net`: codec, sockets, server reader and writer.
    Net,
    /// `kfuse-runtime`: admission, queue, plan cache, sessions.
    Runtime,
    /// `kfuse-core` with its model and graph crates: the fusion planner.
    Core,
    /// `kfuse-sim` lowering a fused pipeline to tapes.
    SimLower,
    /// `kfuse-sim` executing a plan.
    SimExec,
    /// `kfuse-stream` stepping a session.
    Stream,
}

pub const LAYERS: [(Layer, &str); 7] = [
    (Layer::Loadgen, "loadgen"),
    (Layer::Net, "net"),
    (Layer::Runtime, "runtime"),
    (Layer::Core, "core"),
    (Layer::SimLower, "sim.lower"),
    (Layer::SimExec, "sim.exec"),
    (Layer::Stream, "stream"),
];

fn slot(layer: Layer) -> usize {
    LAYERS
        .iter()
        .position(|(l, _)| *l == layer)
        .expect("every layer is listed")
}

/// One span on the common clock (µs since the tracer's epoch). Where
/// spans overlap, the one with the higher `depth` is charged.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub depth: u8,
    pub start: u64,
    pub end: u64,
}

/// Depths, outermost first: a client waits on the network, the network
/// hands to the runtime, the runtime plans and executes.
pub const DEPTH_LATE: u8 = 0;
pub const DEPTH_CLIENT: u8 = 1;
pub const DEPTH_SERVER_NET: u8 = 2;
pub const DEPTH_QUEUE: u8 = 3;
pub const DEPTH_PLAN: u8 = 4;
pub const DEPTH_PLAN_PART: u8 = 5;
pub const DEPTH_EXEC: u8 = 6;
pub const DEPTH_KERNEL: u8 = 7;

/// Self time per layer, summed over operations.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    pub ops: u64,
    pub e2e_us: f64,
    pub self_us: [f64; LAYERS.len()],
    pub unattributed_us: f64,
    /// Modeled bytes and time of the `kernel:*` spans seen.
    pub kernel_bytes: u64,
    pub kernel_us: u64,
}

impl Budget {
    /// Charges the interval `[start, end)` of one operation.
    pub fn add(&mut self, start: u64, end: u64, spans: &[Span]) {
        if end <= start {
            return;
        }
        self.ops += 1;
        self.e2e_us += (end - start) as f64;
        let mut cuts: Vec<u64> = vec![start, end];
        for s in spans {
            for t in [s.start, s.end] {
                if t > start && t < end {
                    cuts.push(t);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let owner = spans
                .iter()
                .filter(|s| s.start <= a && s.end >= b && s.end > s.start)
                .max_by_key(|s| s.depth);
            let d = (b - a) as f64;
            match owner {
                Some(s) => self.self_us[slot(s.layer)] += d,
                None => self.unattributed_us += d,
            }
        }
    }

    pub fn share_pct(&self, layer: Layer) -> f64 {
        if self.e2e_us == 0.0 {
            0.0
        } else {
            100.0 * self.self_us[slot(layer)] / self.e2e_us
        }
    }

    pub fn unattributed_pct(&self) -> f64 {
        if self.e2e_us == 0.0 {
            0.0
        } else {
            100.0 * self.unattributed_us / self.e2e_us
        }
    }

    /// `<layer>.self_us` (mean per operation) and `<layer>.share_pct` for
    /// every layer, plus `obs.unattributed_pct`.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_op = |us: f64| {
            if self.ops == 0 {
                0.0
            } else {
                us / self.ops as f64
            }
        };
        let mut out = Vec::new();
        for (layer, name) in LAYERS {
            out.push(metric(
                format!("{name}.self_us"),
                per_op(self.self_us[slot(layer)]),
                "us",
            ));
            out.push(metric(
                format!("{name}.share_pct"),
                self.share_pct(layer),
                "%",
            ));
        }
        out.push(metric("obs.unattributed_pct", self.unattributed_pct(), "%"));
        out
    }
}

/// Complete spans grouped by trace id; events outside any request
/// (trace id 0) are dropped.
pub fn by_trace(events: Vec<Event>) -> HashMap<u64, Vec<Event>> {
    let mut map: HashMap<u64, Vec<Event>> = HashMap::new();
    for e in events {
        if e.trace_id != 0 && matches!(e.kind, EventKind::Complete { .. }) {
            map.entry(e.trace_id).or_default().push(e);
        }
    }
    map
}

pub fn duration_us(e: &Event) -> u64 {
    match e.kind {
        EventKind::Complete { dur_us } => dur_us,
        _ => 0,
    }
}

pub fn arg_str<'a>(e: &'a Event, key: &str) -> Option<&'a str> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

pub fn arg_u64(e: &Event, key: &str) -> u64 {
    e.args
        .iter()
        .find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

/// Bytes a kernel span's modeled traffic moves to and from memory.
pub fn kernel_bytes(e: &Event) -> u64 {
    [
        "global_load_bytes",
        "global_store_bytes",
        "plane_write_bytes",
        "plane_read_bytes",
    ]
    .iter()
    .map(|k| arg_u64(e, k))
    .sum()
}

/// Maps the program's spans of one operation to budget spans. For a
/// plan-cache miss, `plan_parts` gives the pipeline's measured planner and
/// lowering time: the miss is charged to core and lowering by those and
/// the rest of the plan span to the runtime.
pub fn program_spans(
    events: &[Event],
    plan_parts: &dyn Fn(&str) -> (u64, u64),
    request_decode_us: u64,
    out: &mut Vec<Span>,
) {
    // Before the server starts writing the reply there is nothing to
    // receive: a client blocked in its receive call until then is waiting,
    // and its span counts only from that point.
    let reply_from = events
        .iter()
        .find(|e| e.name == "encode_write")
        .map_or(0, |e| e.ts_us);
    for e in events {
        let (mut start, end) = (e.ts_us, e.ts_us + duration_us(e));
        if e.name == "client_recv" {
            start = start.max(reply_from).min(end);
        }
        let span = |layer, depth| Span {
            layer,
            depth,
            start,
            end,
        };
        match e.name.as_str() {
            "client_send" | "client_recv" => out.push(span(Layer::Net, DEPTH_CLIENT)),
            "submit" | "submit_frame" => {
                // The server's span opens after the frame is decoded;
                // decoding is charged at the codec's measured time for
                // the request, just before it.
                out.push(Span {
                    layer: Layer::Net,
                    depth: DEPTH_SERVER_NET,
                    start: start.saturating_sub(request_decode_us),
                    end,
                });
            }
            "encode_write" => out.push(span(Layer::Net, DEPTH_SERVER_NET)),
            "queue_wait" | "frame_wait" => out.push(span(Layer::Runtime, DEPTH_QUEUE)),
            "plan" => {
                out.push(span(Layer::Runtime, DEPTH_PLAN));
                if arg_str(e, "cache") == Some("miss") {
                    let (core, lower) = plan_parts(arg_str(e, "pipeline").unwrap_or(""));
                    let core_end = (start + core).min(end);
                    let lower_end = (core_end + lower).min(end);
                    out.push(Span {
                        layer: Layer::Core,
                        depth: DEPTH_PLAN_PART,
                        start,
                        end: core_end,
                    });
                    out.push(Span {
                        layer: Layer::SimLower,
                        depth: DEPTH_PLAN_PART,
                        start: core_end,
                        end: lower_end,
                    });
                }
            }
            "execute" => out.push(span(Layer::SimExec, DEPTH_EXEC)),
            "frame_execute" => out.push(span(Layer::Stream, DEPTH_EXEC)),
            n if n.starts_with("kernel:") => out.push(span(Layer::SimExec, DEPTH_KERNEL)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepest_span_owns_each_instant() {
        let mut b = Budget::default();
        let spans = [
            Span {
                layer: Layer::Net,
                depth: DEPTH_CLIENT,
                start: 0,
                end: 40,
            },
            Span {
                layer: Layer::SimExec,
                depth: DEPTH_EXEC,
                start: 10,
                end: 30,
            },
        ];
        b.add(0, 50, &spans);
        assert_eq!(b.self_us[slot(Layer::Net)], 20.0);
        assert_eq!(b.self_us[slot(Layer::SimExec)], 20.0);
        assert_eq!(b.unattributed_us, 10.0);
        assert_eq!(b.unattributed_pct(), 20.0);
    }
}
