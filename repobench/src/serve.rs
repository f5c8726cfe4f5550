//! `serve-warm` and `serve-cold`: open-loop Poisson arrivals over
//! `kfuse-net` against an in-process [`Server`].
//!
//! Independent clients make an open loop: requests go out on a seeded
//! schedule whether or not earlier ones have come back, so a slow server
//! builds a queue instead of receiving less load. Each request is timed
//! from when it was *due*, so a generator stall is charged to the requests
//! it delayed. One connection carries the load, with one writer and one
//! reader thread.
//!
//! The six paper apps are mixed uniformly. `serve-warm` registers each app
//! once at 64² (Night 60×37), so after the first request every request
//! hits the plan cache. `serve-cold` registers many distinct frame sizes
//! of each app up front, more plans than the runtime's cache holds, so most
//! requests plan and lower afresh.
//!
//! Neither is listed in `BENCHMARK.json`: on a 2-CPU virtual machine their
//! latency and sustained rate moved between runs by 30% and more, with the
//! host's wake-up latency, which is beyond the largest bound a benchmark
//! metric may have there.

use std::collections::{BTreeSet, HashMap};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kfuse_apps::paper_apps;
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_net::wire::{
    checksum, decode_payload, encode_frame, parse_header, TraceContext, HEADER_LEN,
};
use kfuse_net::{Client, Frame, Limits, Priority, Server};
use kfuse_obs::Tracer;
use kfuse_sim::{execute_reference, synthetic_image};

use crate::budget::{self, Budget, Layer, Span, DEPTH_CLIENT, DEPTH_LATE};
use crate::common::{self, metric, Checker, Metric, Outcome, Rng};
use crate::layers;

/// The p99 latency a rate must meet to count as sustained: one frame at
/// 30 frames per second.
pub const LATENCY_LIMIT_MS: f64 = 33.0;

/// Offered rates (requests per second), fixed so that every build is
/// offered the same load. The steps are closest where the two mixes reach
/// their limits on the reference host (a 2-CPU VM).
pub const LADDER: [f64; 11] = [
    500.0, 650.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0, 2300.0, 2600.0,
];

/// The rate latency is reported at: a ladder rate near half of what each
/// mix sustains on the reference host.
pub fn reference_rate(mix: Mix) -> f64 {
    match mix {
        Mix::Warm => 1000.0,
        Mix::Cold => 500.0,
    }
}

/// Times the ladder is walked. A rate counts as sustained if one walk
/// sustained it, so a stall of the host during one walk does not lower
/// the result.
const LADDER_WALKS: usize = 2;

/// The server stops reading a connection with this many requests
/// unanswered (`ServerConfig::max_in_flight`).
const IN_FLIGHT_GATE: usize = 32;

/// A rate was not offered open-loop when more than this share of its
/// requests went out a latency limit late, or found the in-flight gate
/// reached. The share matches the p99 the latency limit applies to.
const OPEN_LOOP_TOLERANCE: f64 = 0.01;

/// Requests per ladder step, per second of `--seconds`: 1000 in a 25 s
/// run, so that a step's p99 has ten samples beyond it.
const STEP_SAMPLES_PER_SECOND: f64 = 40.0;

/// Requests at the reference rate, per second of `--seconds`.
const REFERENCE_SAMPLES_PER_SECOND: f64 = 160.0;

/// Windows the reference rate is measured in.
const REFERENCE_WINDOWS: usize = 8;

/// Which traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Warm,
    Cold,
}

/// Sizes and durations of one run.
#[derive(Clone, Debug)]
pub struct Params {
    pub mix: Mix,
    /// Frame edges are the serving sizes divided by this.
    pub edge_div: usize,
    /// Distinct frame sizes per app (`serve-cold`).
    pub sizes_per_app: usize,
    /// Distinct input frames per registered pipeline.
    pub variants: usize,
    pub ladder: Vec<f64>,
    pub reference_rate: f64,
    pub seconds: f64,
    pub setup_reps: usize,
    pub corrupt: bool,
}

impl Params {
    pub fn full(mix: Mix, seconds: f64) -> Self {
        Params {
            mix,
            edge_div: 1,
            sizes_per_app: 36,
            variants: if mix == Mix::Warm { 4 } else { 1 },
            ladder: LADDER.to_vec(),
            reference_rate: reference_rate(mix),
            seconds,
            setup_reps: 9,
            corrupt: false,
        }
    }
}

/// One registered pipeline with its inputs and the oracle's outputs.
struct Target {
    name: String,
    app: &'static str,
    pipeline: Pipeline,
    pixels: f64,
    inputs: Vec<Vec<(ImageId, Image)>>,
    expected: Vec<Vec<(ImageId, Image)>>,
}

fn serving_size(app: &str, div: usize) -> (usize, usize) {
    let (w, h) = if app == "Night" { (60, 37) } else { (64, 64) };
    ((w / div).max(8), (h / div).max(8))
}

fn targets(p: &Params, seed: u64) -> Vec<Target> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    for app in paper_apps() {
        let (bw, bh) = serving_size(app.name, p.edge_div);
        let sizes: Vec<(usize, usize)> = match p.mix {
            Mix::Warm => vec![(bw, bh)],
            Mix::Cold => {
                let mut set = BTreeSet::new();
                while set.len() < p.sizes_per_app {
                    let w = bw * 3 / 4 + rng.below(bw / 2 + 1);
                    let h = bh * 3 / 4 + rng.below(bh / 2 + 1);
                    set.insert((w, h));
                }
                set.into_iter().collect()
            }
        };
        for (w, h) in sizes {
            let pipeline = (app.build_sized)(w, h);
            let inputs = (0..p.variants)
                .map(|_| {
                    let s = rng.next_u64();
                    pipeline
                        .inputs()
                        .iter()
                        .map(|&id| (id, synthetic_image(pipeline.image(id).clone(), s)))
                        .collect()
                })
                .collect();
            out.push(Target {
                name: format!("{}-{w}x{h}", app.name),
                app: app.name,
                pixels: (w * h) as f64,
                pipeline,
                inputs,
                expected: Vec::new(),
            });
        }
    }
    out
}

/// Fills every target's expected outputs from the reference interpreter.
fn oracle(t: &mut Target) -> Result<(), String> {
    for inputs in &t.inputs {
        let exec = execute_reference(&t.pipeline, inputs)
            .map_err(|e| format!("reference {}: {e}", t.name))?;
        let outs = t
            .pipeline
            .outputs()
            .iter()
            .map(|&id| (id, exec.expect_image(id).clone()))
            .collect();
        t.expected.push(outs);
    }
    Ok(())
}

/// Binds a server, connects and registers every target: the set-up a
/// serving deployment pays before its first request.
fn set_up(targets: &[Target], tracer: &Tracer) -> Result<(Server, Duration), String> {
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", common::server_config(tracer))
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for t in targets {
        client
            .register(&t.name, &t.pipeline)
            .map_err(|e| format!("register {}: {e}", t.name))?;
    }
    Ok((server, t0.elapsed()))
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
struct Req {
    due_us: u64,
    target: usize,
    variant: usize,
}

fn schedule(rng: &mut Rng, rate: f64, seconds: f64, targets: usize, variants: usize) -> Vec<Req> {
    let mut out = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < seconds {
        out.push(Req {
            due_us: (t * 1e6) as u64,
            target: rng.below(targets),
            variant: rng.below(variants),
        });
        t += rng.exp_gap(rate);
    }
    out
}

/// What one rate step measured.
#[derive(Debug, Default)]
struct Step {
    seconds: f64,
    attempted: u64,
    failed: u64,
    ok_pixels: f64,
    /// `(due µs, latency ms)` of every request answered correctly.
    latencies_ms: Vec<(u64, f64)>,
    late_ms: Vec<f64>,
    /// Requests still unanswered one latency limit after the last was due.
    backlog: u64,
    /// Requests sent while the in-flight gate was reached.
    gated: u64,
    writer_failed: bool,
    /// Per request, on the tracer's clock: due, sent, written, reply
    /// header arrived, reply decoded (0 when it never came).
    times: Vec<[u64; 5]>,
}

impl Step {
    fn sorted_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.latencies_ms.iter().map(|l| l.1).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn p50_ms(&self) -> f64 {
        common::quantile(&self.sorted_latencies(), 0.5)
    }

    /// The windows of one rate taken together.
    fn pooled(windows: &[Step]) -> Step {
        let mut all = Step::default();
        for w in windows {
            all.seconds += w.seconds;
            all.attempted += w.attempted;
            all.failed += w.failed;
            all.ok_pixels += w.ok_pixels;
            all.latencies_ms.extend_from_slice(&w.latencies_ms);
            all.late_ms.extend_from_slice(&w.late_ms);
            all.backlog += w.backlog;
            all.gated += w.gated;
            all.writer_failed |= w.writer_failed;
        }
        all
    }

    fn p99_ms(&self) -> f64 {
        common::quantile(&self.sorted_latencies(), 0.99)
    }

    fn late_p99_ms(&self) -> f64 {
        let mut v = self.late_ms.clone();
        v.sort_by(f64::total_cmp);
        common::quantile(&v, 0.99)
    }

    /// The generator kept its schedule: at most one request in a hundred
    /// went out a latency limit late or with the in-flight gate reached.
    fn open_loop_held(&self) -> bool {
        let n = self.late_ms.len().max(1) as f64;
        let late = self
            .late_ms
            .iter()
            .filter(|&&l| l > LATENCY_LIMIT_MS)
            .count() as f64;
        !self.writer_failed
            && late / n <= OPEN_LOOP_TOLERANCE
            && self.gated as f64 / n <= OPEN_LOOP_TOLERANCE
    }

    fn sustained(&self) -> bool {
        self.failed == 0
            && self.backlog == 0
            && self.open_loop_held()
            && self.p99_ms() <= LATENCY_LIMIT_MS
    }
}

fn trace_id(step: usize, i: usize) -> u64 {
    ((step as u64 + 1) << 32) | (i as u64 + 1)
}

/// Fills `buf`. Before the first byte, gives up (returning `false`) once
/// `give_up` has passed; once a frame has started, waits for the rest.
fn fill(stream: &mut TcpStream, buf: &mut [u8], give_up: Instant) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let now = Instant::now();
                if got == 0 && now >= give_up {
                    return Ok(false);
                }
                if now >= give_up + Duration::from_secs(5) {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Sends `reqs` on a fresh connection and collects every reply.
fn run_step(
    addr: SocketAddr,
    targets: &[Target],
    reqs: &[Req],
    seconds: f64,
    step_no: usize,
    tracer: &Tracer,
    checker: &Checker,
) -> Result<Step, String> {
    let traced = tracer.is_enabled();
    let mut rstream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    rstream.set_nodelay(true).map_err(|e| e.to_string())?;
    rstream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let mut wstream = rstream.try_clone().map_err(|e| e.to_string())?;
    let n = reqs.len();
    let outstanding = AtomicUsize::new(0);
    let gated = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(10);
    let at = |us: u64| start + Duration::from_micros(us);
    let last_due = at(reqs.last().map_or(0, |r| r.due_us));
    let give_up = last_due + Duration::from_secs(2);
    let limits = Limits::default();

    let mut step = Step {
        seconds,
        attempted: n as u64,
        times: vec![[0; 5]; n],
        ..Step::default()
    };
    let mut answered = vec![false; n];
    let (late_ms, sends, writer_failed) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut late_ms = Vec::with_capacity(n);
            let mut sends = Vec::with_capacity(n);
            for (i, r) in reqs.iter().enumerate() {
                let due = at(r.due_us);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                if outstanding.fetch_add(1, Ordering::SeqCst) + 1 >= IN_FLIGHT_GATE {
                    gated.fetch_add(1, Ordering::Relaxed);
                }
                let t = &targets[r.target];
                let frame = Frame::Submit {
                    request_id: i as u64 + 1,
                    tenant: t.name.clone(),
                    deadline_us: 0,
                    schedule: Schedule::Optimized,
                    inputs: t.inputs[r.variant].clone(),
                    priority: Priority::Normal,
                    trace: traced.then(|| TraceContext {
                        trace_id: trace_id(step_no, i),
                        span_id: 1,
                    }),
                };
                let bytes = encode_frame(&frame);
                if wstream.write_all(&bytes).is_err() {
                    return (late_ms, sends, true);
                }
                sends.push((sent, Instant::now()));
            }
            (late_ms, sends, false)
        });

        let mut received = 0;
        let mut header = [0u8; HEADER_LEN];
        while received < n {
            match fill(&mut rstream, &mut header, give_up) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => break,
            }
            let arrived = Instant::now();
            let Ok((version, ftype, len, sum)) = parse_header(&header, &limits) else {
                break;
            };
            let mut payload = vec![0u8; len as usize];
            if !matches!(fill(&mut rstream, &mut payload, give_up), Ok(true))
                || checksum(&payload) != sum
            {
                break;
            }
            let frame = decode_payload(version, ftype, &payload, &limits);
            let done = Instant::now();
            let (rid, outputs) = match frame {
                Ok(Frame::ResultOk {
                    request_id,
                    outputs,
                    ..
                }) => (request_id, Some(outputs)),
                Ok(Frame::Error { request_id, .. }) => (request_id, None),
                _ => break,
            };
            let Some(i) = (rid as usize)
                .checked_sub(1)
                .filter(|&i| i < n && !answered[i])
            else {
                break;
            };
            answered[i] = true;
            received += 1;
            outstanding.fetch_sub(1, Ordering::SeqCst);
            let r = reqs[i];
            let due = at(r.due_us);
            if done > last_due + Duration::from_secs_f64(LATENCY_LIMIT_MS / 1e3) {
                step.backlog += 1;
            }
            step.times[i][3] = tracer.ts_of(arrived);
            step.times[i][4] = tracer.ts_of(done);
            let t = &targets[r.target];
            let ok = match outputs {
                Some(mut outputs) => checker.images(&mut outputs, &t.expected[r.variant]),
                None => false,
            };
            if ok {
                step.latencies_ms
                    .push((r.due_us, done.duration_since(due).as_secs_f64() * 1e3));
                step.ok_pixels += t.pixels;
            } else {
                step.failed += 1;
            }
        }
        // A writer blocked on a server that stopped reading must not
        // outlive the reader.
        let _ = rstream.shutdown(std::net::Shutdown::Both);
        writer.join().expect("writer thread panicked")
    });
    let unanswered = answered.iter().filter(|a| !**a).count() as u64;
    step.failed += unanswered;
    step.backlog += unanswered;
    step.late_ms = late_ms;
    step.writer_failed = writer_failed;
    step.gated = gated.load(Ordering::Relaxed);
    for (i, (sent, written)) in sends.into_iter().enumerate() {
        step.times[i][0] = tracer.ts_of(at(reqs[i].due_us));
        step.times[i][1] = tracer.ts_of(sent);
        step.times[i][2] = tracer.ts_of(written);
    }
    Ok(step)
}

/// A warm-up step at the reference rate: fills the plan cache and lets
/// lazy set-up finish. Its requests are checked and counted like any other.
fn warm_up(
    addr: SocketAddr,
    targets: &[Target],
    p: &Params,
    rng: &mut Rng,
    tracer: &Tracer,
    checker: &Checker,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let secs = (p.seconds * 0.05).clamp(0.2, 1.0);
    let reqs = schedule(rng, p.reference_rate, secs, targets.len(), p.variants);
    let step = run_step(addr, targets, &reqs, secs, 0, tracer, checker)?;
    outcome.attempted += step.attempted;
    outcome.failed += step.failed;
    Ok(())
}

pub fn run(p: &Params, seed: u64, trace: bool) -> Result<Outcome, String> {
    let mut targets = targets(p, seed);
    common::par_each(&mut targets, oracle)?;
    let checker = Checker::new(p.corrupt);
    let mut rng = Rng::new(seed, 2);
    let mut outcome = Outcome::default();
    let off = Tracer::disabled();

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..p.setup_reps.max(1) {
        let (s, took) = set_up(&targets, &off)?;
        setups.push(took.as_secs_f64());
        if let Some(old) = server.replace(s) {
            old.shutdown();
        }
    }
    let server = server.expect("at least one set-up ran");
    let addr = server.local_addr();
    warm_up(addr, &targets, p, &mut rng, &off, &checker, &mut outcome)?;

    let result = if trace {
        traced_run(p, &targets, &server, &mut rng, &checker, &mut outcome)
    } else {
        ladder_run(p, &targets, addr, &mut rng, &checker, &mut outcome, &setups)
    };
    server.shutdown();
    outcome.metrics = result?;
    outcome.mismatched = checker.mismatches();
    Ok(outcome)
}

/// The end-to-end run. The ladder's rates run in ascending order, each on
/// a fresh connection, until two in a row fail; the ladder is walked
/// [`LADDER_WALKS`] times. The reference rate runs as
/// [`REFERENCE_WINDOWS`] windows, each on a fresh connection, interleaved
/// with the ladder: how the host schedules a connection's threads persists
/// for the connection's life and moves its latency, so the reference
/// latencies are medians over windows.
fn ladder_run(
    p: &Params,
    targets: &[Target],
    addr: SocketAddr,
    rng: &mut Rng,
    checker: &Checker,
    outcome: &mut Outcome,
    setups: &[f64],
) -> Result<Vec<Metric>, String> {
    let per_step = p.seconds * STEP_SAMPLES_PER_SECOND;
    let window_secs =
        p.seconds * REFERENCE_SAMPLES_PER_SECOND / p.reference_rate / REFERENCE_WINDOWS as f64;
    let mut walk = p
        .ladder
        .iter()
        .copied()
        .filter(|&r| r != p.reference_rate)
        .collect::<Vec<_>>()
        .repeat(LADDER_WALKS)
        .into_iter()
        .peekable();
    let mut windows: Vec<Step> = Vec::new();
    let mut sustained: f64 = 0.0;
    let mut fails_in_row = 0;
    let mut last_rate = 0.0;
    let mut step_no = 0;
    let mut run = |rate: f64, secs: f64, outcome: &mut Outcome| -> Result<Step, String> {
        step_no += 1;
        let reqs = schedule(rng, rate, secs, targets.len(), p.variants);
        let step = run_step(
            addr,
            targets,
            &reqs,
            secs,
            step_no,
            &Tracer::disabled(),
            checker,
        )?;
        outcome.attempted += step.attempted;
        outcome.failed += step.failed;
        eprintln!(
            "  rate {rate:>6.0}/s: {} sent, {} failed, p50 {:.3} ms, p99 {:.3} ms, \
             late p99 {:.3} ms, backlog {}, gated {}",
            step.attempted,
            step.failed,
            step.p50_ms(),
            step.p99_ms(),
            step.late_p99_ms(),
            step.backlog,
            step.gated
        );
        Ok(step)
    };
    loop {
        let more_windows = windows.len() < REFERENCE_WINDOWS;
        if more_windows {
            windows.push(run(p.reference_rate, window_secs, outcome)?);
        }
        // A walk ends after two failures in a row; the next starts again
        // at the bottom of the ladder.
        while fails_in_row >= 2 && walk.peek().is_some_and(|&r| r > last_rate) {
            walk.next();
        }
        match walk.next() {
            Some(rate) => {
                if rate < last_rate {
                    fails_in_row = 0;
                }
                last_rate = rate;
                if run(rate, per_step / rate, outcome)?.sustained() {
                    sustained = sustained.max(rate);
                    fails_in_row = 0;
                } else {
                    fails_in_row += 1;
                }
            }
            None if !more_windows => break,
            None => {}
        }
    }
    let pooled = Step::pooled(&windows);
    if !pooled.open_loop_held() {
        eprintln!(
            "  INVALID: the generator fell behind or reached the in-flight gate at the \
             reference rate {}/s",
            p.reference_rate
        );
    }
    if pooled.sustained() {
        sustained = sustained.max(p.reference_rate);
    }
    let across = |f: fn(&Step) -> f64| common::median(&windows.iter().map(f).collect::<Vec<_>>());
    Ok(vec![
        metric("setup_s", common::median(setups), "s"),
        metric("latency_p50_ms", across(Step::p50_ms), "ms"),
        metric("latency_p99_ms", across(Step::p99_ms), "ms"),
        metric("sustained_req_per_s", sustained, "1/s"),
        metric(
            "frames_per_s",
            pooled.latencies_ms.len() as f64 / pooled.seconds,
            "1/s",
        ),
        metric(
            "mpix_per_s",
            pooled.ok_pixels / pooled.seconds / 1e6,
            "Mpix/s",
        ),
        metric("peak_rss_mb", common::peak_rss_mb(), "MiB"),
    ])
}

/// The traced run: the reference rate untraced, then again against a
/// server with every span on, then timed calls into each layer.
fn traced_run(
    p: &Params,
    targets: &[Target],
    plain: &Server,
    rng: &mut Rng,
    checker: &Checker,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let secs = p.seconds * 0.35;
    let rate = p.reference_rate;
    let reqs = schedule(rng, rate, secs, targets.len(), p.variants);
    let untraced = run_step(
        plain.local_addr(),
        targets,
        &reqs,
        secs,
        1,
        &Tracer::disabled(),
        checker,
    )?;
    outcome.attempted += untraced.attempted;
    outcome.failed += untraced.failed;

    let tracer = Tracer::enabled();
    let (server, _) = set_up(targets, &tracer)?;
    warm_up(
        server.local_addr(),
        targets,
        p,
        rng,
        &tracer,
        checker,
        outcome,
    )?;
    tracer.take_events();
    let metrics_before = server.runtime_metrics();
    let net_before = server.net_metrics();
    let traced = run_step(
        server.local_addr(),
        targets,
        &reqs,
        secs,
        2,
        &tracer,
        checker,
    )?;
    // Spans of the last replies are recorded after the reply is written.
    std::thread::sleep(Duration::from_millis(50));
    let metrics_after = server.runtime_metrics();
    let net_after = server.net_metrics();
    server.shutdown();
    outcome.attempted += traced.attempted;
    outcome.failed += traced.failed;

    let calls = timed_calls(targets, rng);
    let plan_parts = |name: &str| calls.parts.get(name).copied().unwrap_or((0, 0));
    let spans = budget::by_trace(tracer.take_events());
    let mut budget = Budget::default();
    let by_name: HashMap<&str, &Target> = targets.iter().map(|t| (t.name.as_str(), t)).collect();
    let mut exec_by_app: HashMap<&'static str, (f64, f64)> = HashMap::new();
    let mut queue_waits = Vec::new();
    let mut plan_hit = Vec::new();
    let mut plan_miss = Vec::new();
    let mut span_means: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (mut kernel_bytes, mut kernel_us) = (0u64, 0u64);
    for (i, t) in traced.times.iter().enumerate() {
        if t[4] == 0 {
            continue;
        }
        let events = spans.get(&trace_id(2, i)).map(Vec::as_slice).unwrap_or(&[]);
        let mut parts = vec![
            Span {
                layer: Layer::Loadgen,
                depth: DEPTH_LATE,
                start: t[0],
                end: t[1],
            },
            Span {
                layer: Layer::Net,
                depth: DEPTH_CLIENT,
                start: t[1],
                end: t[2],
            },
            Span {
                layer: Layer::Net,
                depth: DEPTH_CLIENT,
                start: t[3],
                end: t[4],
            },
        ];
        span_means
            .entry("client_send")
            .or_default()
            .push((t[2] - t[1]) as f64);
        span_means
            .entry("client_recv")
            .or_default()
            .push((t[4] - t[3]) as f64);
        budget::program_spans(
            events,
            &plan_parts,
            calls.request_decode_us as u64,
            &mut parts,
        );
        budget.add(t[0], t[4], &parts);
        for e in events {
            let d = budget::duration_us(e) as f64;
            match e.name.as_str() {
                "queue_wait" => queue_waits.push(d),
                "plan" if budget::arg_str(e, "cache") == Some("miss") => plan_miss.push(d),
                "plan" => plan_hit.push(d),
                "execute" => {
                    let pipeline = budget::arg_str(e, "pipeline").unwrap_or("");
                    if let Some(t) = by_name.get(pipeline) {
                        let acc = exec_by_app.entry(t.app).or_default();
                        acc.0 += t.pixels;
                        acc.1 += d;
                    }
                    span_means.entry("execute").or_default().push(d);
                }
                "submit" => span_means.entry("server_ingress").or_default().push(d),
                "encode_write" => span_means.entry("encode_write").or_default().push(d),
                n if n.starts_with("kernel:") => {
                    kernel_bytes += budget::kernel_bytes(e);
                    kernel_us += budget::duration_us(e);
                }
                _ => {}
            }
        }
    }
    queue_waits.sort_by(f64::total_cmp);
    let span_mean = |k: &str| common::mean(span_means.get(k).map(Vec::as_slice).unwrap_or(&[]));
    let sum = |m: &kfuse_runtime::MetricsSnapshot| {
        m.pipelines.iter().fold((0u64, 0u64, 0u64, 0u64), |a, p| {
            (
                a.0 + p.cache_hits,
                a.1 + p.cache_misses,
                a.2 + p.shed,
                a.3 + p.rejected,
            )
        })
    };
    let (h0, m0, s0, r0) = sum(&metrics_before);
    let (h1, m1, s1, r1) = sum(&metrics_after);
    let lookups = (h1 - h0) + (m1 - m0);
    let ops = traced.attempted.max(1) as f64;
    let bytes = (net_after.bytes_received + net_after.bytes_sent)
        - (net_before.bytes_received + net_before.bytes_sent);

    let mut m = layers::Layers::default();
    m.set("net.encode_us", calls.encode_us);
    m.set("net.decode_us", calls.decode_us);
    m.set("net.codec_mb_per_s", calls.codec_mb_per_s);
    m.set("net.bytes_per_op", bytes as f64 / ops);
    m.set("net.client_send_us", span_mean("client_send"));
    m.set("net.client_recv_us", span_mean("client_recv"));
    m.set("net.server_ingress_us", span_mean("server_ingress"));
    m.set("net.encode_write_us", span_mean("encode_write"));
    m.set(
        "runtime.queue_wait_p50_us",
        common::quantile(&queue_waits, 0.5),
    );
    m.set(
        "runtime.queue_wait_p99_us",
        common::quantile(&queue_waits, 0.99),
    );
    m.set("runtime.plan_hit_us", common::mean(&plan_hit));
    m.set("runtime.plan_miss_us", common::mean(&plan_miss));
    m.set(
        "runtime.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            (h1 - h0) as f64 / lookups as f64
        },
    );
    m.set(
        "runtime.cache_evictions",
        (metrics_after.runtime.cache_evictions - metrics_before.runtime.cache_evictions) as f64,
    );
    m.set(
        "runtime.queue_depth_hwm",
        metrics_after.runtime.queue_depth_hwm as f64,
    );
    m.set("runtime.shed", (s1 - s0) as f64);
    m.set("runtime.rejected", (r1 - r0) as f64);
    m.set("core.plan_us", calls.plan_us);
    m.set("core.kernels_before", calls.kernels_before);
    m.set("core.kernels_after", calls.kernels_after);
    m.set("sim.lower_us", calls.lower_us);
    m.set("sim.execute_us", span_mean("execute"));
    for (app, (pixels, us)) in exec_by_app {
        if us > 0.0 {
            m.set(&format!("sim.{app}.mpix_per_s"), pixels / us);
        }
    }
    if kernel_us > 0 {
        m.set(
            "sim.achieved_gb_per_s",
            kernel_bytes as f64 / kernel_us as f64 / 1e3,
        );
    }
    m.set("loadgen.late_p99_ms", traced.late_p99_ms());
    m.set("loadgen.backlog", traced.backlog as f64);
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (traced.p50_ms() / untraced.p50_ms().max(1e-9) - 1.0),
    );
    Ok(m.finish(&budget, outcome))
}

/// Per-layer costs measured by calling each layer's public functions on
/// the workload's own pipelines and frames.
struct Calls {
    encode_us: f64,
    decode_us: f64,
    /// Decoding one request frame alone.
    request_decode_us: f64,
    codec_mb_per_s: f64,
    plan_us: f64,
    lower_us: f64,
    kernels_before: f64,
    kernels_after: f64,
    /// Per registered name: planner and lowering time in µs.
    parts: HashMap<String, (u64, u64)>,
}

fn timed_calls(targets: &[Target], rng: &mut Rng) -> Calls {
    let limits = Limits::default();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut request_decode = Vec::new();
    let mut bytes = 0.0;
    // A spread of the registered pipelines, so that the codec is timed on
    // the mix of frame sizes the workload sends.
    let step = (targets.len() / 24).max(1);
    for t in targets.iter().step_by(step) {
        let v = rng.below(t.inputs.len());
        let request = Frame::Submit {
            request_id: 1,
            tenant: t.name.clone(),
            deadline_us: 0,
            schedule: Schedule::Optimized,
            inputs: t.inputs[v].clone(),
            priority: Priority::Normal,
            trace: None,
        };
        let reply = Frame::ResultOk {
            request_id: 1,
            outputs: t.expected[v].clone(),
            trace: None,
        };
        let (qe, qd, qb) = layers::codec_us(&request, &limits);
        let (re, rd, rb) = layers::codec_us(&reply, &limits);
        let (enc, dec) = (qe + re, qd + rd);
        bytes += qb + rb;
        request_decode.push(qd);
        encode.push(enc);
        decode.push(dec);
    }
    let (encode_us, decode_us) = (common::mean(&encode), common::mean(&decode));
    let codec_mb_per_s = 2.0 * bytes / encode.len().max(1) as f64 / (encode_us + decode_us);

    let mut parts = HashMap::new();
    let (mut plan, mut lower) = (Vec::new(), Vec::new());
    for t in targets {
        let (p, l) = layers::plan_and_lower_us(&t.pipeline);
        plan.push(p);
        lower.push(l);
        parts.insert(t.name.clone(), (p as u64, l as u64));
    }
    let apps: Vec<&Pipeline> = paper_apps()
        .iter()
        .filter_map(|a| targets.iter().find(|t| t.app == a.name))
        .map(|t| &t.pipeline)
        .collect();
    let (kernels_before, kernels_after) = layers::kernel_counts(&apps);
    Calls {
        encode_us,
        decode_us,
        request_decode_us: common::mean(&request_decode),
        codec_mb_per_s,
        plan_us: common::mean(&plan),
        lower_us: common::mean(&lower),
        kernels_before,
        kernels_after,
        parts,
    }
}
