//! `stream-512`: the three temporal apps as streaming sessions on one
//! connection at 512², closed loop, with one frame in flight per session.
//! It is the only workload that runs `kfuse-stream` state reuse and the
//! runtime's session path; its wire traffic is bound by bytes (1 MiB
//! frames), not by message count.
//!
//! Sessions play seeded clips of a fixed length. The oracle steps each
//! clip through `run_reference` once, before anything is timed, and keeps
//! a digest of every output of every frame. When all clips have played,
//! the sessions close and reopen cold, so the same digests hold again.
//! Replies are checked against the digests after their round, when no
//! frame is in flight, so the oracle never delays a frame.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use kfuse_apps::temporal_apps;
use kfuse_dsl::{default_config, Schedule};
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_model::GpuSpec;
use kfuse_net::{Client, Frame, Limits, Server};
use kfuse_obs::Tracer;
use kfuse_sim::{synthetic_image, FastConfig};
use kfuse_stream::{run_reference, StreamPipeline, StreamSession};

use crate::budget::{self, Budget, Span};
use crate::common::{self, digest, metric, Checker, Metric, Outcome, Rng};
use crate::layers;

#[derive(Clone, Debug)]
pub struct Params {
    pub edge: usize,
    /// Frames per clip.
    pub clip: usize,
    pub seconds: f64,
    pub setup_reps: usize,
    pub corrupt: bool,
}

impl Params {
    pub fn full(seconds: f64) -> Self {
        Params {
            edge: 512,
            clip: 24,
            seconds,
            setup_reps: 9,
            corrupt: false,
        }
    }
}

struct Clip {
    stream: StreamPipeline,
    frames: Vec<Vec<(ImageId, Image)>>,
    expected: Vec<Vec<(ImageId, u64)>>,
}

fn clips(p: &Params, seed: u64) -> Result<Vec<Clip>, String> {
    let mut rng = Rng::new(seed, 4);
    let mut clips: Vec<Clip> = temporal_apps()
        .into_iter()
        .map(|a| {
            let stream = (a.build_sized)(p.edge, p.edge);
            let fresh = stream.fresh_inputs();
            let frames = (0..p.clip)
                .map(|_| {
                    fresh
                        .iter()
                        .map(|&id| {
                            let desc = stream.frame().image(id).clone();
                            (id, synthetic_image(desc, rng.next_u64()))
                        })
                        .collect()
                })
                .collect();
            Clip {
                stream,
                frames,
                expected: Vec::new(),
            }
        })
        .collect();
    common::par_each(&mut clips, |c| {
        let outs = run_reference(&c.stream, &c.frames).map_err(|e| e.to_string())?;
        c.expected = outs
            .iter()
            .map(|f| f.iter().map(|(id, img)| (*id, digest(img))).collect())
            .collect();
        Ok(())
    })?;
    Ok(clips)
}

fn open_all(client: &mut Client, clips: &[Clip]) -> Result<Vec<u64>, String> {
    clips
        .iter()
        .map(|c| {
            client
                .open_session(&c.stream.frame().name, &c.stream, Schedule::Optimized)
                .map_err(|e| format!("open session: {e}"))
        })
        .collect()
}

fn close_all(client: &mut Client, sessions: &[u64]) -> Result<(), String> {
    for &s in sessions {
        client
            .close_session(s)
            .map_err(|e| format!("close session: {e}"))?;
    }
    Ok(())
}

/// Connects and opens one session per app: the set-up this workload pays.
fn set_up(server: &Server, clips: &[Clip]) -> Result<(Client, Vec<u64>, f64), String> {
    let t0 = Instant::now();
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let sessions = open_all(&mut client, clips)?;
    Ok((client, sessions, t0.elapsed().as_secs_f64()))
}

/// One frame as the client saw it.
struct Done {
    latency_ms: f64,
    /// Submit start and reply decoded, on the tracer's clock, and the
    /// frame's trace id (0 untraced).
    start_us: u64,
    end_us: u64,
    trace_id: u64,
}

struct Played {
    /// In completion order.
    frames: Vec<Done>,
    /// Frames completed and seconds taken, per round.
    rounds: Vec<(usize, f64)>,
}

impl Played {
    /// Median over rounds of the frames completed per second.
    fn frames_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.rounds.iter().map(|&(n, s)| n as f64 / s).collect();
        common::median(&rates)
    }
}

struct InFlight {
    session: usize,
    frame: usize,
    sent: Instant,
    trace_id: u64,
}

fn submit(
    client: &mut Client,
    sessions: &[u64],
    clips: &[Clip],
    s: usize,
    f: usize,
    pending: &mut HashMap<u64, InFlight>,
) -> Result<(), String> {
    let sent = Instant::now();
    let rid = client
        .submit_frame(sessions[s], clips[s].frames[f].clone())
        .map_err(|e| format!("submit frame: {e}"))?;
    let trace_id = client.last_trace().map_or(0, |c| c.trace_id);
    pending.insert(
        rid,
        InFlight {
            session: s,
            frame: f,
            sent,
            trace_id,
        },
    );
    Ok(())
}

/// Plays clips on every session until `seconds` have passed, one frame in
/// flight per session: a session's next frame is sent as soon as its reply
/// arrives. Each round plays every clip from a cold session; between rounds
/// the sessions close and reopen. A round's replies are checked after its
/// timed part.
#[allow(clippy::too_many_arguments)]
fn play(
    client: &mut Client,
    sessions: &mut [u64],
    clips: &[Clip],
    p: &Params,
    seconds: f64,
    tracer: &Tracer,
    checker: &Checker,
    outcome: &mut Outcome,
) -> Result<Played, String> {
    let started = Instant::now();
    let mut frames = Vec::new();
    let mut rounds = Vec::new();
    loop {
        let round_start = Instant::now();
        let mut pending = HashMap::new();
        let mut replies = Vec::new();
        for s in 0..clips.len() {
            submit(client, sessions, clips, s, 0, &mut pending)?;
        }
        while !pending.is_empty() {
            let reply = client.recv_result();
            let done = Instant::now();
            let (rid, outputs) = match reply {
                Ok((rid, outputs)) => (rid, Some(outputs)),
                Err(kfuse_net::ClientError::Server { request_id, .. }) => (request_id, None),
                Err(e) => return Err(format!("receive: {e}")),
            };
            let f = pending
                .remove(&rid)
                .ok_or_else(|| format!("reply to unknown request {rid}"))?;
            if f.frame + 1 < p.clip {
                submit(
                    client,
                    sessions,
                    clips,
                    f.session,
                    f.frame + 1,
                    &mut pending,
                )?;
            }
            replies.push((f, done, outputs));
        }
        close_all(client, sessions)?;
        let finished = started.elapsed().as_secs_f64() >= seconds;
        if !finished {
            let reopened = open_all(client, clips)?;
            sessions.copy_from_slice(&reopened);
        }
        let took = round_start.elapsed().as_secs_f64();
        let before = frames.len();
        for (f, done, outputs) in replies {
            outcome.attempted += 1;
            let ok = outputs.is_some_and(|mut outs| {
                checker.digests(&mut outs, &clips[f.session].expected[f.frame])
            });
            if !ok {
                outcome.failed += 1;
                continue;
            }
            frames.push(Done {
                latency_ms: done.duration_since(f.sent).as_secs_f64() * 1e3,
                start_us: tracer.ts_of(f.sent),
                end_us: tracer.ts_of(done),
                trace_id: f.trace_id,
            });
        }
        rounds.push((frames.len() - before, took));
        if finished {
            break;
        }
    }
    Ok(Played { frames, rounds })
}

/// Windows the frame latencies are summarized over.
const LATENCY_WINDOWS: usize = 8;

pub fn run(p: &Params, seed: u64, trace: bool) -> Result<Outcome, String> {
    let clips = clips(p, seed)?;
    let checker = Checker::new(p.corrupt);
    let mut outcome = Outcome::default();
    let off = Tracer::disabled();
    let server =
        Server::bind("127.0.0.1:0", common::server_config(&off)).map_err(|e| e.to_string())?;
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..p.setup_reps.max(1) {
        let (client, sessions, took) = set_up(&server, &clips)?;
        setups.push(took);
        if let Some((mut old, old_sessions)) = live.replace((client, sessions)) {
            close_all(&mut old, &old_sessions)?;
        }
    }
    let (mut client, mut sessions) = live.expect("at least one set-up ran");
    // One untimed round lets lazy set-up finish; its frames are checked.
    play(
        &mut client,
        &mut sessions,
        &clips,
        p,
        0.0,
        &off,
        &checker,
        &mut outcome,
    )?;
    sessions.copy_from_slice(&open_all(&mut client, &clips)?);

    let result = if trace {
        traced_run(
            p,
            &clips,
            &mut client,
            &mut sessions,
            &checker,
            &mut outcome,
        )
    } else {
        play(
            &mut client,
            &mut sessions,
            &clips,
            p,
            p.seconds,
            &off,
            &checker,
            &mut outcome,
        )
        .map(|played| {
            let lat: Vec<f64> = played.frames.iter().map(|d| d.latency_ms).collect();
            let rate = played.frames_per_s();
            let mpix = (p.edge * p.edge) as f64 / 1e6;
            vec![
                metric("setup_s", common::median(&setups), "s"),
                metric(
                    "latency_p50_ms",
                    common::windowed_quantile(&lat, LATENCY_WINDOWS, 0.5),
                    "ms",
                ),
                metric(
                    "latency_p99_ms",
                    common::windowed_quantile(&lat, LATENCY_WINDOWS, 0.99),
                    "ms",
                ),
                metric("sustained_req_per_s", rate, "1/s"),
                metric("frames_per_s", rate, "1/s"),
                metric("mpix_per_s", rate * mpix, "Mpix/s"),
                metric("peak_rss_mb", common::peak_rss_mb(), "MiB"),
            ]
        })
    };
    drop(client);
    server.shutdown();
    outcome.metrics = result?;
    outcome.mismatched = checker.mismatches();
    Ok(outcome)
}

/// Untraced play on the plain server, traced play on a server with every
/// span on, then timed calls into each layer.
fn traced_run(
    p: &Params,
    clips: &[Clip],
    client: &mut Client,
    sessions: &mut [u64],
    checker: &Checker,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let off = Tracer::disabled();
    let plain = play(
        client,
        sessions,
        clips,
        p,
        p.seconds * 0.4,
        &off,
        checker,
        outcome,
    )?;

    let tracer = Tracer::enabled();
    let server =
        Server::bind("127.0.0.1:0", common::server_config(&tracer)).map_err(|e| e.to_string())?;
    let (mut tclient, mut tsessions, _) = set_up(&server, clips)?;
    tclient.set_tracer(tracer.clone());
    play(
        &mut tclient,
        &mut tsessions,
        clips,
        p,
        0.0,
        &tracer,
        checker,
        outcome,
    )?;
    tsessions.copy_from_slice(&open_all(&mut tclient, clips)?);
    tracer.take_events();
    let metrics_before = server.runtime_metrics();
    let net_before = server.net_metrics();
    let traced = play(
        &mut tclient,
        &mut tsessions,
        clips,
        p,
        p.seconds * 0.4,
        &tracer,
        checker,
        outcome,
    )?;
    std::thread::sleep(Duration::from_millis(50));
    let metrics_after = server.runtime_metrics();
    let net_after = server.net_metrics();
    drop(tclient);
    server.shutdown();

    let limits = Limits::default();
    let (mut enc, mut dec, mut codec_bytes, mut steps) = (0.0, 0.0, 0.0, Vec::new());
    let mut request_decode = Vec::new();
    let fast = FastConfig {
        threads: Some(1),
        ..FastConfig::default()
    };
    let fusion = default_config(GpuSpec::gtx680());
    for c in clips {
        let mut session = StreamSession::new(c.stream.clone(), Schedule::Optimized, &fusion, fast)
            .map_err(|e| e.to_string())?;
        let mut outputs = Vec::new();
        for f in &c.frames {
            let t = Instant::now();
            let out = session.step(f.clone()).map_err(|e| e.to_string())?;
            steps.push(t.elapsed().as_secs_f64() * 1e6);
            outputs = out.outputs;
        }
        let request = Frame::SubmitFrame {
            request_id: 1,
            session_id: 1,
            inputs: c.frames[0].clone(),
            trace: None,
        };
        let reply = Frame::ResultOk {
            request_id: 1,
            outputs,
            trace: None,
        };
        let (qe, qd, qb) = layers::codec_us(&request, &limits);
        let (re, rd, rb) = layers::codec_us(&reply, &limits);
        enc += qe + re;
        dec += qd + rd;
        codec_bytes += qb + rb;
        request_decode.push(qd);
    }
    let spans = budget::by_trace(tracer.take_events());
    let mut budget = Budget::default();
    let mut waits = Vec::new();
    let mut means: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for d in &traced.frames {
        let events = spans.get(&d.trace_id).map(Vec::as_slice).unwrap_or(&[]);
        let mut parts: Vec<Span> = Vec::new();
        budget::program_spans(
            events,
            &|_| (0, 0),
            common::mean(&request_decode) as u64,
            &mut parts,
        );
        budget.add(d.start_us, d.end_us, &parts);
        for e in events {
            let us = budget::duration_us(e) as f64;
            let key = match e.name.as_str() {
                "frame_wait" => {
                    waits.push(us);
                    continue;
                }
                "client_send" => "client_send",
                "client_recv" => "client_recv",
                "submit_frame" => "server_ingress",
                "encode_write" => "encode_write",
                _ => continue,
            };
            means.entry(key).or_default().push(us);
        }
    }
    waits.sort_by(f64::total_cmp);
    let mean = |k: &str| common::mean(means.get(k).map(Vec::as_slice).unwrap_or(&[]));
    let ops = traced.frames.len().max(1) as f64;
    let bytes = (net_after.bytes_received + net_after.bytes_sent)
        - (net_before.bytes_received + net_before.bytes_sent);

    let mut m = layers::Layers::default();
    let n = clips.len() as f64;
    m.set("net.encode_us", enc / n);
    m.set("net.decode_us", dec / n);
    m.set("net.codec_mb_per_s", 2.0 * codec_bytes / (enc + dec));
    m.set("net.bytes_per_op", bytes as f64 / ops);
    m.set("net.client_send_us", mean("client_send"));
    m.set("net.client_recv_us", mean("client_recv"));
    m.set("net.server_ingress_us", mean("server_ingress"));
    m.set("net.encode_write_us", mean("encode_write"));
    m.set("runtime.queue_wait_p50_us", common::quantile(&waits, 0.5));
    m.set("runtime.queue_wait_p99_us", common::quantile(&waits, 0.99));
    m.set(
        "runtime.queue_depth_hwm",
        metrics_after.runtime.queue_depth_hwm as f64,
    );
    m.set(
        "runtime.cache_evictions",
        (metrics_after.runtime.cache_evictions - metrics_before.runtime.cache_evictions) as f64,
    );
    let pipelines: Vec<&Pipeline> = clips.iter().map(|c| c.stream.frame()).collect();
    let (mut plan, mut lower) = (Vec::new(), Vec::new());
    for p in &pipelines {
        let (pl, lo) = layers::plan_and_lower_us(p);
        plan.push(pl);
        lower.push(lo);
    }
    m.set("core.plan_us", common::mean(&plan));
    m.set("sim.lower_us", common::mean(&lower));
    let (before, after) = layers::kernel_counts(&pipelines);
    m.set("core.kernels_before", before);
    m.set("core.kernels_after", after);
    m.set("stream.step_us", common::mean(&steps));
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (plain.frames_per_s() / traced.frames_per_s().max(1e-12) - 1.0),
    );
    Ok(m.finish(&budget, outcome))
}
