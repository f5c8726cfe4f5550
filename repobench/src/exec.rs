//! `exec-2048`: the six paper apps at paper sizes (2048², Night
//! 1920×1200), planned and lowered during set-up, then executed in process
//! one frame at a time, closed loop, with the default `FastConfig`. No
//! wire and no runtime: the executor does almost all of the work.
//!
//! The reference interpreter needs minutes per frame at these sizes, so
//! the oracle checks every frame on five windows: the four corners, where
//! the border modes act, and the centre. Each window is the reference
//! result of the same app built at the window's size on the cropped input.
//! Output pixels farther than the pipeline's total stencil radius from a
//! cut edge see exactly the inputs they see in the full frame, so on those
//! pixels the two must agree bit for bit.

use std::time::Instant;

use kfuse_apps::paper_apps;
use kfuse_dsl::{compile, default_config, Schedule};
use kfuse_ir::{Image, ImageDesc, ImageId, Pipeline};
use kfuse_model::GpuSpec;
use kfuse_obs::Tracer;
use kfuse_sim::{execute_reference, synthetic_image, CompiledPlan, FastConfig, Scratch};

use crate::budget::{self, Budget, Layer, Span, DEPTH_EXEC};
use crate::common::{self, metric, Checker, Metric, Outcome, Rng};
use crate::layers;

#[derive(Clone, Debug)]
pub struct Params {
    /// Frame edges are the paper sizes divided by this.
    pub edge_div: usize,
    pub seconds: f64,
    /// Set-ups timed before the first frame.
    pub setup_reps: usize,
    pub corrupt: bool,
}

/// Set-ups timed after each round of the end-to-end run. Set-up takes
/// 1-2 ms, and how fast the host runs it drifts over seconds, so samples
/// spread over the whole run give a steadier median than a block at the
/// start alone.
const SETUP_REPS_PER_ROUND: usize = 8;

impl Params {
    pub fn full(seconds: f64) -> Self {
        Params {
            edge_div: 1,
            seconds,
            setup_reps: 101,
            corrupt: false,
        }
    }
}

/// A window of the output whose pixels the oracle vouches for.
struct Window {
    /// Crop origin in the full frame.
    x0: usize,
    y0: usize,
    /// The part of the crop to compare, in crop coordinates.
    xs: std::ops::Range<usize>,
    ys: std::ops::Range<usize>,
    expected: Vec<(ImageId, Image)>,
}

struct App {
    name: &'static str,
    build: fn(usize, usize) -> Pipeline,
    pipeline: Pipeline,
    inputs: Vec<(ImageId, Image)>,
    mpix: f64,
    windows: Vec<Window>,
}

/// An upper bound on how far an output pixel's inputs can lie from it:
/// the stencil radii of all stages added up.
pub fn stencil_radius(p: &Pipeline) -> usize {
    p.kernels()
        .iter()
        .flat_map(|k| k.stages.iter())
        .map(|s| {
            let (rx, ry) = s.max_extent();
            rx.max(ry).max(0) as usize
        })
        .sum()
}

pub fn crop(img: &Image, x0: usize, y0: usize, w: usize, h: usize) -> Image {
    let c = img.channels();
    let mut out = Image::zeros(ImageDesc::new(img.desc().name.clone(), w, h, c));
    for y in 0..h {
        let src = &img.row(y0 + y)[x0 * c..(x0 + w) * c];
        out.row_mut(y).copy_from_slice(src);
    }
    out
}

/// The oracle's windows for `app` at `(w, h)`: crops of edge `2·radius +
/// 96` at the four corners and the centre.
fn windows(
    build: fn(usize, usize) -> Pipeline,
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
) -> Result<Vec<Window>, String> {
    let out = p.image(p.outputs()[0]);
    let (w, h) = (out.width, out.height);
    let r = stencil_radius(p);
    let (cw, ch) = ((2 * r + 96).min(w), (2 * r + 96).min(h));
    let origins = [
        (0, 0),
        (w - cw, 0),
        (0, h - ch),
        (w - cw, h - ch),
        ((w - cw) / 2, (h - ch) / 2),
    ];
    origins
        .iter()
        .map(|&(x0, y0)| {
            let small = build(cw, ch);
            let cropped: Vec<(ImageId, Image)> = inputs
                .iter()
                .map(|(id, img)| (*id, crop(img, x0, y0, cw, ch)))
                .collect();
            let exec = execute_reference(&small, &cropped).map_err(|e| e.to_string())?;
            let lo = |o: usize| if o == 0 { 0 } else { r };
            let hi = |o: usize, c: usize, full: usize| if o + c == full { c } else { c - r };
            Ok(Window {
                x0,
                y0,
                xs: lo(x0).min(cw)..hi(x0, cw, w).max(lo(x0).min(cw)),
                ys: lo(y0).min(ch)..hi(y0, ch, h).max(lo(y0).min(ch)),
                expected: small
                    .outputs()
                    .iter()
                    .map(|&id| (id, exec.expect_image(id).clone()))
                    .collect(),
            })
        })
        .collect()
}

/// Whether every window of `got` matches the oracle bit for bit.
fn matches(app: &App, got: &[(ImageId, Image)]) -> bool {
    app.windows.iter().all(|win| {
        win.expected.iter().all(|(id, want)| {
            let Some((_, img)) = got.iter().find(|(gid, _)| gid == id) else {
                return false;
            };
            win.ys.clone().all(|y| {
                win.xs.clone().all(|x| {
                    (0..want.channels()).all(|c| {
                        img.get(win.x0 + x, win.y0 + y, c).to_bits() == want.get(x, y, c).to_bits()
                    })
                })
            })
        })
    })
}

/// The apps at the workload's sizes, without inputs yet.
fn apps(p: &Params) -> Vec<App> {
    paper_apps()
        .into_iter()
        .map(|a| {
            let paper = (a.build_paper)();
            let out = paper.image(paper.outputs()[0]);
            let (w, h) = (out.width / p.edge_div, out.height / p.edge_div);
            App {
                name: a.name,
                build: a.build_sized,
                pipeline: (a.build_sized)(w, h),
                inputs: Vec::new(),
                mpix: (w * h) as f64 / 1e6,
                windows: Vec::new(),
            }
        })
        .collect()
}

/// Draws every app's inputs from `seed` and computes the oracle's windows.
fn synthesize(apps: &mut [App], seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed, 3);
    for app in apps.iter_mut() {
        let p = &app.pipeline;
        app.inputs = p
            .inputs()
            .iter()
            .map(|&id| (id, synthetic_image(p.image(id).clone(), rng.next_u64())))
            .collect();
    }
    common::par_each(apps, |app| {
        app.windows = windows(app.build, &app.pipeline, &app.inputs)?;
        Ok(())
    })
}

/// Plans and lowers every app: the set-up this workload pays.
fn set_up(apps: &[App]) -> Result<Vec<CompiledPlan>, String> {
    let cfg = default_config(GpuSpec::gtx680());
    apps.iter()
        .map(|a| {
            let fused = compile(&a.pipeline, Schedule::Optimized, &cfg);
            CompiledPlan::compile(&fused).map_err(|e| format!("{}: {e}", a.name))
        })
        .collect()
}

/// Times `reps` set-ups, adding each to `times` in seconds, and returns
/// the plans of the last.
fn time_set_up(
    apps: &[App],
    reps: usize,
    times: &mut Vec<f64>,
) -> Result<Vec<CompiledPlan>, String> {
    let mut plans = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        plans = set_up(apps)?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(plans)
}

/// Frame times (seconds) per app over whole rounds of all apps, until
/// `seconds` have passed.
struct Frames {
    per_app: Vec<Vec<f64>>,
    /// Wall time of each round of all apps.
    rounds: Vec<f64>,
}

/// Runs whole rounds of every app, at least one, until `seconds` have
/// passed. With `setups`, set-up is also timed after each round, outside
/// the round's time.
#[allow(clippy::too_many_arguments)]
fn run_frames(
    apps: &[App],
    plans: &[CompiledPlan],
    seconds: f64,
    tracer: &Tracer,
    checker: &Checker,
    outcome: &mut Outcome,
    budget: &mut Budget,
    mut setups: Option<&mut Vec<f64>>,
) -> Result<Frames, String> {
    let cfg = FastConfig::default();
    let mut scratch: Vec<Scratch> = apps.iter().map(|_| Scratch::default()).collect();
    let mut per_app = vec![Vec::new(); apps.len()];
    let started = Instant::now();
    let mut frame = 0u64;
    let mut rounds = Vec::new();
    // Whole rounds of every app, at least one.
    loop {
        let round = Instant::now();
        for (i, (app, plan)) in apps.iter().zip(plans).enumerate() {
            frame += 1;
            let scoped = tracer.scoped(frame);
            let t0 = Instant::now();
            let result = plan.execute_traced(&app.inputs, &cfg, &mut scratch[i], &scoped);
            let t1 = Instant::now();
            outcome.attempted += 1;
            let mut got: Vec<(ImageId, Image)> = match result {
                Ok(mut exec) => app
                    .pipeline
                    .outputs()
                    .iter()
                    .filter_map(|&id| exec.take_image(id).map(|img| (id, img)))
                    .collect(),
                Err(e) => {
                    eprintln!("  {}: {e}", app.name);
                    outcome.failed += 1;
                    continue;
                }
            };
            checker.tamper(&mut got);
            if !checker.count(matches(app, &got)) {
                outcome.failed += 1;
                continue;
            }
            per_app[i].push((t1 - t0).as_secs_f64());
            if tracer.is_enabled() {
                let (a, b) = (tracer.ts_of(t0), tracer.ts_of(t1));
                let mut spans = vec![Span {
                    layer: Layer::SimExec,
                    depth: DEPTH_EXEC,
                    start: a,
                    end: b,
                }];
                let events: Vec<_> = tracer
                    .take_events()
                    .into_iter()
                    .filter(|e| e.trace_id == frame)
                    .collect();
                budget::program_spans(&events, &|_| (0, 0), 0, &mut spans);
                budget.add(a, b, &spans);
                for e in &events {
                    if e.name.starts_with("kernel:") {
                        budget.kernel_bytes += budget::kernel_bytes(e);
                        budget.kernel_us += budget::duration_us(e);
                    }
                }
            }
        }
        rounds.push(round.elapsed().as_secs_f64());
        if let Some(times) = setups.as_deref_mut() {
            time_set_up(apps, SETUP_REPS_PER_ROUND, times)?;
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(Frames { per_app, rounds })
}

fn app_mpix(apps: &[App], frames: &Frames) -> Vec<f64> {
    apps.iter()
        .zip(&frames.per_app)
        .map(|(a, times)| a.mpix / common::median(times).max(1e-12))
        .collect()
}

pub fn run(p: &Params, seed: u64, trace: bool) -> Result<Outcome, String> {
    let mut apps = apps(p);
    // Plans do not depend on the inputs, so the first set-ups run before
    // the inputs are made.
    let mut setups = Vec::new();
    let plans = time_set_up(&apps, p.setup_reps, &mut setups)?;
    synthesize(&mut apps, seed)?;
    let checker = Checker::new(p.corrupt);
    let mut outcome = Outcome::default();
    let off = Tracer::disabled();
    let mut budget = Budget::default();
    // One untimed round lets the allocator and caches settle; its frames
    // are checked like the rest.
    run_frames(
        &apps,
        &plans,
        0.0,
        &off,
        &checker,
        &mut outcome,
        &mut budget,
        None,
    )?;

    let metrics = if trace {
        let plain = run_frames(
            &apps,
            &plans,
            p.seconds * 0.4,
            &off,
            &checker,
            &mut outcome,
            &mut budget,
            None,
        )?;
        let tracer = Tracer::enabled();
        let traced = run_frames(
            &apps,
            &plans,
            p.seconds * 0.4,
            &tracer,
            &checker,
            &mut outcome,
            &mut budget,
            None,
        )?;
        let mut m = layers::Layers::default();
        let plain_mpix = app_mpix(&apps, &plain);
        for (a, v) in apps.iter().zip(&plain_mpix) {
            m.set(&format!("sim.{}.mpix_per_s", a.name), *v);
        }
        let all: Vec<f64> = traced.per_app.iter().flatten().copied().collect();
        m.set("sim.execute_us", common::mean(&all) * 1e6);
        if budget.kernel_us > 0 {
            m.set(
                "sim.achieved_gb_per_s",
                budget.kernel_bytes as f64 / budget.kernel_us as f64 / 1e3,
            );
        }
        let (mut plan, mut lower) = (Vec::new(), Vec::new());
        for a in &apps {
            let (pl, lo) = layers::plan_and_lower_us(&a.pipeline);
            plan.push(pl);
            lower.push(lo);
        }
        m.set("core.plan_us", common::mean(&plan));
        m.set("sim.lower_us", common::mean(&lower));
        let pipelines: Vec<&Pipeline> = apps.iter().map(|a| &a.pipeline).collect();
        let (before, after) = layers::kernel_counts(&pipelines);
        m.set("core.kernels_before", before);
        m.set("core.kernels_after", after);
        m.set(
            "obs.trace_overhead_pct",
            100.0
                * (common::geomean(&plain_mpix)
                    / common::geomean(&app_mpix(&apps, &traced)).max(1e-12)
                    - 1.0),
        );
        m.finish(&budget, &outcome)
    } else {
        let frames = run_frames(
            &apps,
            &plans,
            p.seconds,
            &off,
            &checker,
            &mut outcome,
            &mut budget,
            Some(&mut setups),
        )?;
        end_to_end(&apps, &frames, &setups)
    };
    outcome.metrics = metrics;
    outcome.mismatched = checker.mismatches();
    Ok(outcome)
}

fn end_to_end(apps: &[App], frames: &Frames, setups: &[f64]) -> Vec<Metric> {
    let mut all: Vec<f64> = frames.per_app.iter().flatten().map(|s| s * 1e3).collect();
    all.sort_by(f64::total_cmp);
    let per_round: Vec<f64> = frames
        .rounds
        .iter()
        .map(|r| apps.len() as f64 / r)
        .collect();
    let rate = common::median(&per_round);
    vec![
        metric("setup_s", common::median(setups), "s"),
        metric("latency_p50_ms", common::quantile(&all, 0.5), "ms"),
        metric("latency_p99_ms", common::quantile(&all, 0.99), "ms"),
        metric("sustained_req_per_s", rate, "1/s"),
        metric("frames_per_s", rate, "1/s"),
        metric(
            "mpix_per_s",
            common::geomean(&app_mpix(apps, frames)),
            "Mpix/s",
        ),
        metric("peak_rss_mb", common::peak_rss_mb(), "MiB"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window oracle's premise: away from cut edges, the reference
    /// result of a crop equals the full frame's.
    #[test]
    fn windows_agree_with_the_full_reference() {
        for a in paper_apps() {
            let p = (a.build_sized)(160, 150);
            let inputs: Vec<(ImageId, Image)> = p
                .inputs()
                .iter()
                .map(|&id| (id, synthetic_image(p.image(id).clone(), 9)))
                .collect();
            let full = execute_reference(&p, &inputs).unwrap();
            let wins = windows(a.build_sized, &p, &inputs).unwrap();
            let got: Vec<(ImageId, Image)> = p
                .outputs()
                .iter()
                .map(|&id| (id, full.expect_image(id).clone()))
                .collect();
            let app = App {
                name: a.name,
                build: a.build_sized,
                pipeline: p,
                inputs,
                mpix: 0.0,
                windows: wins,
            };
            assert!(matches(&app, &got), "{}", a.name);
            assert!(app
                .windows
                .iter()
                .all(|w| !w.xs.is_empty() && !w.ys.is_empty()));
        }
    }
}
