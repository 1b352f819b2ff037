//! `forward`: `QuantModel::predict_compiled_batch_scratch` called directly
//! on the three serving designs, serially, at batch 1 and batch 12. The
//! traced run walks the same batches through the public checkpoint API
//! one segment at a time and times `BatchPool` at batch 48.

use crate::fixture::{self, Design};
use crate::stats::{self, SplitMix64};
use crate::trace::Tracer;
use crate::{Ctx, Region, Report, DESIGNS, SETUP_REPS};
use quantize::{argmax_i8, BatchCheckpoint, BatchPool, BatchScratch};
use std::time::Instant;

/// Seeded input images per design (a multiple of every batch size used).
const POOL_INPUTS: usize = 240;
const BATCH: usize = 12;
const POOL_BATCH: usize = 48;
/// Batch-1 calls per design between two batch-12 calls.
const B1_PER_ROUND: usize = 12;
/// Rounds (every design: `B1_PER_ROUND` batch-1 calls, one batch-12 call)
/// per window of the timed run, about 150 ms.
const ROUNDS_PER_WINDOW: usize = 32;

/// What one window of the timed run measured.
#[derive(Default)]
struct Window {
    b1_ms: Vec<f64>,
    b12_ms: Vec<f64>,
    wall_s: f64,
}

struct Bench {
    d: Design,
    /// Quantized inputs, `POOL_INPUTS` back to back.
    flat: Vec<i8>,
    in_len: usize,
    /// Reference prediction per input.
    refs: Vec<usize>,
    scratch: BatchScratch,
}

impl Bench {
    fn inputs(&self, first: usize, n: usize) -> &[i8] {
        &self.flat[first * self.in_len..(first + n) * self.in_len]
    }

    fn predict(&mut self, first: usize, n: usize) -> Vec<usize> {
        let x = &self.flat[first * self.in_len..(first + n) * self.in_len];
        self.d.model.predict_compiled_batch_scratch(
            x,
            n,
            None,
            Some(&self.d.compiled),
            &mut self.scratch,
        )
    }

    fn wrong(&self, first: usize, preds: &[usize]) -> bool {
        preds != &self.refs[first..first + preds.len()]
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let data = fixture::dataset();
    let cifar = fixture::trained("mini_cifar", &data);
    let resnet = fixture::trained("mini_resnet", &data);
    let mut rng = SplitMix64::new(ctx.seed);
    let idx = fixture::sample_indices(fixture::TEST_POOL, POOL_INPUTS, &mut rng);
    let images = fixture::subset(&data.test, &idx);

    // Set-up: PTQ, significance, a thinned DSE and deploy(0.0) for the
    // approximate design, input quantization, scratch allocation and a
    // warm-up call per batch size.
    let (setup_s, mut benches) = crate::timed_setup(SETUP_REPS, || {
        fixture::designs(&cifar, &resnet, &data)
            .into_iter()
            .map(|d| {
                let in_len = d.model.input_shape.item_len();
                let flat: Vec<i8> = (0..POOL_INPUTS)
                    .flat_map(|i| d.model.quantize_input(images.image(i)))
                    .collect();
                let scratch = BatchScratch::for_model(&d.model, BATCH);
                let mut b = Bench {
                    d,
                    flat,
                    in_len,
                    refs: Vec::new(),
                    scratch,
                };
                std::hint::black_box(b.predict(0, 1));
                std::hint::black_box(b.predict(0, BATCH));
                b
            })
            .collect::<Vec<_>>()
    });
    // The oracle: the reference interpreter with each design's masks.
    for b in &mut benches {
        b.refs = (0..POOL_INPUTS)
            .map(|i| {
                argmax_i8(
                    &b.d.model
                        .forward_quantized(b.inputs(i, 1), b.d.masks.as_ref()),
                )
            })
            .collect();
    }

    let mut report = Report::default();
    if ctx.trace {
        traced(ctx, &mut benches, &mut report);
        return report;
    }
    report.set("setup_s", setup_s, "s");
    let mut region = Region::start();
    let mut windows: Vec<Window> = Vec::new();
    let (mut c1, mut c12) = (0usize, 0usize);
    while region.elapsed_s() < ctx.seconds {
        let mut w = Window::default();
        let start = Instant::now();
        for _ in 0..ROUNDS_PER_WINDOW {
            for b in benches.iter_mut() {
                for _ in 0..B1_PER_ROUND {
                    let i = c1 % POOL_INPUTS;
                    c1 += 1;
                    let t0 = Instant::now();
                    let p = b.predict(i, 1);
                    w.b1_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    report.attempted += 1;
                    report.failed += b.wrong(i, &p) as u64;
                }
                let i = (c12 % (POOL_INPUTS / BATCH)) * BATCH;
                c12 += 1;
                let t0 = Instant::now();
                let p = b.predict(i, BATCH);
                w.b12_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                report.attempted += 1;
                report.failed += b.wrong(i, &p) as u64;
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        windows.push(w);
        region.probe();
    }
    report.host(region);

    // Every window does the same work, so the quietest are the shortest.
    let cost: Vec<f64> = windows.iter().map(|w| w.wall_s).collect();
    let quiet: Vec<&Window> = stats::quiet_windows(&cost)
        .into_iter()
        .map(|i| &windows[i])
        .collect();
    let figures = |ws: &[&Window]| {
        let b1 = stats::sorted(
            &ws.iter()
                .flat_map(|w| w.b1_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        let b12 = stats::sorted(
            &ws.iter()
                .flat_map(|w| w.b12_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        (
            (b12.len() * BATCH) as f64 / (b12.iter().sum::<f64>() / 1e3),
            stats::percentile(&b1, 50.0).unwrap_or(0.0),
            stats::percentile(&b1, 90.0).unwrap_or(0.0),
            stats::percentile(&b1, 99.0).unwrap_or(0.0),
            b1.len(),
        )
    };
    let (work, p50, p90, p99, n_b1) = figures(&quiet);
    let all: Vec<&Window> = windows.iter().collect();
    let (all_work, all_p50, all_p90, _, _) = figures(&all);
    println!(
        "windows {} of {ROUNDS_PER_WINDOW} rounds, {} quietest read: batch-1 calls {n_b1}, \
         p99 {p99:.4} ms (supported: {}); whole run: batch-1 p50 {all_p50:.4} ms, \
         p90 {all_p90:.4} ms, batch 12 {all_work:.0} img/s",
        windows.len(),
        quiet.len(),
        stats::supports(n_b1, 99.0),
    );
    report.set("work_per_s", work, "1/s");
    report.set("p50_ms", p50, "ms");
    report.set("p90_ms", p90, "ms");
    report.set(
        "mcu_speedup_0loss",
        benches[1].d.cycles as f64 / benches[0].d.cycles as f64,
        "ratio",
    );
    report
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Per design: span names and per-conv timings of the segment walk.
struct Walk {
    whole: &'static str,
    segments: &'static str,
    fill: Vec<&'static str>,
    exec: Vec<&'static str>,
    fill_ns: Vec<Vec<f64>>,
    exec_ns: Vec<Vec<f64>>,
    plain_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    walk_ns: Vec<f64>,
}

fn traced(ctx: &Ctx, benches: &mut [Bench], report: &mut Report) {
    let mut tr = Tracer::new();
    let mut region = Region::start();
    let mut walks: Vec<Walk> = benches
        .iter()
        .map(|b| {
            let n = b.d.model.conv_indices().len();
            let name = b.d.name;
            Walk {
                whole: leak(format!("quantize.{name}.whole")),
                segments: leak(format!("quantize.{name}.segments")),
                fill: (0..n)
                    .map(|k| leak(format!("quantize.{name}.conv{k}.fill")))
                    .collect(),
                exec: (0..n)
                    .map(|k| leak(format!("quantize.{name}.conv{k}.exec")))
                    .collect(),
                fill_ns: vec![Vec::new(); n],
                exec_ns: vec![Vec::new(); n],
                plain_ns: Vec::new(),
                traced_ns: Vec::new(),
                walk_ns: Vec::new(),
            }
        })
        .collect();
    let (mut ck, mut next) = (BatchCheckpoint::empty(), BatchCheckpoint::empty());
    let (mut cols, mut preds) = (Vec::new(), Vec::new());
    let mut round = 0usize;
    while region.elapsed_s() < 0.75 * ctx.seconds {
        let i = (round % (POOL_INPUTS / BATCH)) * BATCH;
        for (j, (b, w)) in benches.iter_mut().zip(walks.iter_mut()).enumerate() {
            let req = (round * DESIGNS.len() + j) as u64;
            let t0 = Instant::now();
            let whole = b.predict(i, BATCH);
            w.plain_ns.push(t0.elapsed().as_nanos() as f64);
            let (again, ns) = tr.time(w.whole, None, req, || b.predict(i, BATCH));
            w.traced_ns.push(ns as f64);

            let Bench {
                d,
                flat,
                in_len,
                scratch,
                ..
            } = &mut *b;
            let (q, x) = (&d.model, &flat[i * *in_len..(i + BATCH) * *in_len]);
            let walk = tr.begin(w.segments, None, req);
            tr.time("quantize.start", Some(walk), req, || {
                q.batch_start_into(x, BATCH, scratch, &mut ck)
            });
            for k in 0..w.fill.len() {
                let (_, ns) = tr.time(w.fill[k], Some(walk), req, || {
                    q.batch_fill_conv_cols(&ck, scratch, &mut cols)
                });
                w.fill_ns[k].push(ns as f64);
                let stream = d.compiled.per_conv[k].as_ref();
                let (_, ns) = tr.time(w.exec[k], Some(walk), req, || {
                    q.batch_advance_into(&ck, stream, Some(&cols), scratch, &mut next)
                });
                w.exec_ns[k].push(ns as f64);
                std::mem::swap(&mut ck, &mut next);
            }
            tr.time("quantize.predictions", Some(walk), req, || {
                q.batch_checkpoint_predictions_into(&ck, &mut preds)
            });
            tr.end(walk);
            let span = &tr.spans[walk];
            w.walk_ns.push((span.end_ns - span.start_ns) as f64);
            report.attempted += 1;
            if b.wrong(i, &whole) || whole != again || whole != preds {
                report.failed += 1;
            }
        }
        region.probe();
        round += 1;
    }

    for (b, w) in benches.iter().zip(&walks) {
        let name = b.d.name;
        for (k, (fill, exec)) in w.fill_ns.iter().zip(&w.exec_ns).enumerate() {
            let conv = b.d.model.conv(k);
            let dense = (conv.geom.out_c * conv.patch_len()) as u64;
            let retained = b.d.compiled.per_conv[k]
                .as_ref()
                .map_or(dense, |cc| cc.retained_products());
            let macs = (retained * conv.geom.out_positions() as u64 * BATCH as u64) as f64;
            let exec = stats::median(exec);
            let prefix = format!("quantize.{name}.conv{k}");
            report.set(
                format!("{prefix}.fill_ns_per_img"),
                stats::median(fill) / BATCH as f64,
                "ns",
            );
            report.set(
                format!("{prefix}.exec_ns_per_img"),
                exec / BATCH as f64,
                "ns",
            );
            report.set(format!("{prefix}.gmac_per_s"), macs / exec, "GMAC/s");
            if name == "approx" {
                report.set(
                    format!("{prefix}.retained_ratio"),
                    retained as f64 / dense as f64,
                    "ratio",
                );
            }
        }
        report.set(
            format!("quantize.{name}.segments_vs_whole"),
            stats::median(&w.walk_ns) / stats::median(&w.plain_ns),
            "ratio",
        );
    }
    report.set(
        "quantize.approx_vs_exact",
        stats::median(&walks[1].plain_ns) / stats::median(&walks[0].plain_ns),
        "ratio",
    );
    let plain: Vec<f64> = walks
        .iter()
        .flat_map(|w| w.plain_ns.iter().copied())
        .collect();
    let traced: Vec<f64> = walks
        .iter()
        .flat_map(|w| w.traced_ns.iter().copied())
        .collect();
    report.set(
        "host.trace_overhead",
        stats::median(&traced) / stats::median(&plain),
        "ratio",
    );

    // BatchPool at width nproc against serial, batch 48, interleaved.
    let pool = BatchPool::new(crate::host::nproc());
    let mut scratches: Vec<(BatchScratch, BatchScratch)> = benches
        .iter()
        .map(|b| {
            let mut pooled = BatchScratch::for_model(&b.d.model, POOL_BATCH);
            pooled.set_pool(Some(pool.clone()));
            (BatchScratch::for_model(&b.d.model, POOL_BATCH), pooled)
        })
        .collect();
    let (mut serial_s, mut pooled_s, mut imgs) = (0.0, 0.0, 0usize);
    let pool_start = Instant::now();
    while pool_start.elapsed().as_secs_f64() < 0.25 * ctx.seconds || imgs == 0 {
        for (b, (serial, pooled)) in benches.iter().zip(scratches.iter_mut()) {
            let x = b.inputs(0, POOL_BATCH);
            for (s, acc) in [(serial, &mut serial_s), (pooled, &mut pooled_s)] {
                let t0 = Instant::now();
                let p = b.d.model.predict_compiled_batch_scratch(
                    x,
                    POOL_BATCH,
                    None,
                    Some(&b.d.compiled),
                    s,
                );
                *acc += t0.elapsed().as_secs_f64();
                report.attempted += 1;
                report.failed += b.wrong(0, &p) as u64;
            }
        }
        imgs += benches.len() * POOL_BATCH;
        region.probe();
    }
    report.set(
        "quantize.pool2.img_per_s_b48",
        imgs as f64 / pooled_s,
        "img/s",
    );
    report.set("quantize.pool2.speedup_b48", serial_s / pooled_s, "ratio");
    report.host(region);

    crate::write_spans(ctx, "forward", &tr, report);
}
