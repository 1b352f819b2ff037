//! `dse-paper`: the paper's step ④ on its own design space.
//!
//! One op is `ataman::Framework::analyze` plus `deploy` at 0/5/10% loss,
//! for the trained `mini_cifar` on `DseSpace::paper(3, 0.001)` (707
//! designs) and the trained `mini_resnet` on `DseSpace::paper(5, 0.01)`
//! (341 designs), each over the first 128 images of the test pool in an
//! order the seed draws (the set is fixed, so every seed explores the same
//! designs and `mcu_speedup_0loss` is comparable across seeds). The oracle
//! compares a seeded sample of designs with `dse::explore_reference`,
//! field by field.

use crate::fixture::{self, mcu_cycles};
use crate::stats::{self, SplitMix64};
use crate::trace::Tracer;
use crate::{Ctx, Region, Report, SETUP_REPS};
use ataman::{AtamanConfig, Deployment, Framework};
use cifar10sim::SyntheticCifar;
use dse::{DseEvalCache, DseSpace, EvaluatedDesign, ExploreOptions, TauTrie};
use signif::{capture_mean_inputs, SignificanceMap, StreamMemo};
use std::time::Instant;
use tinynn::Sequential;

/// Evaluation images: few enough that a run holds some 25 ops, so its
/// quietest tenth (see [`stats::QUIET_SHARE`]) is more than one op.
const EVAL_IMAGES: usize = 128;
const CALIB_IMAGES: usize = 64;
const LOSSES: [f32; 3] = [0.0, 0.05, 0.10];
/// Designs per model the oracle re-evaluates through the reference path.
const ORACLE_DESIGNS: usize = 6;

struct Subject {
    name: &'static str,
    model: Sequential,
    tau_step: f64,
}

fn config(tau_step: f64, max_configs: usize) -> AtamanConfig {
    AtamanConfig {
        calib_images: CALIB_IMAGES,
        eval_images: EVAL_IMAGES,
        tau_step,
        max_configs,
        ..AtamanConfig::default()
    }
}

/// What one timed op measured.
#[derive(Default)]
struct Op {
    ms: f64,
    designs: usize,
    analyze_s: f64,
}

fn designs_equal(a: &EvaluatedDesign, b: &EvaluatedDesign) -> bool {
    a.taus == b.taus
        && a.accuracy == b.accuracy
        && a.est_cycles == b.est_cycles
        && a.est_flash == b.est_flash
        && a.retained_macs == b.retained_macs
        && a.conv_mac_reduction == b.conv_mac_reduction
        && a.skipped_products == b.skipped_products
}

/// The op: analyze, then deploy at every loss budget.
fn op(s: &Subject, data: &SyntheticCifar) -> (Framework, f64, Vec<Option<Deployment>>) {
    let t0 = Instant::now();
    let fw = Framework::analyze(&s.model, data, config(s.tau_step, 0));
    let analyze_s = t0.elapsed().as_secs_f64();
    let deps = LOSSES.iter().map(|&l| fw.deploy(l).ok()).collect();
    (fw, analyze_s, deps)
}

/// Reference check of a seeded sample of `fw`'s designs; returns the
/// mismatches.
fn oracle(s: &Subject, fw: &Framework, data: &SyntheticCifar, rng: &mut SplitMix64) -> u64 {
    let q = fw.quant_model();
    let configs = DseSpace::paper(q.conv_indices().len(), s.tau_step).configs();
    let designs = &fw.dse_report().designs;
    if designs.len() != configs.len() {
        return 1;
    }
    let picks = fixture::sample_indices(configs.len(), ORACLE_DESIGNS, rng);
    let sample: Vec<_> = picks.iter().map(|&i| configs[i].clone()).collect();
    let opts = ExploreOptions {
        eval_images: EVAL_IMAGES,
        unpack: fw.config().unpack,
        cost: mcusim::CostModel::cortex_m33(),
    };
    let reference = dse::explore_reference(q, fw.significance(), &data.test, &sample, &opts);
    picks
        .iter()
        .zip(&reference)
        .filter(|(&i, r)| !designs_equal(&designs[i], r))
        .count() as u64
}

pub fn run(ctx: &Ctx) -> Report {
    let data = fixture::dataset();
    let subjects = [
        Subject {
            name: "mini_cifar",
            model: fixture::trained("mini_cifar", &data),
            tau_step: 0.001,
        },
        Subject {
            name: "mini_resnet",
            model: fixture::trained("mini_resnet", &data),
            tau_step: 0.01,
        },
    ];
    let mut rng = SplitMix64::new(ctx.seed);
    let eval_idx = fixture::sample_indices(EVAL_IMAGES, EVAL_IMAGES, &mut rng);

    // Set-up: the seeded evaluation split plus a warm-up analysis of a
    // thinned space per model (pages code in, sizes the rayon pool).
    let (setup_s, split) = crate::timed_setup(SETUP_REPS, || {
        let split = SyntheticCifar {
            train: data.train.take(CALIB_IMAGES),
            test: fixture::subset(&data.test, &eval_idx),
            config: data.config,
        };
        for s in &subjects {
            let fw = Framework::analyze(&s.model, &split, config(s.tau_step, 24));
            std::hint::black_box(fw.deploy(0.0).ok());
        }
        split
    });

    let mut report = Report::default();
    if ctx.trace {
        traced(ctx, &subjects, &split, &mut report);
    } else {
        report.set("setup_s", setup_s, "s");
        timed(ctx, &subjects, &split, &mut rng, &mut report);
    }
    report
}

fn timed(
    ctx: &Ctx,
    subjects: &[Subject],
    split: &SyntheticCifar,
    rng: &mut SplitMix64,
    report: &mut Report,
) {
    let mut region = Region::start();
    let mut ops: Vec<Op> = Vec::new();
    let mut first_cycles: Vec<Vec<Option<u64>>> = Vec::new();
    let mut last;
    loop {
        let t_op = Instant::now();
        let mut results = Vec::new();
        let mut o = Op::default();
        for s in subjects {
            let (fw, a, deps) = op(s, split);
            o.analyze_s += a;
            o.designs += fw.dse_report().designs.len();
            results.push((fw, deps));
        }
        o.ms = t_op.elapsed().as_secs_f64() * 1e3;
        ops.push(o);
        region.probe();
        // Every op must select the same designs: the DSE is deterministic.
        for (i, (_, deps)) in results.iter().enumerate() {
            let cycles: Vec<Option<u64>> =
                deps.iter().map(|d| d.as_ref().map(|d| d.cycles)).collect();
            report.attempted += 1;
            if cycles[0].is_none() {
                report.failed += 1;
            }
            match first_cycles.get(i) {
                Some(first) if *first != cycles => report.failed += 1,
                Some(_) => {}
                None => first_cycles.push(cycles),
            }
        }
        last = results;
        let done = region.elapsed_s();
        let per_op = stats::median(&ops.iter().map(|o| o.ms).collect::<Vec<_>>()) / 1e3;
        if done + per_op > ctx.seconds {
            break;
        }
    }
    report.host(region);

    // mcu_speedup_0loss: exact cycles over the cycles of the design
    // deploy(0.0) selects, geometric mean over the two models.
    let mut log_speedup = 0.0;
    for (s, (fw, deps)) in subjects.iter().zip(&last) {
        let exact = mcu_cycles(fw.quant_model(), None, fw.config().unpack);
        let at0 = deps[0].as_ref().map_or(exact, |d| d.cycles);
        println!(
            "{}: {} designs, baseline accuracy {:.3}, exact {exact} cycles, deploy(0.0) {at0} cycles",
            s.name,
            fw.dse_report().designs.len(),
            fw.dse_report().baseline_accuracy
        );
        log_speedup += (exact as f64 / at0 as f64).ln();
        report.failed += oracle(s, fw, split, rng);
    }
    // Every op does the same work, so the quietest are the shortest.
    let all_ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let quiet: Vec<&Op> = stats::quiet_windows(&all_ms)
        .into_iter()
        .map(|i| &ops[i])
        .collect();
    let quiet_ms = stats::sorted(&quiet.iter().map(|o| o.ms).collect::<Vec<_>>());
    let designs: usize = quiet.iter().map(|o| o.designs).sum();
    let analyze_s: f64 = quiet.iter().map(|o| o.analyze_s).sum();
    println!(
        "ops {}, {} quietest read; whole run: median op {:.0} ms, {:.1} designs/s \
         (p90 is nearest rank: the maximum below 10 samples)",
        ops.len(),
        quiet.len(),
        stats::median(&all_ms),
        ops.iter().map(|o| o.designs).sum::<usize>() as f64
            / ops.iter().map(|o| o.analyze_s).sum::<f64>()
    );
    report.set("work_per_s", designs as f64 / analyze_s, "1/s");
    report.set(
        "p50_ms",
        stats::percentile(&quiet_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    report.set(
        "p90_ms",
        stats::percentile(&quiet_ms, 90.0).unwrap_or(0.0),
        "ms",
    );
    report.set(
        "mcu_speedup_0loss",
        (log_speedup / subjects.len() as f64).exp(),
        "ratio",
    );
}

/// The traced run: per model, one plain op, the same op inside spans, and
/// the facade's steps called one at a time.
fn traced(ctx: &Ctx, subjects: &[Subject], split: &SyntheticCifar, report: &mut Report) {
    let mut region = Region::start();
    let mut tr = Tracer::new();
    let mut sums: std::collections::BTreeMap<&'static str, f64> = Default::default();
    let mut add = |k: &'static str, v: f64| *sums.entry(k).or_default() += v;
    let (mut plain_s, mut traced_s, mut whole_s, mut parts_s) = (0.0, 0.0, 0.0, 0.0);
    let span_s =
        |tr: &Tracer, id: usize| (tr.spans[id].end_ns - tr.spans[id].start_ns) as f64 / 1e9;
    for (req, s) in subjects.iter().enumerate() {
        let req = req as u64;
        let t0 = Instant::now();
        std::hint::black_box(op(s, split));
        plain_s += t0.elapsed().as_secs_f64();
        region.probe();

        // The whole op inside spans.
        let t0 = Instant::now();
        let root = tr.begin("ataman.op", None, req);
        let (fw, analyze_ns) = tr.time("ataman.analyze", Some(root), req, || {
            Framework::analyze(&s.model, split, config(s.tau_step, 0))
        });
        let mut deps = Vec::new();
        for &l in &LOSSES {
            let (d, ns) = tr.time("ataman.deploy", Some(root), req, || fw.deploy(l).ok());
            add("ataman.deploy_s", ns as f64 / 1e9);
            deps.push(d);
        }
        tr.end(root);
        traced_s += t0.elapsed().as_secs_f64();
        whole_s += analyze_ns as f64 / 1e9;
        region.probe();

        // The same analysis, one public step at a time.
        let q = fw.quant_model();
        let n = q.conv_indices().len();
        let cfg = fw.config();
        let calib = split.train.take(cfg.calib_images);
        let eval = split.test.take(cfg.eval_images);
        let parts = tr.begin("dse.parts", None, req);
        let (qm, _) = tr.time("quantize.ptq", Some(parts), req, || {
            quantize::quantize_model(&s.model, &quantize::calibrate_ranges(&s.model, &calib))
        });
        let (means, ns) = tr.time("signif.capture", Some(parts), req, || {
            capture_mean_inputs(&qm, &calib)
        });
        add("signif.capture_s", ns as f64 / 1e9);
        let (sig, ns) = tr.time("signif.score", Some(parts), req, || {
            SignificanceMap::compute(&qm, &means)
        });
        add("signif.score_s", ns as f64 / 1e9);
        tr.time("quantize.baseline_accuracy", Some(parts), req, || {
            qm.accuracy(&eval, None)
        });
        let configs = DseSpace::paper(n, s.tau_step).configs();
        let (cache, ns) = tr.time("dse.cache_build", Some(parts), req, || {
            DseEvalCache::new(&qm, &eval)
        });
        add("dse.cache_build_s", ns as f64 / 1e9);
        let memo = StreamMemo::new(&qm, &sig);
        let (trie, _) = tr.time("dse.trie_build", Some(parts), req, || {
            TauTrie::build(n, &configs)
        });
        let (acc, ns) = tr.time("dse.accuracy", Some(parts), req, || {
            cache.accuracies_trie(&qm, &memo, &trie)
        });
        add("dse.accuracy_s", ns as f64 / 1e9);
        let cost_model = mcusim::CostModel::cortex_m33();
        let (costs, ns) = tr.time("dse.cost", Some(parts), req, || {
            configs
                .iter()
                .map(|t| {
                    let streams = memo.design(t);
                    (
                        dse::estimate_stats_streams(&qm, &streams, cfg.unpack).cycles(&cost_model),
                        dse::estimate_flash_streams(&qm, &streams, cfg.unpack),
                    )
                })
                .collect::<Vec<_>>()
        });
        add("dse.cost_s", ns as f64 / 1e9);
        let designs = &fw.dse_report().designs;
        let (front, ns) = tr.time("dse.pareto", Some(parts), req, || {
            dse::pareto_front(designs)
        });
        add("dse.pareto_s", ns as f64 / 1e9);
        tr.end(parts);
        parts_s += span_s(&tr, parts);

        // The parts must reproduce the whole.
        report.attempted += 1;
        let same = designs.len() == configs.len()
            && designs.iter().zip(&acc).all(|(d, a)| d.accuracy == *a)
            && designs
                .iter()
                .zip(&costs)
                .all(|(d, &(c, f))| d.est_cycles == c && d.est_flash == f)
            && front == fw.dse_report().pareto;
        if !same || deps[0].is_none() {
            report.failed += 1;
        }

        add("dse.trie_segments", trie.segments() as f64);
        add("dse.naive_segments", trie.naive_segments() as f64);
        add("dse.memo_entries", memo.entries() as f64);
        add("dse.memo_bytes", memo.resident_bytes() as f64);
        add("dse.cache_bytes", cache.resident_bytes() as f64);
        add("dse.trie_scratch_bytes", cache.trie_scratch_bytes() as f64);
        add("dse.pareto_size", front.len() as f64);
        add(
            "mcusim.cycles_exact",
            mcu_cycles(q, None, cfg.unpack) as f64,
        );
        for (name, d) in [
            "mcusim.cycles_loss0",
            "mcusim.cycles_loss5",
            "mcusim.cycles_loss10",
        ]
        .into_iter()
        .zip(&deps)
        {
            add(name, d.as_ref().map_or(0.0, |d| d.cycles as f64));
        }
    }
    report.host(region);
    for (k, v) in &sums {
        let unit = match *k {
            k if k.ends_with("_s") => "s",
            k if k.ends_with("bytes") => "bytes",
            k if k.starts_with("mcusim") => "cycles",
            _ => "count",
        };
        report.set(*k, *v, unit);
    }
    report.set(
        "dse.sharing",
        sums["dse.naive_segments"] / sums["dse.trie_segments"],
        "ratio",
    );
    report.set("dse.parts_vs_whole", parts_s / whole_s, "ratio");
    report.set("host.trace_overhead", traced_s / plain_s, "ratio");
    crate::write_spans(ctx, "dse-paper", &tr, report);
}
