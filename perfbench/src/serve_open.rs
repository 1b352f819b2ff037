//! `serve-open`: an open-loop, seeded Poisson stream through
//! `Gateway::submit` on a 1-shard fleet serving `mini-approx`,
//! `mini-exact` and `mini-resnet` with equal shares, over a fixed ladder
//! of rates from light load past saturation, then a saturating phase that
//! measures the fleet's capacity.
//!
//! One thread submits on schedule and one collects replies. A request
//! refused at admission is not retried; it counts as failed. Latency runs
//! from the due time to the moment the collector holds the reply, and the
//! generator's own lateness is reported beside it.

use crate::fixture::{self, Design};
use crate::stats::{self, StepVerdict};
use crate::trace::Tracer;
use crate::{Ctx, Region, Report, SERVE_FAILURES, SERVE_STAGES, SETUP_REPS};
use ataman_serve::{
    CostContract, DeployedModel, Gateway, Outcome, Registry, Reply, Request, ServeOptions,
    SubmitError,
};
use cifar10sim::Dataset;
use quantize::argmax_i8;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// The rate ladder, requests/s. The second step is the nominal rate
/// `serve.nominal.latency_ms_*` is read at; the last is past saturation.
pub const LADDER: [u32; 4] = [1000, 2500, 6000, 15000];
const NOMINAL: usize = 1;
/// The latency limit `serve.slo_rate` holds p99 to.
pub const P99_LIMIT_MS: f64 = 5.0;
/// Requests in a step, and in each window a p99 is taken over: at least
/// enough for ten samples beyond p99.
const MIN_STEP_REQUESTS: usize = 1000;
/// One shard: with two, the fleet and the load generator run more busy
/// threads than this 2-vCPU host has, and a slice is quiet only when both
/// vCPUs are; its throughput then spread twice as wide between runs.
const WORKERS: usize = 1;
const MAX_BATCH: usize = 12;
const POOL_INPUTS: usize = 256;
/// Replies the collector polls per sweep, oldest first.
const SWEEP: usize = 64;
/// Requests in flight during the saturating phase: four full batches per
/// shard, so every batch leaves full.
const FLOOD_WINDOW: usize = 4 * MAX_BATCH * WORKERS;
/// Slices the saturating phase is cut into, by reply time, s.
const FLOOD_SLICE_S: f64 = 0.1;
/// Every how many requests the traced run records spans.
const SPAN_EVERY: usize = 8;
const MODELS: [&str; 3] = ["mini-approx", "mini-exact", "mini-resnet"];

struct Fleet {
    gateway: Gateway,
    /// Quantized inputs per model.
    inputs: Vec<Vec<Vec<i8>>>,
    /// Reference prediction per model and input.
    refs: Vec<Vec<usize>>,
    designs: Vec<Design>,
}

fn start_fleet(designs: Vec<Design>, images: &Dataset) -> Fleet {
    let registry = Registry::new();
    let board = mcusim::Board::stm32u575();
    for (name, d) in MODELS.iter().zip(&designs) {
        let contract = CostContract {
            cycles: d.cycles,
            latency_ms: board.cycles_to_ms(d.cycles),
            energy_mj: 0.0,
            flash_bytes: 0,
        };
        registry
            .deploy(DeployedModel::from_parts(
                *name,
                d.model.clone(),
                d.compiled.clone(),
                contract,
            ))
            .expect("the fixture designs pass the registry's plan checks");
    }
    // No deadline can expire and no queue can fill: past saturation the
    // backlog grows instead, which the backlog rule detects.
    let opts = ServeOptions::builder()
        .workers(WORKERS)
        .max_batch(MAX_BATCH)
        .max_queue_depth(1 << 20)
        .deadline(Duration::from_secs(120))
        .build()
        .expect("valid fleet options");
    let gateway = Gateway::start(registry, opts);
    let inputs: Vec<Vec<Vec<i8>>> = designs
        .iter()
        .map(|d| {
            (0..images.len())
                .map(|i| d.model.quantize_input(images.image(i)))
                .collect()
        })
        .collect();
    // Warm-up: every model on every shard, a few batches each.
    let rxs: Vec<_> = (0..64 * MODELS.len())
        .filter_map(|i| {
            let m = i % MODELS.len();
            let req = Request::quantized(MODELS[m], inputs[m][i % images.len()].clone());
            gateway.submit(req).ok()
        })
        .collect();
    for rx in rxs {
        let _ = rx.recv();
    }
    Fleet {
        gateway,
        inputs,
        refs: Vec::new(),
        designs,
    }
}

#[derive(Clone, Copy)]
struct Meta {
    id: usize,
    model: usize,
    input: usize,
    due: Instant,
    t_sub: Instant,
    t_end: Instant,
}

struct Done {
    meta: Meta,
    observed: Instant,
    /// `None`: the reply channel closed without an outcome.
    outcome: Option<Outcome>,
}

/// The collector: holds reply channels oldest first, polls the oldest
/// `SWEEP`, and otherwise blocks on the oldest one. A reply that overtakes
/// the oldest is picked up when the oldest arrives (at most 1 ms later);
/// `serve.deliver_us` shows that delay.
fn collect(rx: Receiver<(Meta, Receiver<Outcome>)>) -> Vec<Done> {
    let mut pending: VecDeque<(Meta, Receiver<Outcome>)> = VecDeque::new();
    let mut done = Vec::new();
    let mut open = true;
    let finish =
        |pending: &mut VecDeque<(Meta, Receiver<Outcome>)>, i, outcome, done: &mut Vec<Done>| {
            let (meta, _) = pending.remove(i).expect("index in range");
            done.push(Done {
                meta,
                observed: Instant::now(),
                outcome,
            });
        };
    loop {
        while open {
            match rx.try_recv() {
                Ok(p) => pending.push_back(p),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        if pending.is_empty() {
            if !open {
                return done;
            }
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(p) => pending.push_back(p),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
            continue;
        }
        let mut got = false;
        let mut i = 0;
        while i < pending.len().min(SWEEP) {
            match pending[i].1.try_recv() {
                Ok(o) => finish(&mut pending, i, Some(o), &mut done),
                Err(TryRecvError::Disconnected) => finish(&mut pending, i, None, &mut done),
                Err(TryRecvError::Empty) => {
                    i += 1;
                    continue;
                }
            }
            got = true;
        }
        if !got {
            match pending[0].1.recv_timeout(Duration::from_millis(1)) {
                Ok(o) => finish(&mut pending, 0, Some(o), &mut done),
                Err(RecvTimeoutError::Disconnected) => finish(&mut pending, 0, None, &mut done),
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }
}

/// Sleep until close to `due`, then spin the last few microseconds.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(15) {
            std::thread::sleep(left - Duration::from_micros(10));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Ask for 1 µs timer slack on the calling thread (and the threads it
/// spawns later), so the generator's sleeps end on time instead of up to
/// 50 µs late. Best effort: the lateness is measured either way.
fn tighten_timer_slack() {
    let _ = std::fs::write("/proc/self/timerslack_ns", "1000");
}

fn refusal(e: &SubmitError) -> usize {
    match e {
        SubmitError::Shed { .. } => 1,
        SubmitError::QueueFull { .. } => 2,
        // Unknown model, bad input length or closed admission: the
        // request cannot succeed.
        _ => 4,
    }
}

fn failure(o: &Option<Outcome>) -> Option<usize> {
    match o {
        Some(Outcome::Ok(_)) => None,
        Some(Outcome::Expired(_)) => Some(0),
        Some(Outcome::Shed(_)) => Some(1),
        Some(Outcome::WorkerCrashed(_)) => Some(3),
        Some(Outcome::Closed(_)) => Some(4),
        None => Some(5),
    }
}

/// What one ladder step measured.
struct Step {
    rate: f64,
    sent: usize,
    ok: usize,
    wrong: usize,
    fails: [usize; 6],
    answered_in_window: usize,
    lat_ms: Vec<f64>,
    stages: [Vec<f64>; 6],
    lag_us: Vec<f64>,
    batch_sum: usize,
    /// Time spent recording spans after the step (traced runs).
    span_ns: u128,
}

impl Step {
    fn verdict(&self) -> StepVerdict {
        StepVerdict {
            rate: self.rate,
            p99_ms: stats::percentile(&stats::sorted(&self.lat_ms), 99.0).unwrap_or(f64::MAX),
            failed: self.failed(),
            backlog_growing: stats::backlog_growing(self.sent, self.answered_in_window),
        }
    }

    fn failed(&self) -> usize {
        self.fails.iter().sum::<usize>() + self.wrong
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One open-loop step: `n` seeded Poisson arrivals at `rate`.
fn run_step(fleet: &Fleet, seed: u64, rate: f64, n: usize, tr: Option<&mut Tracer>) -> Step {
    let sched = stats::poisson_schedule(seed, rate, n, MODELS.len(), POOL_INPUTS);
    let (tx, rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(2);
    let window_end = start + Duration::from_nanos(sched.last().map_or(0, |a| a.due_ns));
    let (done, refused) = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(rx));
        let mut refused = Vec::new();
        for (id, a) in sched.iter().enumerate() {
            let due = start + Duration::from_nanos(a.due_ns);
            let req = Request::quantized(MODELS[a.model], fleet.inputs[a.model][a.input].clone());
            wait_until(due);
            let t_sub = Instant::now();
            let r = fleet.gateway.submit(req);
            let meta = Meta {
                id,
                model: a.model,
                input: a.input,
                due,
                t_sub,
                t_end: Instant::now(),
            };
            match r {
                Ok(reply) => tx.send((meta, reply)).expect("collector is running"),
                Err(e) => refused.push((meta, refusal(&e))),
            }
        }
        drop(tx);
        (collector.join().expect("collector thread"), refused)
    });

    let mut step = Step {
        rate,
        sent: sched.len(),
        ok: 0,
        wrong: 0,
        fails: [0; 6],
        answered_in_window: 0,
        lat_ms: Vec::with_capacity(done.len()),
        stages: Default::default(),
        lag_us: Vec::with_capacity(sched.len()),
        batch_sum: 0,
        span_ns: 0,
    };
    for (meta, kind) in &refused {
        step.fails[*kind] += 1;
        step.lag_us
            .push(us(meta.t_sub.saturating_duration_since(meta.due)));
    }
    let mut tr = tr;
    for d in &done {
        let m = &d.meta;
        step.lag_us
            .push(us(m.t_sub.saturating_duration_since(m.due)));
        if d.observed <= window_end {
            step.answered_in_window += 1;
        }
        if let Some(k) = failure(&d.outcome) {
            step.fails[k] += 1;
            continue;
        }
        let Some(Outcome::Ok(r)) = &d.outcome else {
            unreachable!("failure() returned None for a non-Ok outcome")
        };
        step.ok += 1;
        if r.predicted != fleet.refs[m.model][m.input] {
            step.wrong += 1;
        }
        step.batch_sum += r.batch_size;
        step.lat_ms
            .push(d.observed.saturating_duration_since(m.due).as_secs_f64() * 1e3);
        for (v, x) in step.stages.iter_mut().zip(stage_us(m, d.observed, r)) {
            v.push(x);
        }
        if let Some(tr) = tr.as_deref_mut() {
            if m.id % SPAN_EVERY == 0 {
                let t0 = Instant::now();
                request_spans(tr, seed, m, d.observed, r);
                step.span_ns += t0.elapsed().as_nanos();
            }
        }
    }
    step
}

/// `[admit, queue, exec, exec per image, rest, deliver]`, µs.
fn stage_us(m: &Meta, observed: Instant, r: &Reply) -> [f64; 6] {
    let latency = us(r.latency);
    let (queued, exec) = (r.queued_us as f64, r.exec_us as f64);
    [
        us(m.t_end - m.t_sub),
        queued,
        exec,
        exec / r.batch_size.max(1) as f64,
        (latency - queued - exec).max(0.0),
        (us(observed.saturating_duration_since(m.t_end)) - latency).max(0.0),
    ]
}

/// A request's spans: the request from due time to reply, with its
/// admission, queue, execution, rest-of-server and delivery children. The
/// server stages hang off the admission's end (where the gateway stamps
/// the request).
fn request_spans(tr: &mut Tracer, seed: u64, m: &Meta, observed: Instant, r: &Reply) {
    let req = seed.wrapping_mul(1 << 32) + m.id as u64;
    let root = tr.add("loadgen.request", None, req, tr.ns(m.due), tr.ns(observed));
    tr.add("loadgen.lag", Some(root), req, tr.ns(m.due), tr.ns(m.t_sub));
    tr.add(
        "serve.admit",
        Some(root),
        req,
        tr.ns(m.t_sub),
        tr.ns(m.t_end),
    );
    let s0 = tr.ns(m.t_end);
    let server = tr.add(
        "serve.server",
        Some(root),
        req,
        s0,
        s0 + r.latency.as_nanos() as u64,
    );
    let q_end = s0 + r.queued_us * 1000;
    tr.add("serve.queue", Some(server), req, s0, q_end);
    tr.add(
        "serve.exec",
        Some(server),
        req,
        q_end,
        q_end + r.exec_us * 1000,
    );
    tr.add(
        "serve.deliver",
        Some(root),
        req,
        s0 + r.latency.as_nanos() as u64,
        tr.ns(observed),
    );
}

/// What the saturating phase measured.
struct Flood {
    /// Ok replies per second over the whole phase.
    rate: f64,
    /// Submit-to-reply latency of every Ok reply, ms, by the
    /// `FLOOD_SLICE_S` slice of the phase the reply arrived in (the last,
    /// partial slice dropped).
    slices: Vec<Vec<f64>>,
    sent: usize,
    wrong: usize,
    failed: usize,
}

impl Flood {
    /// Ok replies per second and the p50, p90 and p99 latency, ms, over
    /// `slices`.
    fn figures(&self, slices: &[usize]) -> (f64, f64, f64, f64) {
        let lat = stats::sorted(
            &slices
                .iter()
                .flat_map(|&i| self.slices[i].iter().copied())
                .collect::<Vec<_>>(),
        );
        (
            lat.len() as f64 / (slices.len() as f64 * FLOOD_SLICE_S),
            stats::percentile(&lat, 50.0).unwrap_or(0.0),
            stats::percentile(&lat, 90.0).unwrap_or(0.0),
            stats::percentile(&lat, 99.0).unwrap_or(0.0),
        )
    }
}

/// The saturating phase: keep `FLOOD_WINDOW` requests in flight for
/// `seconds`, counting completions and timing each request.
fn flood(fleet: &Fleet, seed: u64, seconds: f64) -> Flood {
    let mut rng = stats::SplitMix64::new(seed);
    let mut window: VecDeque<(usize, usize, Instant, Receiver<Outcome>)> = VecDeque::new();
    let mut slices: Vec<Vec<f64>> = Vec::new();
    let (mut ok, mut wrong, mut failed, mut sent) = (0usize, 0usize, 0usize, 0usize);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut end = start;
    loop {
        let now = Instant::now();
        while now < stop && window.len() < FLOOD_WINDOW {
            let model = rng.below(MODELS.len() as u64) as usize;
            let input = rng.below(POOL_INPUTS as u64) as usize;
            let req = Request::quantized(MODELS[model], fleet.inputs[model][input].clone());
            sent += 1;
            let t0 = Instant::now();
            match fleet.gateway.submit(req) {
                Ok(rx) => window.push_back((model, input, t0, rx)),
                Err(_) => failed += 1,
            }
        }
        let Some((model, input, t0, rx)) = window.pop_front() else {
            break;
        };
        match rx.recv() {
            Ok(Outcome::Ok(r)) => {
                ok += 1;
                wrong += (r.predicted != fleet.refs[model][input]) as usize;
                end = Instant::now();
                let slice = ((end - start).as_secs_f64() / FLOOD_SLICE_S) as usize;
                if slices.len() <= slice {
                    slices.resize_with(slice + 1, Vec::new);
                }
                slices[slice].push((end - t0).as_secs_f64() * 1e3);
            }
            _ => failed += 1,
        }
    }
    // The last slice ends when the window drains, not after FLOOD_SLICE_S.
    slices.pop();
    Flood {
        rate: ok as f64 / (end - start).as_secs_f64(),
        slices,
        sent,
        wrong,
        failed,
    }
}

/// The median over consecutive windows of `MIN_STEP_REQUESTS` samples of
/// each window's p99, so one host stall moves one window (the whole
/// sample's p99 when it holds a single window).
fn windowed_p99(xs: &[f64]) -> f64 {
    let per_window: Vec<f64> = xs
        .chunks_exact(MIN_STEP_REQUESTS)
        .map(|w| stats::percentile(&stats::sorted(w), 99.0).unwrap_or(0.0))
        .collect();
    if per_window.is_empty() {
        stats::percentile(&stats::sorted(xs), 99.0).unwrap_or(0.0)
    } else {
        stats::median(&per_window)
    }
}

/// Requests in each ladder step for a traced run of `seconds`: the
/// nominal step gets 40% of the time and the other steps below saturation
/// a tenth each, never fewer than `MIN_STEP_REQUESTS`; the step past
/// saturation holds just `MIN_STEP_REQUESTS`, so its backlog stays small.
/// (The saturating phase takes the last 30%.) An untraced run reads its
/// figures from the saturating phase, so its ladder is as short as the
/// ten-beyond rule allows: `MIN_STEP_REQUESTS` a step, under 2 s.
fn step_requests(seconds: f64, traced: bool) -> [usize; 4] {
    let mut n = [MIN_STEP_REQUESTS; 4];
    if !traced {
        return n;
    }
    for (i, &rate) in LADDER.iter().enumerate().take(LADDER.len() - 1) {
        let share = if i == NOMINAL { 0.4 } else { 0.1 };
        n[i] = ((rate as f64 * share * seconds) as usize).max(MIN_STEP_REQUESTS);
    }
    n
}

pub fn run(ctx: &Ctx) -> Report {
    let data = fixture::dataset();
    let cifar = fixture::trained("mini_cifar", &data);
    let resnet = fixture::trained("mini_resnet", &data);
    let mut rng = stats::SplitMix64::new(ctx.seed);
    let idx = fixture::sample_indices(fixture::TEST_POOL, POOL_INPUTS, &mut rng);
    let images = fixture::subset(&data.test, &idx);

    // Set-up: PTQ, significance, DSE and deploy(0.0), registry deploy,
    // gateway start, warm-up. Earlier fleets shut down untimed.
    let mut fleets = Vec::new();
    let (setup_s, ()) = crate::timed_setup(SETUP_REPS, || {
        fleets.push(start_fleet(
            fixture::designs(&cifar, &resnet, &data),
            &images,
        ));
    });
    let mut fleet = fleets.pop().expect("a fleet");
    for f in fleets {
        f.gateway.shutdown();
    }
    fleet.refs = fleet
        .designs
        .iter()
        .zip(&fleet.inputs)
        .map(|(d, inputs)| {
            inputs
                .iter()
                .map(|x| argmax_i8(&d.model.forward_quantized(x, d.masks.as_ref())))
                .collect()
        })
        .collect();

    let mut report = Report::default();
    tighten_timer_slack();
    let mut tr = ctx.trace.then(Tracer::new);
    let mut region = Region::start();
    let mut steps = Vec::new();
    let ladder = step_requests(ctx.seconds, ctx.trace);
    for (i, (&rate, n)) in LADDER.iter().zip(ladder).enumerate() {
        let seed = ctx.seed.wrapping_mul(0x100).wrapping_add(i as u64);
        steps.push(run_step(&fleet, seed, rate as f64, n, tr.as_mut()));
        for _ in 0..3 {
            region.probe();
        }
    }
    let measured_s = region.elapsed_s();
    let flood_s = if ctx.trace {
        0.3 * ctx.seconds
    } else {
        (ctx.seconds - measured_s).max(1.0)
    };
    let fl = flood(&fleet, ctx.seed ^ 0xF100D, flood_s);
    for _ in 0..3 {
        region.probe();
    }
    report.host(region);
    let peak_depth = fleet.gateway.queue_peak_depth();
    let fleet_stats = fleet.gateway.stats();
    fleet.gateway.shutdown();

    let mut fails = [0usize; 6];
    for s in &steps {
        let verdict = s.verdict();
        println!(
            "step {:>6} req/s: sent {}, ok {}, failed {}, p50 {:.3} ms, p99 {:.3} ms \
             (p99 supported: {}), backlog growing: {}, lag p99 {:.0} us",
            s.rate,
            s.sent,
            s.ok,
            s.failed(),
            stats::percentile(&stats::sorted(&s.lat_ms), 50.0).unwrap_or(0.0),
            verdict.p99_ms,
            stats::supports(s.lat_ms.len(), 99.0),
            verdict.backlog_growing,
            stats::percentile(&stats::sorted(&s.lag_us), 99.0).unwrap_or(0.0)
        );
        // Conservation: every request sent has exactly one outcome.
        let accounted = s.ok + s.fails.iter().sum::<usize>();
        report.attempted += s.sent as u64;
        report.failed += s.failed() as u64 + s.sent.abs_diff(accounted) as u64;
        for (f, x) in fails.iter_mut().zip(s.fails) {
            *f += x;
        }
    }
    report.attempted += fl.sent as u64;
    report.failed += (fl.wrong + fl.failed) as u64;
    // The quietest slices of the saturating phase are those with the most
    // replies.
    let cost: Vec<f64> = fl.slices.iter().map(|s| -(s.len() as f64)).collect();
    let quiet = stats::quiet_windows(&cost);
    let (rate, p50, p90, p99) = fl.figures(&quiet);
    let all: Vec<usize> = (0..fl.slices.len()).collect();
    let (_, all_p50, all_p90, _) = fl.figures(&all);
    println!(
        "saturated: {:.0} req/s, {} requests, {FLOOD_WINDOW} in flight; fleet crashes {} \
         expired {}; {} quietest of {} slices read: {rate:.0} req/s, p50 {p50:.3} ms, \
         p90 {p90:.3} ms, p99 {p99:.3} ms; whole phase p50 {all_p50:.3} ms, p90 {all_p90:.3} ms",
        fl.rate,
        fl.sent,
        fleet_stats.worker_crashes,
        fleet_stats.expired,
        quiet.len(),
        fl.slices.len()
    );

    if let Some(tr) = tr {
        for (rate, s) in LADDER.iter().zip(&steps) {
            for (stage, xs) in SERVE_STAGES.iter().zip(&s.stages) {
                let sorted = stats::sorted(xs);
                for (name, p) in [("p50", 50.0), ("p99", 99.0)] {
                    report.set(
                        format!("serve.{rate}rps.{stage}_{name}"),
                        stats::percentile(&sorted, p).unwrap_or(0.0),
                        "us",
                    );
                }
            }
        }
        let nominal = &steps[NOMINAL].lat_ms;
        report.set("serve.nominal.latency_ms_p50", stats::median(nominal), "ms");
        report.set("serve.nominal.latency_ms_p99", windowed_p99(nominal), "ms");
        let (batch_sum, ok) = steps
            .iter()
            .fold((0, 0), |a, s| (a.0 + s.batch_sum, a.1 + s.ok));
        report.set(
            "serve.batch_mean",
            batch_sum as f64 / ok.max(1) as f64,
            "img",
        );
        report.set("serve.peak_depth", peak_depth as f64, "count");
        for (name, x) in SERVE_FAILURES.iter().zip(fails) {
            report.set(format!("serve.failed.{name}"), x as f64, "count");
        }
        let verdicts: Vec<StepVerdict> = steps.iter().map(Step::verdict).collect();
        report.set(
            "serve.slo_rate",
            stats::slo_rate(&verdicts, P99_LIMIT_MS),
            "req/s",
        );
        let lag = stats::sorted(
            &steps
                .iter()
                .flat_map(|s| s.lag_us.iter().copied())
                .collect::<Vec<_>>(),
        );
        report.set(
            "loadgen.lag_us_p99",
            stats::percentile(&lag, 99.0).unwrap_or(0.0),
            "us",
        );
        report.set(
            "loadgen.lag_us_max",
            lag.last().copied().unwrap_or(0.0),
            "us",
        );
        report.set(
            "host.trace_overhead",
            1.0 + steps.iter().map(|s| s.span_ns).sum::<u128>() as f64 / 1e9 / measured_s,
            "ratio",
        );
        crate::write_spans(ctx, "serve-open", &tr, &mut report);
    } else {
        report.set("setup_s", setup_s, "s");
        // The end-to-end figures are those of the saturated fleet, where
        // the shard stays busy: at light load this host's idle-CPU wake-ups
        // set the latency, which no change to the program can move.
        report.set("work_per_s", rate, "1/s");
        report.set("p50_ms", p50, "ms");
        report.set("p90_ms", p90, "ms");
        report.set(
            "mcu_speedup_0loss",
            fleet.designs[1].cycles as f64 / fleet.designs[0].cycles as f64,
            "ratio",
        );
    }
    report
}
