//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse-paper|forward|serve-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures one workload for
//! about `--seconds` seconds through the workspace crates' public
//! functions, checks every output against a reference, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones
//! ([`END_TO_END`]); with `--trace 1` they are the per-layer ones
//! ([`per_layer`]) and the run also writes its spans under
//! `perfbench/.out/`. See `perfbench/README.md` for what every metric
//! means and which end-to-end metric each per-layer one should move.

mod dse_paper;
mod fixture;
mod forward;
mod host;
mod serve_open;
mod stats;
mod trace;

use host::Fingerprint;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("mcu_speedup_0loss", "ratio"),
];

/// Serving designs, with the conv layers of each.
pub const DESIGNS: [(&str, usize); 3] = [("approx", 3), ("exact", 3), ("resnet", 5)];

/// Open-loop request stages reported at every ladder step.
pub const SERVE_STAGES: [&str; 6] = [
    "admit_us",
    "queue_us",
    "exec_us",
    "exec_us_per_img",
    "rest_us",
    "deliver_us",
];

/// Failure kinds of the serving outcome ledger.
pub const SERVE_FAILURES: [&str; 6] = [
    "expired",
    "shed",
    "queue_full",
    "crashed",
    "closed",
    "dropped",
];

/// Every per-layer metric of a traced run. A workload reports the layers
/// it exercises; the rest read 0 (that layer does no work there).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for (d, convs) in DESIGNS {
        for k in 0..convs {
            add(format!("quantize.{d}.conv{k}.fill_ns_per_img"), "ns");
            add(format!("quantize.{d}.conv{k}.exec_ns_per_img"), "ns");
            add(format!("quantize.{d}.conv{k}.gmac_per_s"), "GMAC/s");
        }
        add(format!("quantize.{d}.segments_vs_whole"), "ratio");
    }
    for k in 0..DESIGNS[0].1 {
        add(format!("quantize.approx.conv{k}.retained_ratio"), "ratio");
    }
    add("quantize.approx_vs_exact".into(), "ratio");
    add("quantize.pool2.img_per_s_b48".into(), "img/s");
    add("quantize.pool2.speedup_b48".into(), "ratio");
    for t in [
        "signif.capture_s",
        "signif.score_s",
        "dse.cache_build_s",
        "dse.accuracy_s",
        "dse.cost_s",
        "dse.pareto_s",
        "ataman.deploy_s",
    ] {
        add(t.into(), "s");
    }
    for c in [
        "dse.trie_segments",
        "dse.naive_segments",
        "dse.memo_entries",
    ] {
        add(c.into(), "count");
    }
    add("dse.sharing".into(), "ratio");
    for b in [
        "dse.memo_bytes",
        "dse.cache_bytes",
        "dse.trie_scratch_bytes",
    ] {
        add(b.into(), "bytes");
    }
    for c in ["exact", "loss0", "loss5", "loss10"] {
        add(format!("mcusim.cycles_{c}"), "cycles");
    }
    add("dse.pareto_size".into(), "count");
    add("dse.parts_vs_whole".into(), "ratio");
    for rate in serve_open::LADDER {
        for stage in SERVE_STAGES {
            for p in ["p50", "p99"] {
                add(format!("serve.{rate}rps.{stage}_{p}"), "us");
            }
        }
    }
    add("serve.nominal.latency_ms_p50".into(), "ms");
    add("serve.nominal.latency_ms_p99".into(), "ms");
    add("serve.batch_mean".into(), "img");
    add("serve.peak_depth".into(), "count");
    for f in SERVE_FAILURES {
        add(format!("serve.failed.{f}"), "count");
    }
    add("serve.slo_rate".into(), "req/s");
    add("loadgen.lag_us_p99".into(), "us");
    add("loadgen.lag_us_max".into(), "us");
    add("host.probe_ns".into(), "ns");
    add("host.cpu_s".into(), "s");
    add("host.runq_wait_s".into(), "s");
    add("host.nonvol_ctxsw".into(), "count");
    add("host.trace_overhead".into(), "ratio");
    m
}

/// What a workload run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The machine fingerprint, as JSON.
    pub fingerprint: String,
}

/// What a workload run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Record the host-noise counters of a timed region and end it.
    pub fn host(&mut self, region: Region) {
        let cpu_s = host::process_cpu_s() - region.cpu_s;
        let d = region.sampler.finish();
        self.set("host.probe_ns", stats::median(&region.probes), "ns");
        self.set("host.cpu_s", cpu_s, "s");
        self.set("host.runq_wait_s", d.wait_ns as f64 / 1e9, "s");
        self.set("host.nonvol_ctxsw", d.nonvol as f64, "count");
    }
}

/// A timed region: thread counters at its start and one reference-kernel
/// timing per op.
pub struct Region {
    sampler: host::Sampler,
    cpu_s: f64,
    pub probes: Vec<f64>,
    pub start: Instant,
}

impl Region {
    pub fn start() -> Self {
        Self {
            sampler: host::Sampler::start(),
            cpu_s: host::process_cpu_s(),
            probes: (0..5).map(|_| host::probe_ns()).collect(),
            start: Instant::now(),
        }
    }

    /// Time the reference kernel a few times (call once per op).
    pub fn probe(&mut self) {
        for _ in 0..5 {
            self.probes.push(host::probe_ns());
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Run `setup` `reps` times and return the median wall time with the last
/// result (set-up is reported as a median of several).
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Write a traced run's spans under `perfbench/.out/`, headed by the
/// workload, the seed and the machine fingerprint; a failure to write is
/// a failed op.
pub fn write_spans(ctx: &Ctx, workload: &str, tr: &trace::Tracer, report: &mut Report) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".out")
        .join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
    let header = format!(
        "{{\"workload\": {workload:?}, \"seed\": {}, \"fingerprint\": {}}}",
        ctx.seed, ctx.fingerprint
    );
    if let Err(e) = tr.write(&path, &header) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
        report.failed += 1;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"))
    };
    let workload = get("workload")?.to_string();
    if !["dse-paper", "forward", "serve-open"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: seconds as f64,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dse-paper|forward|serve-open> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fingerprint: Fingerprint::detect().to_json(),
    };
    println!("fingerprint: {}", ctx.fingerprint);
    let mut report = match args.workload.as_str() {
        "dse-paper" => dse_paper::run(&ctx),
        "forward" => forward::run(&ctx),
        _ => serve_open::run(&ctx),
    };
    if !ctx.trace {
        report.set("peak_rss_mb", host::peak_rss_mib(), "MiB");
    }

    // Exactly the declared metric set: a traced run reports 0 for layers
    // this workload does not exercise; anything else is a bug here.
    // Metrics of the other mode (host counters of an untraced run, say)
    // are printed for the reader but stay out of the result.
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    let (declared, other) = if ctx.trace {
        (per_layer(), e2e)
    } else {
        (e2e, per_layer())
    };
    for (name, (value, unit)) in &report.metrics {
        if !declared.iter().any(|(n, _)| n == name) {
            assert!(
                other.iter().any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
            println!("info {name} = {value} {unit}");
        }
    }
    let mut body = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let value = match report.metrics.get(name) {
            Some(&(v, u)) => {
                assert_eq!(u, *unit, "unit of {name}");
                v
            }
            None if ctx.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "{name} = {value}");
        println!("metric {name} = {value} {unit}");
        body.push(format!(
            "{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"
        ));
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde::Value {
        let text = std::fs::read_to_string(
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names_of(v: &serde::Value, key: &str) -> Vec<String> {
        let map = v.as_map().expect("object");
        let list = &map.iter().find(|(k, _)| k == key).expect(key).1;
        list.as_seq()
            .expect("array")
            .iter()
            .map(|m| {
                let (_, name) = m
                    .as_map()
                    .expect("metric object")
                    .iter()
                    .find(|(k, _)| k == "name")
                    .expect("name");
                match name {
                    serde::Value::Str(s) => s.clone(),
                    other => panic!("name is a {}", other.kind()),
                }
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let v = benchmark_json();
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_of(&v, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_of(&v, "per_layer"), layers);
        assert!(layers.len() <= 128);
    }
}
