//! Fixtures: the synthetic dataset, the two trained models and the three
//! serving designs. Training is cached on disk next to this package, so
//! only the first run in a checkout pays for it; nothing here is timed
//! except [`designs`], which is part of a workload's set-up.

use crate::stats::SplitMix64;
use ataman::{AtamanConfig, Framework};
use cifar10sim::{Dataset, DatasetConfig, SyntheticCifar};
use quantize::{CompiledMasks, QuantModel, SkipMaskSet};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use tinynn::{Sequential, SgdConfig, Trainer};
use unpackgen::{UnpackOptions, UnpackedEngine};

/// Images in the fixed test pool workloads sample their inputs from.
pub const TEST_POOL: usize = 2048;
const TRAIN_IMAGES: usize = 3000;
const DATA_SEED: u64 = 0xBE7C_0001;

/// The dataset every workload draws from (fixed: the seed only picks
/// which of its images a run uses).
pub fn dataset() -> SyntheticCifar {
    let mut cfg = DatasetConfig::paper_default();
    cfg.n_train = TRAIN_IMAGES;
    cfg.n_test = TEST_POOL;
    cfg.seed = DATA_SEED;
    cifar10sim::generate(cfg)
}

fn trainer(name: &str) -> SgdConfig {
    SgdConfig {
        epochs: 6,
        // The residual model collapses (dead ReLUs) at the chain's rate.
        lr: if name == "mini_resnet" { 0.01 } else { 0.05 },
        seed: 7,
        ..Default::default()
    }
}

#[derive(Serialize, Deserialize)]
struct Cached {
    key: String,
    model: Sequential,
}

fn cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".cache")
}

/// The trained f32 `mini_cifar` or `mini_resnet`, from the cache or
/// trained (and cached) on first use.
pub fn trained(name: &str, data: &SyntheticCifar) -> Sequential {
    let t = trainer(name);
    let key = format!(
        "{name}-d{DATA_SEED:x}-n{TRAIN_IMAGES}-e{}-lr{}-s{}",
        t.epochs, t.lr, t.seed
    );
    let path = cache_dir().join(format!("{key}.json"));
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(c) = serde_json::from_slice::<Cached>(&bytes) {
            if c.key == key {
                return c.model;
            }
        }
    }
    let mut model = match name {
        "mini_cifar" => tinynn::zoo::mini_cifar(0xBE7C_0003),
        "mini_resnet" => tinynn::zoo::mini_resnet(0xBE7C_0004),
        other => panic!("no fixture model named {other}"),
    };
    eprintln!(
        "[fixture] training {name} (cached afterwards in {})",
        path.display()
    );
    Trainer::new(t).train(&mut model, &data.train);
    let _ = std::fs::create_dir_all(cache_dir());
    let json = serde_json::to_vec(&Cached {
        key,
        model: model.clone(),
    })
    .expect("serialize model");
    std::fs::write(&path, json).expect("write fixture cache");
    model
}

/// The images of `pool` at `idx`, in that order.
pub fn subset(pool: &Dataset, idx: &[usize]) -> Dataset {
    let shape = pool.images.shape();
    let mut data = Vec::with_capacity(idx.len() * shape.h * shape.w * shape.c);
    for &i in idx {
        data.extend_from_slice(pool.image(i));
    }
    Dataset {
        images: tinytensor::Tensor::from_vec(
            tinytensor::Shape4::nhwc(idx.len(), shape.h, shape.w, shape.c),
            data,
        )
        .expect("subset shape"),
        labels: idx.iter().map(|&i| pool.labels[i]).collect(),
    }
}

/// `n` distinct indices below `len`, drawn by `rng` (partial Fisher-Yates).
pub fn sample_indices(len: usize, n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..len).collect();
    let n = n.min(len);
    for i in 0..n {
        let j = i + rng.below((len - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

/// MCU cycles of a design on the simulated board's unpacked engine.
pub fn mcu_cycles(q: &QuantModel, masks: Option<&SkipMaskSet>, unpack: UnpackOptions) -> u64 {
    let engine = UnpackedEngine::new(q, masks, unpack);
    let input = vec![0.5f32; q.input_shape.item_len()];
    let (_, stats) = engine.infer(&input);
    stats.cycles(engine.cost_model())
}

/// One design the forward and serving workloads run.
pub struct Design {
    pub name: &'static str,
    pub model: QuantModel,
    /// Boolean masks (reference oracle) and their compiled form.
    pub masks: Option<SkipMaskSet>,
    pub compiled: CompiledMasks,
    pub cycles: u64,
}

/// DSE configuration of the serving designs: a thinned paper space, so
/// the set-up stays well under a second.
fn quick_config() -> AtamanConfig {
    AtamanConfig {
        calib_images: 32,
        eval_images: 256,
        tau_step: 0.005,
        max_configs: 96,
        ..AtamanConfig::default()
    }
}

/// The three designs of the forward and serving workloads: the design
/// `deploy(0.0)` selects for `mini_cifar` (`mini-approx`), the exact
/// `mini_cifar` (`mini-exact`) and the exact `mini_resnet`. Runs PTQ,
/// significance, a thinned DSE and the deployment: set-up work.
pub fn designs(cifar: &Sequential, resnet: &Sequential, data: &SyntheticCifar) -> Vec<Design> {
    let fw = Framework::analyze(cifar, data, quick_config());
    let unpack = fw.config().unpack;
    let dep = fw
        .deploy(0.0)
        .expect("a 0% loss design exists (the exact design qualifies)");
    let q = fw.quant_model().clone();
    let masks = fw.significance().masks_for_tau(&q, &dep.taus);
    let compiled = fw.significance().compiled_masks_for_tau(&q, &dep.taus);
    let exact_cycles = mcu_cycles(&q, None, unpack);
    let calib = data.train.take(32);
    let rq = quantize::quantize_model(resnet, &quantize::calibrate_ranges(resnet, &calib));
    let resnet_cycles = mcu_cycles(&rq, None, unpack);
    let n_cifar = q.conv_indices().len();
    let n_resnet = rq.conv_indices().len();
    vec![
        Design {
            name: "approx",
            model: q.clone(),
            masks: Some(masks),
            compiled,
            cycles: dep.cycles,
        },
        Design {
            name: "exact",
            model: q,
            masks: None,
            compiled: CompiledMasks::none(n_cifar),
            cycles: exact_cycles,
        },
        Design {
            name: "resnet",
            model: rq,
            masks: None,
            compiled: CompiledMasks::none(n_resnet),
            cycles: resnet_cycles,
        },
    ]
}
