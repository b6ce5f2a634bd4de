//! Standalone replays: what a traced pass recorded, fed back to one
//! library layer at a time.
//!
//! Spans around `Coordinator::handle` cannot see inside it, so the cost of
//! ADCD, AD, the spectral kernels, the codec, the decomposition cache and
//! the WAL is measured here, outside the protocol loop, on the exact
//! reference points, messages and transitions the traced pass produced.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use automon_autodiff::AutoDiffFn;
use automon_core::adcd::decompose;
use automon_core::{
    CacheLookup, CoordinatorMessage, DecompCache, DecompCacheConfig, Domain, Journal,
    MonitorConfig, MonitoredFunction, NeighborhoodBox, NodeMessage, Parallelism, Transition,
};
use automon_functions::KlDivergence;
use automon_linalg::{
    LanczosOptions, LanczosStats, LanczosWorkspace, MatrixOperator, RitzSide, SymEigen,
};
use automon_net::wire;
use automon_store::{FileDisk, SharedStore, StoreOptions};

use crate::host::Pin;
use crate::metrics::Values;
use crate::pass::SyncPoint;
use crate::stats::median_or_zero;

/// How much replaying a run affords: the published sizes, or just enough
/// to exercise every replay in the self-test.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Recorded points replayed per kernel.
    replays: usize,
    /// Recorded full syncs whose ADCD-X decomposition is replayed: many,
    /// so that the replay's median meets the same mix of reference points
    /// as the median of the in-loop full syncs it is divided by.
    decompositions: usize,
    /// Timed batches per nanosecond-scale call.
    batches: usize,
    /// Repetitions of each fixed-point decomposition.
    fixed_point_reps: usize,
    /// Transitions appended to the WAL.
    appends: usize,
    /// Idle `try_recv` calls timed.
    pub idle_polls: usize,
}

impl Budget {
    pub fn of(scale: crate::workload::Scale) -> Self {
        match scale {
            crate::workload::Scale::Full => Budget {
                replays: 24,
                decompositions: 192,
                batches: 21,
                fixed_point_reps: 7,
                appends: 256,
                idle_polls: 16,
            },
            crate::workload::Scale::Smoke => Budget {
                replays: 3,
                decompositions: 3,
                batches: 3,
                fixed_point_reps: 1,
                appends: 8,
                idle_polls: 3,
            },
        }
    }
}

/// Median time of one call in ns, for calls far shorter than a clock
/// read: each sample times a batch and divides.
fn batch_ns<T>(batches: usize, per_batch: usize, mut call: impl FnMut(usize) -> T) -> f64 {
    let mut samples = Vec::with_capacity(batches);
    for b in 0..batches {
        let t0 = Instant::now();
        for k in 0..per_batch {
            black_box(call(b * per_batch + k));
        }
        samples.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median_or_zero(&samples)
}

/// Median time of one call in ns, each call timed on its own.
fn each_ns<T>(calls: usize, mut call: impl FnMut(usize) -> T) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|k| {
            let t0 = Instant::now();
            black_box(call(k));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median_or_zero(&samples)
}

/// Up to `take` items spread evenly over `all`.
fn spread<T>(all: &[T], take: usize) -> Vec<&T> {
    let take = all.len().min(take);
    (0..take).map(|k| &all[k * all.len() / take]).collect()
}

/// The neighborhood a recorded sync point was decomposed over. ADCD-E
/// points carry none; the replay of the spectral kernels still needs a
/// box to probe, so it gets the coordinator's initial one.
fn box_of(f: &dyn MonitoredFunction, p: &SyncPoint, cfg: &MonitorConfig) -> NeighborhoodBox {
    p.neighborhood
        .clone()
        .unwrap_or_else(|| Domain::of(f).neighborhood(&p.x0, cfg.neighborhood.initial_r()))
}

/// `core.adcd.*`: `decompose` at the recorded `(x0, B)` of full syncs.
pub fn adcd(
    f: &dyn MonitoredFunction,
    cfg: &MonitorConfig,
    points: &[SyncPoint],
    handle_full_us_p50: f64,
    pin: &Pin,
    budget: Budget,
    out: &mut Values,
) {
    // A constant Hessian is decomposed once per deployment, in set-up
    // (ADCD-E, paper §4.4): its cost is reported, but it has no share of a
    // steady-state full sync and no thread pool to speed up.
    let once = f.has_constant_hessian();
    let points = spread(
        points,
        if once {
            budget.replays
        } else {
            budget.decompositions
        },
    );
    if !points.is_empty() {
        let (mut probes, mut hvps) = (0u64, 0u64);
        let ns = each_ns(points.len(), |k| {
            let dec = decompose(f, &points[k].x0, points[k].neighborhood.as_ref(), cfg);
            probes += dec.spectral.eigen_probes;
            hvps += dec.spectral.hvp_applies;
            dec
        });
        out.set("core.adcd.decompose_us_p50", ns / 1e3);
        out.set(
            "core.adcd.eigen_probes_per_decompose",
            probes as f64 / points.len() as f64,
        );
        out.set(
            "core.adcd.hvp_applies_per_decompose",
            hvps as f64 / points.len() as f64,
        );
        if handle_full_us_p50 > 0.0 && !once {
            out.set(
                "core.adcd.decompose_share_of_full",
                ns / 1e3 / handle_full_us_p50,
            );
        }
        // A thread-pool speed-up measured on one core is noise with a
        // name: refuse it (the value stays 0).
        if pin.nproc > 1 && !once {
            let auto = MonitorConfig {
                parallelism: Parallelism::Auto,
                ..cfg.clone()
            };
            let few = &points[..points.len().min(budget.replays)];
            let seq_ns = each_ns(few.len(), |k| {
                decompose(f, &few[k].x0, few[k].neighborhood.as_ref(), cfg)
            });
            let auto_ns = pin.unpinned(|| {
                each_ns(few.len(), |k| {
                    decompose(f, &few[k].x0, few[k].neighborhood.as_ref(), &auto)
                })
            });
            out.set("core.adcd.auto_over_seq", auto_ns / seq_ns.max(1.0));
        }
    }
    // The standing anomaly: ADCD-X on KLD at three dimensions, at the
    // uniform histogram, with the box and the search budget the workloads
    // run under.
    for (d, name) in [
        (10, "core.adcd.decompose_us_d10"),
        (20, "core.adcd.decompose_us_d20"),
        (40, "core.adcd.decompose_us_d40"),
    ] {
        let kld = AutoDiffFn::new(KlDivergence::with_paper_tau(
            d,
            12,
            crate::inputs::KLD_WINDOW,
        ));
        let x0 = vec![2.0 / d as f64; d];
        let b = NeighborhoodBox {
            lo: x0.iter().map(|v| (v - 0.05f64).max(0.0)).collect(),
            hi: x0.iter().map(|v| (v + 0.05f64).min(1.0)).collect(),
        };
        let ns = each_ns(budget.fixed_point_reps, |_| {
            decompose(&kld, &x0, Some(&b), cfg)
        });
        out.set(name, ns / 1e3);
    }
}

/// `autodiff.*` and `linalg.*` at recorded points.
pub fn kernels(
    f: &dyn MonitoredFunction,
    cfg: &MonitorConfig,
    updates: &[Vec<f64>],
    points: &[SyncPoint],
    budget: Budget,
    out: &mut Values,
) {
    let batches = budget.batches;
    if !updates.is_empty() {
        let n = updates.len();
        out.set(
            "autodiff.eval_ns",
            batch_ns(batches, 256, |k| f.eval(&updates[k % n])),
        );
        out.set(
            "autodiff.grad_ns",
            batch_ns(batches, 64, |k| f.eval_grad(&updates[k % n])),
        );
    }
    let points = spread(points, budget.replays);
    if points.is_empty() {
        return;
    }
    let hessians: Vec<_> = points.iter().map(|p| f.hessian(&p.x0)).collect();
    out.set(
        "autodiff.hessian_us",
        each_ns(points.len(), |k| f.hessian(&points[k].x0)) / 1e3,
    );
    out.set(
        "linalg.eigen_us",
        each_ns(hessians.len(), |k| {
            SymEigen::with_backend(&hessians[k], cfg.spectral_backend)
        }) / 1e3,
    );
    let mut ws = LanczosWorkspace::new();
    out.set(
        "linalg.lanczos_us",
        each_ns(hessians.len(), |k| {
            let h = &hessians[k];
            // Gershgorin-style scale: the largest absolute row sum.
            let scale = (0..h.rows())
                .map(|i| (0..h.cols()).map(|j| h[(i, j)].abs()).sum::<f64>())
                .fold(f64::MIN_POSITIVE, f64::max);
            ws.extremes(
                &mut MatrixOperator::new(h),
                0.0,
                scale,
                RitzSide::Largest,
                &LanczosOptions::default(),
                &mut LanczosStats::default(),
            )
        }) / 1e3,
    );
}

/// `net.wire.*`: the codec on the recorded messages. Returns the codec
/// cost of one up frame and one down frame in ns, for `net.wire.share`.
pub fn codec(
    up: &[NodeMessage],
    down: &[CoordinatorMessage],
    budget: Budget,
    out: &mut Values,
) -> (f64, f64) {
    (
        codec_side(
            up,
            wire::encode_node_message,
            wire::decode_node_message,
            [
                "net.wire.encode_up_ns",
                "net.wire.decode_up_ns",
                "net.wire.up_bytes_per_frame",
            ],
            budget,
            out,
        ),
        codec_side(
            down,
            wire::encode_coordinator_message,
            wire::decode_coordinator_message,
            [
                "net.wire.encode_down_ns",
                "net.wire.decode_down_ns",
                "net.wire.down_bytes_per_frame",
            ],
            budget,
            out,
        ),
    )
}

/// One direction of the codec: sets the encode, decode and framed-size
/// metrics named in `names` and returns encode + decode ns per frame (0
/// when nothing was recorded).
fn codec_side<M, B: std::ops::Deref<Target = [u8]>, D>(
    msgs: &[M],
    encode: impl Fn(&M) -> B,
    decode: impl Fn(&[u8]) -> D,
    names: [&str; 3],
    budget: Budget,
    out: &mut Values,
) -> f64 {
    if msgs.is_empty() {
        return 0.0;
    }
    let n = msgs.len();
    let frames: Vec<B> = msgs.iter().map(&encode).collect();
    let enc = batch_ns(budget.batches, 64, |k| encode(&msgs[k % n]));
    let dec = batch_ns(budget.batches, 64, |k| decode(&frames[k % n]));
    out.set(names[0], enc);
    out.set(names[1], dec);
    let bytes: usize = frames.iter().map(|f| f.len() + 4).sum();
    out.set(names[2], bytes as f64 / n as f64);
    enc + dec
}

/// `core.cache.*`: the recorded full-sync key sequence replayed through
/// the default `DecompCache` — the hit rate ROADMAP item 3(b) asks for,
/// from a real key trace instead of a synthetic churn.
pub fn cache(
    f: &dyn MonitoredFunction,
    cfg: &MonitorConfig,
    points: &[SyncPoint],
    budget: Budget,
    out: &mut Values,
) {
    let batches = budget.batches;
    if points.is_empty() {
        return;
    }
    // Any decomposition will do as the cached value; what is replayed is
    // the key sequence.
    let first = &points[0];
    let dec = decompose(f, &first.x0, first.neighborhood.as_ref(), cfg);
    let keys: Vec<(f64, NeighborhoodBox)> = points
        .iter()
        .map(|p| {
            let b = box_of(f, p, cfg);
            // The radius the box was built with, up to domain clipping.
            let r =
                b.lo.iter()
                    .zip(&b.hi)
                    .map(|(lo, hi)| 0.5 * (hi - lo))
                    .fold(0.0, f64::max);
            (r, b)
        })
        .collect();
    let mut cache = DecompCache::new(DecompCacheConfig::default());
    let mut hits = 0usize;
    for (p, (r, b)) in points.iter().zip(&keys) {
        match cache.lookup(0, &p.x0, *r, b) {
            CacheLookup::Exact(_) => hits += 1,
            _ => {
                cache.insert(0, &p.x0, *r, b.clone(), dec.clone(), None);
            }
        }
    }
    out.set(
        "core.cache.replay_hit_ratio",
        hits as f64 / points.len() as f64,
    );
    // The last `capacity` keys are resident now: look those up for the
    // hit cost, and keys shifted off every stored point for the miss cost.
    let resident = points.len().min(cache.capacity());
    let tail = points.len() - resident;
    out.set(
        "core.cache.lookup_hit_ns",
        batch_ns(batches, 64, |k| {
            let at = tail + k % resident;
            cache.lookup(0, &points[at].x0, keys[at].0, &keys[at].1)
        }),
    );
    let strangers: Vec<Vec<f64>> = points
        .iter()
        .map(|p| p.x0.iter().map(|v| v + 17.0).collect())
        .collect();
    out.set(
        "core.cache.lookup_miss_ns",
        batch_ns(batches, 64, |k| {
            let at = k % points.len();
            cache.lookup(0, &strangers[at], keys[at].0, &keys[at].1)
        }),
    );
}

/// Outcome of replaying recorded transitions into a file-backed store.
pub struct WalReplay {
    pub append_us_p50: f64,
    pub bytes_per_transition: f64,
}

/// `store.*`: the transitions the coordinator journaled during the traced
/// pass, appended to a `FileDisk` store (sync after every record, the
/// default) under `dir`. This is what durability would add to a pass.
pub fn wal(
    transitions: &[Transition],
    dir: &Path,
    budget: Budget,
) -> std::io::Result<Option<WalReplay>> {
    if transitions.is_empty() {
        return Ok(None);
    }
    let _ = std::fs::remove_dir_all(dir);
    let disk = FileDisk::open(dir)?;
    let (store, _) = SharedStore::open(Box::new(disk), StoreOptions::default())?;
    let mut journal: Box<dyn Journal> = store.journal();
    let take = transitions.len().min(budget.appends);
    let mut samples = Vec::with_capacity(take);
    for t in &transitions[..take] {
        let t = t.clone();
        let t0 = Instant::now();
        journal.record(t);
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    if let Some(e) = store.lock().take_io_error() {
        return Err(e);
    }
    drop(journal);
    drop(store);
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir)? {
        bytes += entry?.metadata()?.len();
    }
    std::fs::remove_dir_all(dir)?;
    Ok(Some(WalReplay {
        append_us_p50: median_or_zero(&samples),
        bytes_per_transition: bytes as f64 / take as f64,
    }))
}
