//! Seeded input generation, all of it before any timed window.
//!
//! Every workload's stream is a dense `rounds × n × d` block: round `t`
//! delivers one vector to each of the `n` nodes in id order. Round 0 is
//! registration plus the first full sync and belongs to set-up.
//!
//! The two `wire_*` streams are generated here because no §4.2 dataset is
//! stationary: the paper's schedules have quiet and busy phases, so a pass
//! cut from them measures whichever phase it landed in. The other three
//! workloads use the `automon_data` §4.2 generators unchanged.

use automon_data::air_quality::{self, AirQualityParams};
use automon_data::synthetic::{InnerProductDataset, QuadraticDataset};
use automon_data::{windowed_mean_series, NormalSampler};

use crate::stats::Fnv64;

/// Mean sliding-window length of the §4.2 synthetic datasets.
const MEAN_WINDOW: usize = 20;
/// Histogram window of the §4.2 KLD experiment.
pub const KLD_WINDOW: usize = 200;

/// A dense per-round, per-node stream of `d`-vectors.
pub struct Inputs {
    pub n: usize,
    pub d: usize,
    pub rounds: usize,
    data: Vec<f64>,
}

impl Inputs {
    fn with_capacity(n: usize, d: usize, rounds: usize) -> Self {
        Inputs {
            n,
            d,
            rounds,
            data: Vec::with_capacity(n * d * rounds),
        }
    }

    /// `out[node][round]` (the `automon_data` layout) to round-major.
    fn from_series(series: &[Vec<Vec<f64>>]) -> Self {
        let n = series.len();
        let rounds = series.iter().map(Vec::len).min().unwrap_or(0);
        let d = series[0][0].len();
        let mut out = Inputs::with_capacity(n, d, rounds);
        for t in 0..rounds {
            for node in series {
                out.data.extend_from_slice(&node[t]);
            }
        }
        out
    }

    /// Node `i`'s vector in round `t`.
    #[inline]
    pub fn x(&self, t: usize, i: usize) -> &[f64] {
        let at = (t * self.n + i) * self.d;
        &self.data[at..at + self.d]
    }

    /// Every round of the first `nodes` nodes: the stream a layer probe
    /// runs on.
    pub fn head(&self, nodes: usize) -> Inputs {
        let nodes = nodes.min(self.n);
        let mut out = Inputs::with_capacity(nodes, self.d, self.rounds);
        for t in 0..self.rounds {
            for i in 0..nodes {
                out.data.extend_from_slice(self.x(t, i));
            }
        }
        out
    }

    /// Size of the generated block in bytes (the 128 MiB cap is on this).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Identity of the generated stream (see [`Fnv64`]).
    pub fn fnv64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.n as u64);
        h.write_u64(self.d as u64);
        h.write_f64s(&self.data);
        h.finish()
    }
}

/// Inner-product dimension of the two wire workloads.
pub const WIRE_DIM: usize = 40;
/// Node connections of the two wire workloads.
pub const WIRE_NODES: usize = 4;

/// `wire_drift`: a common slow orbit plus per-node bounded random walks.
///
/// All nodes share the factor pair `(a(t), b(t))` moving on a circle of
/// period `ORBIT` rounds, so `f(x̄) = ⟨ū, v̄⟩ ≈ a·b` keeps drifting and the
/// reference point must be re-synced in full at a steady rate; on top,
/// every coordinate of every node runs its own mean-reverting walk, whose
/// excursions cancel across nodes and are resolved by lazy syncs. Both
/// processes are stationary, so every stretch of the stream carries the
/// same violation and full-sync ratios.
pub fn wire_drift(seed: u64, rounds: usize) -> Inputs {
    const ORBIT: f64 = 100.0;
    const ORBIT_AMPLITUDE: f64 = 0.5;
    const WALK_PULL: f64 = 0.98;
    const WALK_STEP: f64 = 0.012;
    let (n, d, half) = (WIRE_NODES, WIRE_DIM, WIRE_DIM / 2);
    let scale = (1.0 / half as f64).sqrt();
    let mut rng = NormalSampler::new(seed ^ 0xD21F_7000);
    let phase = rng.uniform() * std::f64::consts::TAU;
    let mut walk = vec![0.0f64; n * d];
    // Start the walks from their stationary law, not from zero.
    let stationary = WALK_STEP / (1.0 - WALK_PULL * WALK_PULL).sqrt();
    for w in &mut walk {
        *w = rng.normal(0.0, stationary);
    }
    let mut out = Inputs::with_capacity(n, d, rounds);
    for t in 0..rounds {
        let angle = phase + std::f64::consts::TAU * t as f64 / ORBIT;
        let a = 1.0 + ORBIT_AMPLITUDE * angle.sin();
        let b = 1.0 + ORBIT_AMPLITUDE * angle.cos();
        for i in 0..n {
            for k in 0..d {
                let w = &mut walk[i * d + k];
                *w = WALK_PULL * *w + rng.normal(0.0, WALK_STEP);
                let centre = if k < half { a } else { b } * scale;
                out.data.push(centre + *w);
            }
        }
    }
    out
}

/// Rounds in one lap of the `wire_quiet` ring.
pub const QUIET_LAP_ROUNDS: usize = 24;

/// `wire_quiet`: one lap of a periodic ring that stays inside the safe
/// zone except for four scheduled level shifts.
///
/// Nodes sit at a common point with a small seeded jitter. Per lap one
/// node steps a little way along `∇f` and back (each step a violation one
/// lazy sync absorbs) and another steps far out and back (each beyond what
/// half the group can balance, so a full sync). The shifts are scheduled,
/// not drawn, so every seed and every lap has the same four violations in
/// `24 × 4` updates: the run is 96 % idle polling, and the message and
/// resolve metrics still have a non-zero, repeatable value. The seed picks
/// the shifted nodes, the rounds within the lap and the jitter.
///
/// Round 0 of the returned block is the lap's last round, so that a pass
/// (set-up on round 0, then whole laps of rounds `1..=24`) is continuous.
pub fn wire_quiet(seed: u64, lap: usize) -> Inputs {
    const JITTER: f64 = 0.002;
    /// Step lengths along the unit gradient, in units of ε = QUIET_EPSILON.
    const SMALL_STEP: f64 = 1.1;
    const BIG_STEP: f64 = 4.0;
    let (n, d, half) = (WIRE_NODES, WIRE_DIM, WIRE_DIM / 2);
    let scale = (1.0 / half as f64).sqrt();
    let mut rng = NormalSampler::new(seed ^ 0x0A1E_7000);
    assert!(
        lap >= 8 && lap.is_multiple_of(4),
        "a lap is four quarters of at least two rounds"
    );
    // Four distinct quarters of the lap: small out, small back, big out,
    // big back; the exact round inside each quarter is seeded.
    let quarter = lap / 4;
    let at = |q: usize, rng: &mut NormalSampler| 1 + q * quarter + rng.below(quarter - 1);
    let (small_out, small_back) = (at(0, &mut rng), at(1, &mut rng));
    let (big_out, big_back) = (at(2, &mut rng), at(3, &mut rng));
    let small_node = rng.below(n);
    let big_node = (small_node + 1 + rng.below(n - 1)) % n;
    // ∇⟨u, v⟩ at the common point (1, 1)·scale is (v, u): the all-ones
    // direction; a unit step along it changes f by √2 per unit length.
    let unit = 1.0 / (d as f64).sqrt();
    let shift_of = |node: usize, t: usize| -> f64 {
        let mut s = 0.0;
        if node == small_node && (small_out..small_back).contains(&t) {
            s += SMALL_STEP * QUIET_EPSILON;
        }
        if node == big_node && (big_out..big_back).contains(&t) {
            s += BIG_STEP * QUIET_EPSILON;
        }
        s * unit
    };
    let jitter: Vec<f64> = (0..(lap + 1) * n * d)
        .map(|_| rng.normal(0.0, JITTER))
        .collect();
    let mut out = Inputs::with_capacity(n, d, lap + 1);
    for slot in 0..=lap {
        // Slot 0 replays the lap's last round (t = lap), slots 1..=lap
        // are rounds 1..=lap.
        let t = if slot == 0 { lap } else { slot };
        for i in 0..n {
            let shift = shift_of(i, t);
            for k in 0..d {
                let j = jitter[(t * n + i) * d + k];
                out.data.push(scale + shift + j);
            }
        }
    }
    out
}

/// ε of `wire_quiet` (the level shifts are sized against it).
pub const QUIET_EPSILON: f64 = 0.2;

/// `kld_fullsync`: the §4.2 KLD series over the simulated air-quality
/// archive, `d/2` bins per histogram, one site per node.
///
/// The archive is one fixed dataset, as the Beijing archive it stands in
/// for is: its pollution episodes are rare (one per ~250 h), so archives
/// drawn from different seeds differ threefold in how many full syncs
/// they force, and no pass length short enough to time would average that
/// out. The seed instead decides which site feeds which node and the hour
/// the stream starts at, which reorders every round's updates and shifts
/// every histogram window without changing what the workload is.
pub fn kld_air_quality(seed: u64, n: usize, d: usize, rounds: usize) -> Inputs {
    const MAX_SKIP: usize = 48;
    let archive = AirQualityParams {
        sites: n,
        hours: rounds + MAX_SKIP + KLD_WINDOW - 1,
        ..AirQualityParams::default()
    };
    let series = air_quality::kld_series(&air_quality::generate(&archive), KLD_WINDOW, d / 2);
    let mut rng = NormalSampler::new(seed ^ 0x41D0_7000);
    let skip = rng.below(MAX_SKIP);
    let mut site_of: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        site_of.swap(i, rng.below(i + 1));
    }
    let mut out = Inputs::with_capacity(n, d, rounds);
    for t in 0..rounds {
        for &site in &site_of {
            out.data.extend_from_slice(&series[site][skip + t]);
        }
    }
    out
}

/// `ip_nodecheck`: the §4.2 phase-scheduled inner-product data, windowed.
pub fn inner_product_phases(seed: u64, n: usize, d: usize, rounds: usize) -> Inputs {
    let raw = InnerProductDataset::generate(n, rounds + MEAN_WINDOW - 1, d, seed);
    Inputs::from_series(&windowed_mean_series(&raw, MEAN_WINDOW))
}

/// `fleet_variance`: scalar §4.2 quadratic-dataset samples augmented to
/// `[x, x²]` (paper §6 rewriting) and windowed, one stream per node.
pub fn variance_streams(seed: u64, streams: usize, rounds: usize) -> Inputs {
    let scalars = QuadraticDataset::generate(streams, rounds + MEAN_WINDOW - 1, 1, seed);
    let raw: Vec<Vec<Vec<f64>>> = scalars
        .into_iter()
        .map(|s| s.into_iter().map(|v| vec![v[0], v[0] * v[0]]).collect())
        .collect();
    Inputs::from_series(&windowed_mean_series(&raw, MEAN_WINDOW))
}
