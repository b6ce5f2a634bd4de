//! The protocol's hot paths against the allocating formulas they replace.
//!
//! A node's check, the coordinator's lazy-sync balance point and its
//! full-sync reference point `x0` are computed in reused buffers. Each must
//! give the bits the textbook formulas give: `vector::add`/`sub` for
//! `x + s` and `Δ`, [`curvature_eval`] for the penalty, `vector::dot` for
//! the tangent and `vector::mean` for both averages. The dimensions are
//! interleaved on one thread, so the per-thread scratch grows and shrinks
//! between checks; coordinates include ±0.0, subnormals, ±inf and NaN.

use std::collections::BTreeSet;
use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_core::{
    CommCause, Coordinator, CoordinatorMessage, Curvature, DcKind, MonitorConfig,
    MonitoredFunction, NeighborhoodBox, Node, NodeMessage, Outbound, SafeZone, ViolationKind,
    ZoneUpdate,
};
use automon_linalg::{vector, Matrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dimensions in the order they run: large and small alternate.
const DIMS: [usize; 6] = [1, 100, 2, 40, 3, 17];

/// `REL_TOL` of `safezone.rs`.
const REL_TOL: f64 = 1e-9;

/// `q(Δ)` by the textbook formula: `MΔ` one row at a time, each row
/// summed in column order, then `½·Δᵀ(MΔ)`. It calls no `Matrix` product,
/// so it is an oracle for the dense kernel the check runs.
fn curvature_eval(c: &Curvature, delta: &[f64]) -> f64 {
    match c {
        Curvature::Scalar(c) => 0.5 * c * vector::norm_sq(delta),
        Curvature::Quadratic(m) => {
            let m_delta: Vec<f64> = (0..m.rows())
                .map(|i| (0..m.cols()).map(|j| m[(i, j)] * delta[j]).sum())
                .collect();
            0.5 * vector::dot(delta, &m_delta)
        }
    }
}

fn tol(z: &ZoneUpdate) -> f64 {
    REL_TOL * (1.0 + z.f0.abs() + z.u.abs() + z.l.abs())
}

/// `SafeZone::check` written with allocating vector helpers.
fn reference_check(z: &SafeZone, f: &dyn MonitoredFunction, x: &[f64]) -> Option<ViolationKind> {
    if let Some(b) = &z.neighborhood {
        if !b.contains(x) {
            return Some(ViolationKind::Neighborhood);
        }
    }
    let tol = tol(z);
    let fx = f.eval(x);
    let admissible = fx >= z.l - tol && fx <= z.u + tol;
    if z.dc == DcKind::AdmissibleOnly {
        return (!admissible).then_some(ViolationKind::SafeZone);
    }
    let delta = vector::sub(x, &z.x0);
    let q = curvature_eval(&z.curvature, &delta);
    let tangent = z.f0 + vector::dot(&z.grad0, &delta);
    let in_zone = match z.dc {
        DcKind::ConvexDiff => fx + q <= z.u + tol && q <= tangent - z.l + tol,
        DcKind::ConcaveDiff => -q >= tangent - z.u - tol && fx - q >= z.l - tol,
        DcKind::AdmissibleOnly => unreachable!(),
    };
    if !in_zone {
        Some(ViolationKind::SafeZone)
    } else if !admissible {
        Some(ViolationKind::FaultyConstraints)
    } else {
        None
    }
}

/// `Σ sin(xᵢ) + x₀·x_{d−1}`: a varying Hessian (ADCD-X).
struct SinSum(usize);
impl ScalarFn for SinSum {
    fn dim(&self) -> usize {
        self.0
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let mut acc = x[0] * x[self.0 - 1];
        for &xi in x {
            acc = acc + xi.sin();
        }
        acc
    }
}

/// `Σ xᵢ·x_{i+1} + ½ Σ xᵢ²`: an indefinite constant Hessian (ADCD-E).
struct Chain(usize);
impl ScalarFn for Chain {
    fn dim(&self) -> usize {
        self.0
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let mut acc = x[0] * x[0] * S::from_f64(0.5);
        for i in 1..self.0 {
            acc = acc + x[i - 1] * x[i] + x[i] * x[i] * S::from_f64(0.5);
        }
        acc
    }
}

/// A coordinate near `around`, or (one in eight) a signed zero or a
/// subnormal.
fn coord(rng: &mut SmallRng, around: f64, spread: f64) -> f64 {
    const SPECIAL: [f64; 6] = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE / 7.0,
    ];
    if rng.gen_bool(0.125) {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        around + rng.gen_range(-spread..spread)
    }
}

fn finite_point(rng: &mut SmallRng, d: usize, around: f64, spread: f64) -> Vec<f64> {
    (0..d).map(|_| coord(rng, around, spread)).collect()
}

/// A [`finite_point`], except that one point in eight has a NaN or an
/// infinity in one coordinate. (Per coordinate, a rate that shows at
/// `d = 2` would leave hardly a finite point at `d = 100`.)
fn point(rng: &mut SmallRng, d: usize, around: f64, spread: f64) -> Vec<f64> {
    const NON_FINITE: [f64; 4] = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut p = finite_point(rng, d, around, spread);
    if rng.gen_bool(0.125) {
        p[rng.gen_range(0..d)] = NON_FINITE[rng.gen_range(0..NON_FINITE.len())];
    }
    p
}

/// A zone over `f` of any shape: either curvature form, any DC kind, with
/// or without a neighborhood.
fn random_zone(rng: &mut SmallRng, f: &dyn MonitoredFunction, x: &[f64]) -> SafeZone {
    let d = x.len();
    let x0: Vec<f64> = x.iter().map(|&v| coord(rng, v, 0.5)).collect();
    let f0 = f.eval(&x0) + rng.gen_range(-0.1..0.1);
    let curvature = if rng.gen_bool(0.5) {
        Curvature::Scalar(rng.gen_range(0.0..3.0))
    } else {
        Curvature::quadratic(&Matrix::from_fn(d, d, |_, _| coord(rng, 0.0, 1.0)))
    };
    let dc = [
        DcKind::ConvexDiff,
        DcKind::ConcaveDiff,
        DcKind::AdmissibleOnly,
    ][rng.gen_range(0..3usize)];
    let neighborhood = rng.gen_bool(0.5).then(|| {
        let r = rng.gen_range(0.2..1.0);
        NeighborhoodBox {
            lo: x0.iter().map(|v| v - r).collect(),
            hi: x0.iter().map(|v| v + r).collect(),
        }
    });
    let width = rng.gen_range(0.01..3.0);
    let head = ZoneUpdate {
        grad0: point(rng, d, 0.0, 1.0),
        x0,
        f0,
        l: f0 - width,
        u: f0 + width * rng.gen_range(0.1..2.0),
        dc,
        neighborhood,
    };
    SafeZone::new(head, curvature)
}

/// `z` with one constraint pinned onto `x`, as five zones whose pinned
/// threshold steps −2..=2 ulps: a check whose `q(Δ)` is off by an ulp
/// gives another verdict on one of them. `on_q` pins a convex
/// difference's `L` constraint, `q ≤ tangent − L + tol`, which reads `q`
/// alone; otherwise the `U` one, on `f(x) + q` (convex difference) or
/// `tangent + q` (concave difference).
fn pinned(f: &dyn MonitoredFunction, x: &[f64], z: SafeZone, on_q: bool) -> Vec<SafeZone> {
    let delta = vector::sub(x, &z.x0);
    let q = curvature_eval(&z.curvature, &delta);
    let tangent = z.f0 + vector::dot(&z.grad0, &delta);
    let step = |v: f64, k: i64| f64::from_bits(v.to_bits().wrapping_add_signed(k));
    let with = |head: ZoneUpdate| SafeZone {
        head: Arc::new(head),
        curvature: z.curvature.clone(),
    };
    let mut h = (*z.head).clone();
    if on_q {
        assert_eq!(h.dc, DcKind::ConvexDiff);
        h.u = h.u.max(f.eval(x) + q) + 1.0;
        for _ in 0..3 {
            h.l = tangent + tol(&h) - q;
        }
        (-2..=2)
            .map(|k| {
                with(ZoneUpdate {
                    l: step(h.l, k),
                    ..h.clone()
                })
            })
            .collect()
    } else {
        let lhs = match h.dc {
            DcKind::ConvexDiff => f.eval(x) + q,
            _ => tangent + q,
        };
        for _ in 0..3 {
            h.u = lhs - tol(&h);
        }
        (-2..=2)
            .map(|k| {
                with(ZoneUpdate {
                    u: step(h.u, k),
                    ..h.clone()
                })
            })
            .collect()
    }
}

fn function(d: usize, constant_hessian: bool) -> Arc<dyn MonitoredFunction> {
    if constant_hessian {
        Arc::new(AutoDiffFn::new(Chain(d)))
    } else {
        Arc::new(AutoDiffFn::new(SinSum(d)))
    }
}

fn verdict_index(v: Option<ViolationKind>) -> usize {
    match v {
        None => 0,
        Some(ViolationKind::Neighborhood) => 1,
        Some(ViolationKind::SafeZone) => 2,
        Some(ViolationKind::FaultyConstraints) => 3,
        Some(ViolationKind::Uninitialized) => 4,
    }
}

/// `zone`'s verdict on `x + s` on the coordinator's path (the zone checks
/// the point it is given) and on the node's (it checks its vector plus
/// its slack), both against [`reference_check`]; returns that verdict.
fn check_paths(
    f: &Arc<dyn MonitoredFunction>,
    x: &[f64],
    s: &[f64],
    zone: SafeZone,
) -> Option<ViolationKind> {
    let d = x.len();
    let shifted = vector::add(x, s);
    let want = reference_check(&zone, f.as_ref(), &shifted);
    assert_eq!(
        zone.check(f.as_ref(), &shifted),
        want,
        "d = {d}: zone check"
    );
    let mut node = Node::new(0, f.clone());
    let _ = node.update_data(x);
    node.handle(CoordinatorMessage::NewConstraints {
        zone,
        slack: s.to_vec(),
        epoch: 1,
    });
    let got = node.update_data(x).map(|m| match m {
        NodeMessage::Violation { kind, .. } => kind,
        other => panic!("unexpected {other:?}"),
    });
    assert_eq!(got, want, "d = {d}: node verdict");
    want
}

/// One seed's worth of checks over every dimension; returns how often
/// each verdict came up (`verdict_index` order). One zone in three is
/// [`pinned`].
fn check_case(seed: u64) -> [usize; 5] {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = [0; 5];
    for &d in &DIMS {
        let f = function(d, rng.gen_bool(0.5));
        let x = point(&mut rng, d, 0.3, 0.4);
        let s = point(&mut rng, d, 0.0, 0.2);
        let shifted = vector::add(&x, &s);
        let zone = random_zone(&mut rng, f.as_ref(), &shifted);
        let zones = if zone.dc != DcKind::AdmissibleOnly && rng.gen_bool(1.0 / 3.0) {
            let on_q = zone.dc == DcKind::ConvexDiff && rng.gen_bool(0.5);
            pinned(f.as_ref(), &shifted, zone, on_q)
        } else {
            vec![zone]
        };
        for zone in zones {
            seen[verdict_index(check_paths(&f, &x, &s, zone))] += 1;
        }
    }
    seen
}

/// Finite ADCD-E zones with a dense `M` and no neighborhood, every one
/// [`pinned`] on `q` alone: the verdicts hold only if the check's `q(Δ)`
/// is the textbook one to the last bit. `M`'s rows cancel: every entry
/// but the last column's is large, and that one brings the row's sum
/// back into (−1, 1). So a row's rounding error is many ulps of its
/// `(MΔ)ᵢ`, and a row summed in another order moves `q` by more than the
/// pinned steps.
fn penalty_case(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for &d in &DIMS {
        let f = function(d, true);
        let x = finite_point(&mut rng, d, 0.3, 0.4);
        let s = finite_point(&mut rng, d, 0.0, 0.2);
        let shifted = vector::add(&x, &s);
        let mut x0: Vec<f64> = shifted.iter().map(|&v| coord(&mut rng, v, 0.5)).collect();
        x0[d - 1] = shifted[d - 1] - 0.25;
        let delta = vector::sub(&shifted, &x0);
        let mut m = Matrix::from_fn(d, d, |_, _| 1e3 * coord(&mut rng, 0.0, 1.0));
        for i in 0..d {
            let head: f64 = (0..d - 1).map(|j| m[(i, j)] * delta[j]).sum();
            m[(i, d - 1)] = (rng.gen_range(-1.0..1.0) - head) / delta[d - 1];
        }
        let zone = SafeZone::new(
            ZoneUpdate {
                f0: f.eval(&x0),
                x0,
                grad0: finite_point(&mut rng, d, 0.0, 1.0),
                l: 0.0,
                u: 0.0,
                dc: DcKind::ConvexDiff,
                neighborhood: None,
            },
            Curvature::quadratic(&m),
        );
        for zone in pinned(f.as_ref(), &shifted, zone, true) {
            check_paths(&f, &x, &s, zone);
        }
    }
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(k) = (0..got.len()).find(|&k| got[k].to_bits() != want[k].to_bits()) {
        panic!(
            "{what}: [{k}] is {:e}, the formula gives {:e}",
            got[k], want[k]
        );
    }
}

/// What the test knows of the protocol: every node's last vector and
/// slack, and the zone in force.
struct Mirror {
    xs: Vec<Vec<f64>>,
    slack: Vec<Vec<f64>>,
    zone: Option<SafeZone>,
}

impl Mirror {
    /// The balance point of `set` by the textbook formula.
    fn balance_point(&self, set: &BTreeSet<usize>) -> Vec<f64> {
        let adjusted: Vec<Vec<f64>> = set
            .iter()
            .map(|&i| vector::add(&self.xs[i], &self.slack[i]))
            .collect();
        vector::mean(&adjusted).unwrap()
    }

    /// A full sync's installs: `x0` is the mean of every vector, each
    /// slack is `x0 − xᵢ`.
    fn full_sync(&mut self, out: &[Outbound]) {
        let x0 = vector::mean(&self.xs).unwrap();
        assert_eq!(out.len(), self.xs.len());
        for o in out {
            let (zone, slack) = match &o.msg {
                CoordinatorMessage::NewConstraints { zone, slack, .. } => (zone.clone(), slack),
                CoordinatorMessage::NewConstraintsCached { update, slack, .. } => {
                    let held = self
                        .zone
                        .as_ref()
                        .expect("a cached install follows a full one");
                    let zone = SafeZone {
                        head: update.clone(),
                        curvature: held.curvature.clone(),
                    };
                    (zone, slack)
                }
                other => panic!("not an install: {other:?}"),
            };
            assert_bits(&zone.x0, &x0, "full-sync x0");
            assert_bits(slack, &vector::sub(&x0, &self.xs[o.to]), "full-sync slack");
            self.slack[o.to] = slack.clone();
            self.zone = Some(zone);
        }
    }
}

/// Drive one coordinator through registration and `rounds` violations,
/// checking every balance point and full-sync `x0` against [`Mirror`].
/// Returns (lazy syncs, full syncs) seen.
fn sync_case(
    rng: &mut SmallRng,
    d: usize,
    cfg: MonitorConfig,
    f: Arc<dyn MonitoredFunction>,
) -> (usize, usize) {
    let n = rng.gen_range(2..7);
    let mut coord = Coordinator::new(f.clone(), n, cfg);
    // Finite vectors only: a full sync whose `x0` holds a NaN still
    // panics (`Bounds::new` rejects the NaN box the eq.-3 search asks
    // for), so only the check path above draws non-finite points.
    let mut m = Mirror {
        xs: (0..n).map(|_| finite_point(rng, d, 0.3, 0.05)).collect(),
        slack: vec![vec![0.0; d]; n],
        zone: None,
    };
    let mut out = Vec::new();
    for i in 0..n {
        out = coord.handle(NodeMessage::Violation {
            node: i,
            kind: ViolationKind::Uninitialized,
            local_vector: m.xs[i].clone(),
            epoch: 0,
        });
    }
    m.full_sync(&out);
    let (mut lazy, mut full) = (0, 1);

    for _ in 0..3 {
        // One node drifts; each node pulled in answers with a drift the
        // other way about half the time, so some sets balance.
        let sender = rng.gen_range(0..n);
        let step: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.6..0.6)).collect();
        m.xs[sender] = vector::add(&m.xs[sender], &step);
        let mut set = BTreeSet::from([sender]);
        out = coord.handle(NodeMessage::Violation {
            node: sender,
            kind: ViolationKind::SafeZone,
            local_vector: m.xs[sender].clone(),
            epoch: coord.epoch(),
        });
        loop {
            let zone = m.zone.as_ref().unwrap();
            match &out[0].msg {
                CoordinatorMessage::RequestLocalVector { .. } => {
                    // Any pull means the set so far did not balance.
                    let b = m.balance_point(&set);
                    assert!(
                        reference_check(zone, f.as_ref(), &b).is_some(),
                        "d = {d}: pulled past a balanced set"
                    );
                    if out[0].cause == CommCause::LazySync {
                        assert_eq!(out.len(), 1);
                    }
                    let mut next = Vec::new();
                    for o in &out {
                        let p = o.to;
                        if rng.gen_bool(0.5) {
                            m.xs[p] = vector::sub(&m.xs[p], &step);
                        }
                        set.insert(p);
                        next = coord.handle(NodeMessage::LocalVector {
                            node: p,
                            vector: m.xs[p].clone(),
                            epoch: coord.epoch(),
                        });
                    }
                    out = next;
                }
                CoordinatorMessage::SlackUpdate { .. } => {
                    let b = m.balance_point(&set);
                    assert_eq!(
                        reference_check(zone, f.as_ref(), &b),
                        None,
                        "d = {d}: balanced an unbalanced set"
                    );
                    assert_eq!(out.iter().map(|o| o.to).collect::<BTreeSet<_>>(), set);
                    for o in &out {
                        let CoordinatorMessage::SlackUpdate { slack, .. } = &o.msg else {
                            unreachable!()
                        };
                        assert_bits(slack, &vector::sub(&b, &m.xs[o.to]), "lazy-sync slack");
                        m.slack[o.to] = slack.clone();
                    }
                    lazy += 1;
                    break;
                }
                CoordinatorMessage::NewConstraints { .. }
                | CoordinatorMessage::NewConstraintsCached { .. } => {
                    m.full_sync(&out);
                    full += 1;
                    break;
                }
            }
        }
    }
    (lazy, full)
}

/// ADCD-X, ADCD-E and no-ADCD coordinators at every dimension.
fn sync_cases(seed: u64) -> (usize, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut lazy, mut full) = (0, 0);
    for &d in &DIMS {
        for (cfg, constant) in [
            (MonitorConfig::builder(0.4).build(), false),
            (MonitorConfig::builder(0.4).build(), true),
            (MonitorConfig::builder(0.4).without_adcd().build(), false),
        ] {
            let (l, fs) = sync_case(&mut rng, d, cfg, function(d, constant));
            lazy += l;
            full += fs;
        }
    }
    (lazy, full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn check_verdicts_equal_the_allocating_check(seed in 0u64..u64::MAX) {
        check_case(seed);
    }

    #[test]
    fn the_penalty_is_the_textbook_sum_to_the_last_bit(seed in 0u64..u64::MAX) {
        penalty_case(seed);
    }

    #[test]
    fn balance_point_and_full_sync_x0_equal_vector_mean(seed in 0u64..u64::MAX) {
        sync_cases(seed);
    }
}

#[test]
fn the_oracles_reach_every_outcome() {
    // The properties above are vacuous if every check says the same thing
    // or no violation ever balances.
    let mut seen = [0; 5];
    for seed in 0..24 {
        for (s, c) in seen.iter_mut().zip(check_case(seed)) {
            *s += c;
        }
    }
    assert!(seen[..4].iter().all(|&c| c > 0), "verdicts seen: {seen:?}");
    let (lazy, full) = (0..4)
        .map(sync_cases)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(
        lazy > 0 && full > 4 * DIMS.len() * 3,
        "lazy {lazy}, full {full}"
    );
}
