//! Safe zones: ADCD local constraints plus the neighborhood box.
//!
//! A [`SafeZone`] packages everything a node needs to check its local
//! constraints (paper §3.3, §3.5): the reference point `x0`, thresholds
//! `L, U`, the chosen DC representation, the convex curvature penalty
//! derived from it, and the neighborhood `B`. It is pure data
//! (serializable) — the monitored function itself is shared code that both
//! coordinator and nodes already hold — and a cheap handle: one sync's
//! members share one copy of it.

use std::cell::RefCell;
use std::ops::Deref;
use std::sync::Arc;

use automon_linalg::{vector, Matrix, PanelMatrix};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::MonitoredFunction;

/// Relative slack applied to constraint comparisons to absorb roundoff.
const REL_TOL: f64 = 1e-9;

/// The function's domain `D` as an optional box.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Domain {
    /// Per-coordinate lower bounds (`None` = unbounded below).
    pub lo: Option<Vec<f64>>,
    /// Per-coordinate upper bounds (`None` = unbounded above).
    pub hi: Option<Vec<f64>>,
}

impl Domain {
    /// Unbounded domain.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Read the domain a [`MonitoredFunction`] declares.
    pub fn of(f: &dyn MonitoredFunction) -> Self {
        Self {
            lo: f.lower_bounds(),
            hi: f.upper_bounds(),
        }
    }

    /// `true` when `x` satisfies the domain bounds.
    pub fn contains(&self, x: &[f64]) -> bool {
        if let Some(lo) = &self.lo {
            if x.iter().zip(lo).any(|(&xi, &l)| xi < l) {
                return false;
            }
        }
        if let Some(hi) = &self.hi {
            if x.iter().zip(hi).any(|(&xi, &h)| xi > h) {
                return false;
            }
        }
        true
    }

    /// Intersect the ball `[center - r, center + r]` with the domain.
    pub fn neighborhood(&self, center: &[f64], r: f64) -> NeighborhoodBox {
        let mut lo: Vec<f64> = center.iter().map(|&c| c - r).collect();
        let mut hi: Vec<f64> = center.iter().map(|&c| c + r).collect();
        if let Some(dlo) = &self.lo {
            for (l, &d) in lo.iter_mut().zip(dlo) {
                *l = l.max(d);
            }
        }
        if let Some(dhi) = &self.hi {
            for (h, &d) in hi.iter_mut().zip(dhi) {
                *h = h.min(d);
            }
        }
        // The center is a feasible point, so lo ≤ hi holds whenever the
        // center is in the domain; clamp defensively regardless.
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
            if *l > *h {
                std::mem::swap(l, h);
            }
        }
        NeighborhoodBox { lo, hi }
    }
}

/// The neighborhood `B = [x0 - r, x0 + r] ∩ D` (paper §3.5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborhoodBox {
    /// Per-coordinate lower bounds.
    pub lo: Vec<f64>,
    /// Per-coordinate upper bounds.
    pub hi: Vec<f64>,
}

impl NeighborhoodBox {
    /// `true` when `x` lies in the box (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        vector::in_box(x, &self.lo, &self.hi)
    }

    /// Convert into optimizer bounds.
    pub fn to_bounds(&self) -> automon_opt::Bounds {
        automon_opt::Bounds::new(self.lo.clone(), self.hi.clone())
    }
}

/// Which DC representation the safe zone uses (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DcKind {
    /// `f = ǧ - ȟ` with `ǧ, ȟ` convex.
    ConvexDiff,
    /// `f = ĝ - ĥ` with `ĝ, ĥ` concave.
    ConcaveDiff,
    /// No DC decomposition: the local constraint is the raw admissible
    /// check `L ≤ f(x) ≤ U`. Non-convex in general — this reproduces the
    /// "no ADCD" ablation arm (paper §4.6) and is where missed violations
    /// come from.
    AdmissibleOnly,
}

/// The convex quadratic penalty `q(Δ)` the DC decomposition adds.
///
/// * ADCD-X (paper Lemma 1): `q(Δ) = ½·c·‖Δ‖²` with `c = |λ⁻_min|`
///   (convex difference) or `c = λ⁺_max` (concave difference).
/// * ADCD-E (paper Lemma 2): `q(Δ) = ½·Δᵀ·M·Δ` with `M = -H⁻` (convex
///   difference) or `M = H⁺` (concave difference); both are PSD. `M` is
///   packed for the check ([`PanelMatrix`]) wherever a penalty is built:
///   by the decomposition, the wire decoder and serde.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Curvature {
    /// Isotropic `½·c·‖Δ‖²` with `c ≥ 0`.
    Scalar(f64),
    /// Anisotropic `½·Δᵀ·M·Δ` with PSD `M`.
    Quadratic(PanelMatrix),
}

impl Curvature {
    /// The anisotropic penalty `½·Δᵀ·M·Δ` of the square `m`, packed.
    ///
    /// # Panics
    /// Panics if `m` is not square.
    pub fn quadratic(m: &Matrix) -> Self {
        Curvature::Quadratic(PanelMatrix::pack(m))
    }

    /// `(q(Δ), ∇f(x0)ᵀΔ)` at the offset `Δ = x - x0`: the bits of
    /// `0.5 · Matrix::quadratic_form(Δ)` (or `½·c·‖Δ‖²`) and of
    /// `vector::dot(grad0, Δ)`. The anisotropic form reads `M` once and
    /// sums the tangent in the same pass ([`PanelMatrix::form_and_dot`]).
    fn eval_with_tangent(&self, delta: &[f64], grad0: &[f64]) -> (f64, f64) {
        match self {
            Curvature::Scalar(c) => (0.5 * c * vector::norm_sq(delta), vector::dot(grad0, delta)),
            Curvature::Quadratic(m) => {
                let (form, dot) = m.form_and_dot(delta, grad0);
                (0.5 * form, dot)
            }
        }
    }

    /// `true` when the penalty applies to `d`-dimensional offsets.
    fn fits(&self, d: usize) -> bool {
        match self {
            Curvature::Scalar(_) => true,
            Curvature::Quadratic(m) => m.rows() == d,
        }
    }
}

/// `out[k] = op(a[k], b[k])` in `out`'s own buffer: the bits of
/// `vector::add` / `vector::sub` without a fresh vector.
pub(crate) fn zip_into(out: &mut Vec<f64>, a: &[f64], b: &[f64], op: impl Fn(f64, f64) -> f64) {
    assert_eq!(a.len(), b.len(), "zip_into: dimension mismatch");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| op(x, y)));
}

thread_local! {
    /// [`SafeZone::check`]'s buffers: `x + s` and `Δ`. Every check on
    /// a thread (each node's, and the coordinator's balance-point check)
    /// reuses them, so a check allocates nothing once they have grown to
    /// the largest `d` seen. One set per thread rather than per node: 10 k
    /// nodes' own buffers would each be a cold cache line per update.
    static SCRATCH: RefCell<[Vec<f64>; 2]> = const { RefCell::new([Vec::new(), Vec::new()]) };
}

/// A violation a node can report (paper §3.5, §3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// The node has no constraints yet (initial registration).
    Uninitialized,
    /// The (slack-adjusted) local vector left the neighborhood `B`.
    Neighborhood,
    /// The ADCD local constraints are violated.
    SafeZone,
    /// The vector satisfies the constraints but `f` escapes `[L, U]`:
    /// the decomposition was not a true DC decomposition (possible for
    /// ADCD-X on non-convex functions; paper §3.7). The coordinator must
    /// full-sync.
    FaultyConstraints,
}

impl ViolationKind {
    /// The variant's name, as `{:?}` spells it (trace fields).
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Uninitialized => "Uninitialized",
            ViolationKind::Neighborhood => "Neighborhood",
            ViolationKind::SafeZone => "SafeZone",
            ViolationKind::FaultyConstraints => "FaultyConstraints",
        }
    }
}

/// The curvature-free part of a safe zone: everything a full sync
/// changes when the DC decomposition itself is unchanged (constant
/// Hessian ⇒ constant penalty, recomputed never — paper §4.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneUpdate {
    /// Reference point `x0`.
    pub x0: Vec<f64>,
    /// `f(x0)`.
    pub f0: f64,
    /// `∇f(x0)`.
    pub grad0: Vec<f64>,
    /// Lower threshold `L`.
    pub l: f64,
    /// Upper threshold `U`.
    pub u: f64,
    /// DC representation in force.
    pub dc: DcKind,
    /// Neighborhood `B`; `None` means all of `D` (ADCD-E or no-ADCD).
    pub neighborhood: Option<NeighborhoodBox>,
}

impl ZoneUpdate {
    /// `true` when `x0`, `grad0` and the neighborhood's bounds are all `d`
    /// long: a node refuses a head that fails this instead of panicking
    /// at its next check.
    pub(crate) fn fits(&self, d: usize) -> bool {
        self.x0.len() == d
            && self.grad0.len() == d
            && self
                .neighborhood
                .as_ref()
                .is_none_or(|b| b.lo.len() == d && b.hi.len() == d)
    }
}

/// The local constraints distributed by the coordinator.
///
/// Every member of one sync monitors the same constraints (only its
/// slack differs), so a zone is a handle on two shared allocations: the
/// sync's [`ZoneUpdate`] head and the DC penalty. Cloning it moves two
/// pointers; the coordinator builds the head once per sync and, for
/// ADCD-E, the penalty once per run, and every in-process member holds
/// those same allocations. The head's fields read through `Deref`
/// (`zone.x0`, `zone.f0`, ...).
///
/// Its JSON and wire forms are the flat eight-field record
/// `x0, f0, grad0, l, u, dc, curvature, neighborhood`.
#[derive(Debug, Clone, PartialEq)]
pub struct SafeZone {
    /// Reference point, thresholds, DC kind and neighborhood.
    pub head: Arc<ZoneUpdate>,
    /// Convex penalty from the DC decomposition.
    pub curvature: Arc<Curvature>,
}

impl Deref for SafeZone {
    type Target = ZoneUpdate;

    fn deref(&self) -> &ZoneUpdate {
        &self.head
    }
}

impl Serialize for SafeZone {
    fn to_value(&self) -> Value {
        let mut fields = match self.head.to_value() {
            Value::Map(m) => m,
            _ => unreachable!("a struct serializes to a map"),
        };
        // Between `dc` and `neighborhood`, where the flat record has it.
        let at = fields.len() - 1;
        fields.insert(at, ("curvature".to_string(), self.curvature.to_value()));
        Value::Map(fields)
    }
}

impl Deserialize for SafeZone {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map().ok_or_else(|| DeError::expected("object", v))?;
        let curvature = Curvature::from_value(Value::get_field(m, "curvature"))
            .map_err(|e| e.in_field("curvature"))?;
        Ok(Self::new(ZoneUpdate::from_value(v)?, curvature))
    }
}

impl SafeZone {
    /// A zone owning a fresh head and penalty.
    pub fn new(head: ZoneUpdate, curvature: Curvature) -> Self {
        Self {
            head: Arc::new(head),
            curvature: Arc::new(curvature),
        }
    }

    /// `true` when the head [fits](ZoneUpdate::fits) `d` and the penalty
    /// is `d × d` (or scalar).
    pub(crate) fn fits(&self, d: usize) -> bool {
        self.head.fits(d) && self.curvature.fits(d)
    }

    /// `true` when `self` and `other` hold the same head and penalty
    /// allocations (not merely equal values).
    pub fn shares_allocation(&self, other: &SafeZone) -> bool {
        Arc::ptr_eq(&self.head, &other.head) && Arc::ptr_eq(&self.curvature, &other.curvature)
    }

    /// Check `x` against the local constraints, most specific violation
    /// first: neighborhood, then safe zone, then the §3.7 sanity check.
    ///
    /// Returns `None` when all constraints hold.
    pub fn check(&self, f: &dyn MonitoredFunction, x: &[f64]) -> Option<ViolationKind> {
        SCRATCH.with_borrow_mut(|[_, delta]| self.check_in(f, x, delta))
    }

    /// [`check`](Self::check) of the slack-adjusted vector `x + s`, summed
    /// into the thread's scratch instead of a fresh vector.
    pub(crate) fn check_shifted(
        &self,
        f: &dyn MonitoredFunction,
        x: &[f64],
        s: &[f64],
    ) -> Option<ViolationKind> {
        SCRATCH.with_borrow_mut(|[shifted, delta]| {
            zip_into(shifted, x, s, |a, b| a + b);
            self.check_in(f, shifted, delta)
        })
    }

    fn check_in(
        &self,
        f: &dyn MonitoredFunction,
        x: &[f64],
        delta: &mut Vec<f64>,
    ) -> Option<ViolationKind> {
        if let Some(b) = &self.neighborhood {
            if !b.contains(x) {
                return Some(ViolationKind::Neighborhood);
            }
        }
        let tol = REL_TOL * (1.0 + self.f0.abs() + self.u.abs() + self.l.abs());
        let fx = f.eval(x);
        if self.dc == DcKind::AdmissibleOnly {
            return (!self.admissible(fx)).then_some(ViolationKind::SafeZone);
        }

        zip_into(delta, x, &self.x0, |a, b| a - b);
        let (q, slope) = self.curvature.eval_with_tangent(delta, &self.grad0);
        let tangent = self.f0 + slope;
        let in_zone = match self.dc {
            DcKind::ConvexDiff => {
                // ǧ(x) ≤ U  and  ȟ(x) ≤ f(x0) + ∇f(x0)ᵀΔ - L   (paper eq. 4)
                fx + q <= self.u + tol && q <= tangent - self.l + tol
            }
            DcKind::ConcaveDiff => {
                // ĥ(x) ≥ f(x0) + ∇f(x0)ᵀΔ - U  and  ĝ(x) ≥ L   (paper eq. 5)
                -q >= tangent - self.u - tol && fx - q >= self.l - tol
            }
            DcKind::AdmissibleOnly => unreachable!("handled above"),
        };
        if !in_zone {
            return Some(ViolationKind::SafeZone);
        }
        // Sanity check (paper §3.7): inside the safe zone, f must be
        // admissible; otherwise the decomposition was not a true DC
        // decomposition and the constraints are faulty.
        if !self.admissible(fx) {
            return Some(ViolationKind::FaultyConstraints);
        }
        None
    }

    /// `true` when `x` satisfies all constraints.
    pub fn contains(&self, f: &dyn MonitoredFunction, x: &[f64]) -> bool {
        self.check(f, x).is_none()
    }

    /// `true` when `v` is admissible: `L ≤ v ≤ U`.
    pub fn admissible(&self, v: f64) -> bool {
        let tol = REL_TOL * (1.0 + self.f0.abs() + self.u.abs() + self.l.abs());
        v >= self.l - tol && v <= self.u + tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};

    struct Sin;
    impl ScalarFn for Sin {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].sin()
        }
    }

    /// The paper's Figure 1 setup: f = sin(x), x0 = π/2, ε = 0.2
    /// (L = 0.8, U = 1.2), with global extreme curvatures λ⁻ = -1,
    /// λ⁺ = 1.
    fn fig1_head(dc: DcKind) -> ZoneUpdate {
        ZoneUpdate {
            x0: vec![std::f64::consts::FRAC_PI_2],
            f0: 1.0,
            grad0: vec![0.0],
            l: 0.8,
            u: 1.2,
            dc,
            neighborhood: None,
        }
    }

    fn fig1_zone(dc: DcKind) -> SafeZone {
        SafeZone::new(fig1_head(dc), Curvature::Scalar(1.0))
    }

    #[test]
    fn fig1_convex_difference_safe_zone() {
        // Paper Figure 1(b): the convex-difference safe zone is
        // approximately [0.938, 2.203].
        let f = AutoDiffFn::new(Sin);
        let z = fig1_zone(DcKind::ConvexDiff);
        assert!(z.contains(&f, &[std::f64::consts::FRAC_PI_2]));
        assert!(z.contains(&f, &[0.95]));
        assert!(z.contains(&f, &[2.19]));
        assert_eq!(z.check(&f, &[0.92]), Some(ViolationKind::SafeZone));
        assert_eq!(z.check(&f, &[2.21]), Some(ViolationKind::SafeZone));
        // Bisect the left boundary and compare with the paper's value.
        let (mut lo, mut hi) = (0.8, 1.5);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if z.contains(&f, &[mid]) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        assert!((hi - 0.938).abs() < 2e-3, "left boundary {hi}");
        let (mut lo, mut hi) = (1.6, 2.5);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if z.contains(&f, &[mid]) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert!((lo - 2.203).abs() < 2e-3, "right boundary {lo}");
    }

    #[test]
    fn fig1_concave_difference_safe_zone() {
        // Paper Figure 1(c): the concave-difference safe zone is
        // approximately [1.121, 2.021] — strictly narrower than (b).
        let f = AutoDiffFn::new(Sin);
        let z = fig1_zone(DcKind::ConcaveDiff);
        assert!(z.contains(&f, &[1.2]));
        assert!(z.contains(&f, &[2.0]));
        assert_eq!(z.check(&f, &[1.10]), Some(ViolationKind::SafeZone));
        assert_eq!(z.check(&f, &[2.05]), Some(ViolationKind::SafeZone));
        let (mut lo, mut hi) = (0.9, 1.5);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if z.contains(&f, &[mid]) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        assert!((hi - 1.1206).abs() < 2e-3, "left boundary {hi}");
        let (mut lo, mut hi) = (1.6, 2.4);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if z.contains(&f, &[mid]) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert!((lo - 2.0210).abs() < 2e-3, "right boundary {lo}");
    }

    #[test]
    fn safe_zone_is_subset_of_admissible_region() {
        // Scan the axis: every safe-zone point must be admissible.
        let f = AutoDiffFn::new(Sin);
        for dc in [DcKind::ConvexDiff, DcKind::ConcaveDiff] {
            let z = fig1_zone(dc);
            for i in 0..400 {
                let x = [i as f64 * 0.01];
                if z.contains(&f, &x) {
                    let v = f.eval(&x);
                    assert!(z.admissible(v), "{dc:?}: x = {} f = {v}", x[0]);
                }
            }
        }
    }

    #[test]
    fn no_adcd_zone_rejects_a_nan_value() {
        // `f(x)` is NaN: not admissible, so not inside the zone either.
        let f = AutoDiffFn::new(Sin);
        let z = fig1_zone(DcKind::AdmissibleOnly);
        assert!(!z.admissible(f64::NAN));
        assert_eq!(z.check(&f, &[f64::NAN]), Some(ViolationKind::SafeZone));
        assert!(z.contains(&f, &[1.5]));
    }

    #[test]
    fn neighborhood_violation_precedes_safe_zone() {
        let f = AutoDiffFn::new(Sin);
        let z = SafeZone::new(
            ZoneUpdate {
                neighborhood: Some(NeighborhoodBox {
                    lo: vec![1.4],
                    hi: vec![1.8],
                }),
                ..fig1_head(DcKind::ConvexDiff)
            },
            Curvature::Scalar(1.0),
        );
        assert_eq!(z.check(&f, &[2.0]), Some(ViolationKind::Neighborhood));
        assert!(z.contains(&f, &[1.5]));
    }

    #[test]
    fn faulty_constraints_detected() {
        // Deliberately broken decomposition: zero curvature on a concave
        // stretch makes the "safe zone" leak outside the admissible
        // region; the sanity check must catch it.
        let f = AutoDiffFn::new(Sin);
        let z = SafeZone::new(
            ZoneUpdate {
                l: 0.95,
                ..fig1_head(DcKind::ConvexDiff)
            },
            Curvature::Scalar(0.0), // wrong: sin needs |λ⁻| = 1
        );
        // sin(1.2) ≈ 0.932 < L, yet with q = 0 both constraints hold:
        // ǧ = f ≤ U and 0 ≤ f0 - L.
        assert_eq!(z.check(&f, &[1.2]), Some(ViolationKind::FaultyConstraints));
    }

    #[test]
    fn admissible_only_checks_raw_thresholds() {
        let f = AutoDiffFn::new(Sin);
        let z = fig1_zone(DcKind::AdmissibleOnly);
        assert!(z.contains(&f, &[1.0])); // sin(1.0) ≈ 0.84 ∈ [0.8, 1.2]
        assert_eq!(z.check(&f, &[0.5]), Some(ViolationKind::SafeZone));
    }

    #[test]
    fn quadratic_curvature_matches_scalar_for_identity_times_c() {
        let c = 0.7;
        let m = Matrix::from_diag(&[c, c, c]);
        let delta = [0.3, -1.0, 2.0];
        let grad0 = [0.0; 3];
        let (s, _) = Curvature::Scalar(c).eval_with_tangent(&delta, &grad0);
        let (q, _) = Curvature::quadratic(&m).eval_with_tangent(&delta, &grad0);
        assert!((s - q).abs() < 1e-12);
    }

    #[test]
    fn domain_neighborhood_intersection() {
        let d = Domain {
            lo: Some(vec![0.0, 0.0]),
            hi: Some(vec![1.0, 10.0]),
        };
        let b = d.neighborhood(&[0.5, 5.0], 2.0);
        assert_eq!(b.lo, vec![0.0, 3.0]);
        assert_eq!(b.hi, vec![1.0, 7.0]);
        assert!(b.contains(&[0.5, 5.0]));
        assert!(!b.contains(&[0.5, 8.0]));
        assert!(d.contains(&[0.5, 5.0]));
        assert!(!d.contains(&[-0.1, 5.0]));
    }

    #[test]
    fn convex_zone_is_convex_along_segments() {
        // Midpoints of safe-zone points stay in the safe zone (the key
        // GM correctness property; paper §3.3).
        let f = AutoDiffFn::new(Sin);
        let z = fig1_zone(DcKind::ConvexDiff);
        let points: Vec<f64> = (0..300).map(|i| 0.9 + i as f64 * 0.005).collect();
        let inside: Vec<f64> = points
            .into_iter()
            .filter(|&p| z.contains(&f, &[p]))
            .collect();
        for (i, &a) in inside.iter().enumerate() {
            for &b in &inside[i..] {
                let mid = [(a + b) * 0.5];
                assert!(z.contains(&f, &mid), "midpoint of {a} and {b} escaped");
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let z = fig1_zone(DcKind::ConcaveDiff);
        let json = serde_json::to_string(&z).unwrap();
        let back: SafeZone = serde_json::from_str(&json).unwrap();
        assert_eq!(z, back);
        // One flat record, the penalty between `dc` and `neighborhood`.
        assert!(
            json.contains(r#""dc":"ConcaveDiff","curvature":{"Scalar":1},"neighborhood":null}"#),
            "{json}"
        );
    }

    #[test]
    fn violation_names_are_their_debug_spelling() {
        for k in [
            ViolationKind::Uninitialized,
            ViolationKind::Neighborhood,
            ViolationKind::SafeZone,
            ViolationKind::FaultyConstraints,
        ] {
            assert_eq!(k.name(), format!("{k:?}"));
        }
    }

    #[test]
    fn clones_share_and_fresh_zones_do_not() {
        let z = fig1_zone(DcKind::ConvexDiff);
        assert!(z.shares_allocation(&z.clone()));
        let twin = fig1_zone(DcKind::ConvexDiff);
        assert_eq!(z, twin);
        assert!(!z.shares_allocation(&twin));
    }
}
