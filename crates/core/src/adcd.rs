//! ADCD: Automatic DC Decomposition (paper §3.1–§3.4).
//!
//! Given the monitored function, a reference point `x0`, and (for ADCD-X)
//! a neighborhood `B`, this module produces the DC decomposition from
//! which safe zones are built:
//!
//! * **ADCD-X** (Lemma 1) — numerically bound the extreme eigenvalues of
//!   the Hessian over `B`, then add/subtract the isotropic quadratic
//!   `½|λ⁻_min|·‖x - x0‖²` / `½λ⁺_max·‖x - x0‖²`.
//! * **ADCD-E** (Lemma 2) — for constant Hessians, split `H = H⁺ + H⁻`
//!   by eigendecomposition; strictly larger safe zones than ADCD-X for
//!   this class (the paper proves `H_ǧ₁ ⪰ H_ǧ₂`).
//!
//! The convex-vs-concave choice follows the DC heuristic of §3.4.

use automon_autodiff::HvpEvaluator;
use automon_linalg::{
    EigenWorkspace, LanczosOptions, LanczosStats, LanczosWorkspace, Matrix, RitzSide, SymEigen,
    SymOperator,
};
use automon_opt::{nelder_mead, Bounds, OptimizeOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{EigenSearch, MonitorConfig};
use crate::safezone::{Curvature, DcKind, NeighborhoodBox};
use crate::MonitoredFunction;

/// Which ADCD variant produced a decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AdcdKind {
    /// Extreme-eigenvalue variant for general functions (paper §3.1).
    X,
    /// Eigendecomposition variant for constant-Hessian functions (§3.2).
    E,
}

/// Deterministic counters describing the spectral work one
/// decomposition performed.
///
/// Every field is an exact count, incremented where the work happens,
/// on every search path; the numbers are functions of the configuration
/// and the inputs, never of timers, so same-seed runs produce identical
/// stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpectralStats {
    /// Dense Hessians materialized: 2 per ADCD-X decomposition (the
    /// reference point and the box center) however many points the
    /// matrix-free search evaluates; for ADCD-E 0 when the wrap-time
    /// constant Hessian is reused, else 1 (at the reference point).
    pub hessian_materializations: u64,
    /// Eigen-search objective evaluations: probe points plus
    /// Nelder–Mead polish evaluations, over the streams that ran (the
    /// search skips the stream whose extreme the chosen representation
    /// does not use once the DC heuristic is provably settled, and a
    /// polish ends early on a simplex flat to the evaluator's
    /// resolution).
    pub eigen_probes: u64,
    /// Lanczos iterations across all probe evaluations (0 for ADCD-E).
    pub lanczos_iterations: u64,
    /// Gram-Schmidt reorthogonalization passes inside Lanczos.
    pub reorth_passes: u64,
    /// Hessian-vector products applied by the matrix-free search.
    pub hvp_applies: u64,
}

/// The result of running ADCD at a reference point.
#[derive(Debug, Clone)]
pub struct DcDecomposition {
    /// Variant used.
    pub kind: AdcdKind,
    /// Convex or concave difference, per the DC heuristic (or override).
    pub dc: DcKind,
    /// The convex penalty for the chosen representation.
    pub curvature: Curvature,
    /// `λ̂_min` found over `B` (for E: the true smallest eigenvalue).
    ///
    /// ADCD-X searches only the extremes its result depends on: under
    /// [`DcKind::ConcaveDiff`] this may be the unsearched
    /// `λ_min(H(center of B))` — an upper bound of `λ̂_min`, good for
    /// diagnostics only. `curvature` never derives from an unsearched
    /// extreme.
    pub lambda_min_hat: f64,
    /// `λ̂_max` found over `B` (for E: the true largest eigenvalue);
    /// under [`DcKind::ConvexDiff`] possibly the unsearched
    /// `λ_max(H(center of B))`, as for `lambda_min_hat`.
    pub lambda_max_hat: f64,
    /// Spectral work counters for this decomposition.
    pub spectral: SpectralStats,
}

/// Run ADCD for `f` at `x0`.
///
/// `neighborhood` is required for ADCD-X (it is the search region `S = B`
/// of eq. 3) and ignored by ADCD-E, whose decomposition is valid on all of
/// `D`. The variant is picked from `f.has_constant_hessian()` unless
/// `cfg.adcd_override` forces one; `cfg.dc_override` likewise bypasses the
/// DC heuristic.
pub fn decompose(
    f: &dyn MonitoredFunction,
    x0: &[f64],
    neighborhood: Option<&NeighborhoodBox>,
    cfg: &MonitorConfig,
) -> DcDecomposition {
    let kind = cfg.adcd_override.unwrap_or(if f.has_constant_hessian() {
        AdcdKind::E
    } else {
        AdcdKind::X
    });
    match kind {
        AdcdKind::E => decompose_e(f, x0, cfg),
        AdcdKind::X => {
            let b = neighborhood.expect("ADCD-X requires a neighborhood");
            decompose_x(f, x0, b, cfg)
        }
    }
}

/// [`decompose`] wrapped in telemetry.
///
/// With a disabled handle this is a tail call into `decompose` — the
/// observed path adds exactly one branch, keeping the PR 1 hot-path
/// numbers intact. With a live handle it wraps the decomposition in an
/// `adcd_decompose` span and accounts the search's deterministic cost:
/// op counts derived from the algorithm's structure (probe counts and
/// the Nelder–Mead iteration budget from [`EigenSearch`]), never from
/// timers, so same-seed runs trace identically.
pub fn decompose_observed(
    f: &dyn MonitoredFunction,
    x0: &[f64],
    neighborhood: Option<&NeighborhoodBox>,
    cfg: &MonitorConfig,
    tel: &automon_obs::Telemetry,
) -> DcDecomposition {
    if !tel.is_enabled() {
        return decompose(f, x0, neighborhood, cfg);
    }
    let span = tel.span("adcd_decompose");
    let dec = decompose(f, x0, neighborhood, cfg);
    let es = &cfg.eigen_search;
    // Deterministic work accounting, read off the decomposition's own
    // spectral counters (see [`SpectralStats`]).
    let sp = dec.spectral;
    // The polish budget of both streams: an upper bound, whichever of
    // them ran.
    let nm_budget = match dec.kind {
        AdcdKind::E => 0u64,
        AdcdKind::X => 2 * es.nm_iters as u64,
    };
    tel.counter(
        "automon_adcd_decompositions_total",
        "ADCD decompositions performed",
    )
    .inc();
    tel.counter(
        "automon_adcd_hessian_replays_total",
        "Hessian evaluations spent in ADCD (deterministic count)",
    )
    .add(sp.hessian_materializations);
    tel.counter(
        "automon_adcd_eigen_probes_total",
        "Eigen-search probe points evaluated",
    )
    .add(sp.eigen_probes);
    tel.counter(
        "automon_adcd_lanczos_iters_total",
        "Lanczos iterations spent in the matrix-free eigen search",
    )
    .add(sp.lanczos_iterations);
    tel.counter(
        "automon_adcd_reorth_passes_total",
        "Gram-Schmidt reorthogonalization passes over the Krylov basis",
    )
    .add(sp.reorth_passes);
    tel.add_ops(sp.hessian_materializations + sp.lanczos_iterations + nm_budget);
    tel.event(
        "adcd_split",
        &[
            (
                // "kind" is a trace-envelope key; the split flavor gets
                // its own name.
                "split",
                match dec.kind {
                    AdcdKind::E => "E",
                    AdcdKind::X => "X",
                }
                .into(),
            ),
            ("lambda_min_hat", dec.lambda_min_hat.into()),
            ("lambda_max_hat", dec.lambda_max_hat.into()),
            ("hessian_replays", sp.hessian_materializations.into()),
            ("lanczos_iters", sp.lanczos_iterations.into()),
        ],
    );
    drop(span);
    dec
}

/// ADCD-E (paper Lemma 2).
fn decompose_e(f: &dyn MonitoredFunction, x0: &[f64], cfg: &MonitorConfig) -> DcDecomposition {
    // A constant Hessian was already evaluated once when f was wrapped;
    // reuse it instead of paying d more Hessian-vector products here.
    // When ADCD-E is forced on a function whose Hessian was not detected
    // constant, fall back to evaluating at the reference point.
    let cached = f.constant_hessian();
    let spectral = SpectralStats {
        hessian_materializations: u64::from(cached.is_none()),
        ..SpectralStats::default()
    };
    let h = cached.unwrap_or_else(|| f.hessian(x0));
    let eig = SymEigen::new(&h);
    let (lmin, lmax) = (eig.lambda_min(), eig.lambda_max());
    // DC heuristic for constant Hessians reduces to |λ_min| ≤ λ_max
    // (paper §3.4).
    let dc = cfg.dc_override.unwrap_or(if lmin.abs() <= lmax {
        DcKind::ConvexDiff
    } else {
        DcKind::ConcaveDiff
    });
    let curvature = match dc {
        // Convex difference subtracts the NSD part: q(Δ) = ½·Δᵀ(-H⁻)Δ.
        DcKind::ConvexDiff => Curvature::Quadratic(eig.nsd_part().scale(-1.0)),
        // Concave difference subtracts the PSD part: q(Δ) = ½·Δᵀ H⁺ Δ.
        DcKind::ConcaveDiff => Curvature::Quadratic(eig.psd_part()),
        DcKind::AdmissibleOnly => unreachable!("ablation bypasses decompose"),
    };
    DcDecomposition {
        kind: AdcdKind::E,
        dc,
        curvature,
        lambda_min_hat: lmin,
        lambda_max_hat: lmax,
        spectral,
    }
}

/// ADCD-X (paper Lemma 1 + eq. 3).
fn decompose_x(
    f: &dyn MonitoredFunction,
    x0: &[f64],
    neighborhood: &NeighborhoodBox,
    cfg: &MonitorConfig,
) -> DcDecomposition {
    let bounds = neighborhood.to_bounds();
    let mut spectral = SpectralStats::default();
    let (dc, lambda_min_hat, lambda_max_hat) = search_extremes(f, x0, &bounds, cfg, &mut spectral);
    // The penalty is |λ⁻| = |min(0, λ̂_min)| or λ⁺ = max(0, λ̂_max) — the
    // one extreme the chosen representation uses, always a searched one.
    // The safety margin widens it only here: the heuristic that chose
    // `dc` saw the raw extremes, so the margin cannot flip the
    // representation.
    let curvature = match dc {
        DcKind::ConvexDiff => Curvature::Scalar((-lambda_min_hat).max(0.0) * cfg.eigen_margin),
        DcKind::ConcaveDiff => Curvature::Scalar(lambda_max_hat.max(0.0) * cfg.eigen_margin),
        DcKind::AdmissibleOnly => unreachable!("ablation bypasses decompose"),
    };
    DcDecomposition {
        kind: AdcdKind::X,
        dc,
        curvature,
        lambda_min_hat,
        lambda_max_hat,
        spectral,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Extreme {
    Min,
    Max,
}

impl Extreme {
    /// The search stream's probe generator: one seeded stream per
    /// extreme, consumed in order.
    fn probe_rng(self, es: &EigenSearch) -> SmallRng {
        SmallRng::seed_from_u64(es.seed ^ (self == Extreme::Max) as u64)
    }

    /// This extreme of a `(lo, hi)` spectrum bound, in minimization form.
    fn signed(self, (lo, hi): (f64, f64)) -> f64 {
        match self {
            Extreme::Min => lo,
            Extreme::Max => -hi,
        }
    }
}

/// Draw the next probe point of a search stream, uniform over the box,
/// into `p`.
fn draw_probe(rng: &mut SmallRng, bounds: &Bounds, p: &mut [f64]) {
    for (i, pi) in p.iter_mut().enumerate() {
        *pi = if bounds.lo[i] < bounds.hi[i] {
            rng.gen_range(bounds.lo[i]..=bounds.hi[i])
        } else {
            bounds.lo[i]
        };
    }
}

/// Gershgorin disc bounds on the spectrum of a symmetric matrix:
/// `(min_i h_ii - R_i, max_i h_ii + R_i)` with `R_i = Σ_{j≠i} |h_ij|`.
/// The search reads them at the box center for its Lanczos shift and
/// scale.
fn gershgorin_bounds(h: &Matrix) -> (f64, f64) {
    let n = h.rows();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let mut radius = 0.0;
        for j in 0..n {
            if i != j {
                radius += h[(i, j)].abs();
            }
        }
        lo = lo.min(h[(i, i)] - radius);
        hi = hi.max(h[(i, i)] + radius);
    }
    (lo, hi)
}

/// One search stream: numerically bound the `which` extreme eigenvalue
/// of `H(x)` over the box. The box center (already evaluated by the
/// caller, `center_lohi`) is the incumbent; seeded probes are drawn and
/// evaluated in order under a strict `<`, and a box-projected
/// Nelder–Mead polish continues from the best of them. `lohi_at` maps a
/// point to the `(lo, hi)` spectrum bound of its Hessian: Lanczos over
/// products in production ([`ExtremeSearch::stream`]), a dense Jacobi
/// decomposition in the tests' oracle. Returns the bound in
/// minimization form (`-λ̂_max` for [`Extreme::Max`]) and the number of
/// `lohi_at` evaluations, polish included.
///
/// `value_tol` is the resolution of `lohi_at`'s values: the polish stops
/// once its simplex spans no more than that
/// ([`OptimizeOptions::value_tol`]), because below it the vertices are
/// ranked by evaluation noise and the simplex can only shrink toward a
/// vertex it already holds.
fn search_stream(
    which: Extreme,
    center_lohi: (f64, f64),
    bounds: &Bounds,
    es: &EigenSearch,
    value_tol: f64,
    mut lohi_at: impl FnMut(&[f64]) -> (f64, f64),
) -> (f64, u64) {
    let mut evals = 0u64;
    let mut eval = |x: &[f64]| -> f64 {
        evals += 1;
        let v = which.signed(lohi_at(x));
        // A non-finite Hessian somewhere in the box yields a NaN bound.
        // As +∞ it is never the incumbent and sorts last in the simplex,
        // where a NaN would panic the polish's ordering.
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };
    let d = bounds.dim();
    let mut best_v = which.signed(center_lohi);
    let mut best_x = bounds.center();
    let mut rng = which.probe_rng(es);
    let mut p = vec![0.0; d];
    for _ in 0..es.probes {
        draw_probe(&mut rng, bounds, &mut p);
        let v = eval(&p);
        if v < best_v {
            best_v = v;
            best_x.copy_from_slice(&p);
        }
    }
    if es.nm_iters > 0 && d <= es.nm_dim_cap {
        let opts = OptimizeOptions {
            max_iters: es.nm_iters,
            tol: 1e-10,
            value_tol,
        };
        let r = nelder_mead(&mut eval, &best_x, bounds, &opts);
        if r.value < best_v {
            best_v = r.value;
        }
    }
    (best_v, evals)
}

/// [`SymOperator`] view of `v ↦ H(x)·v` at a fixed probe point,
/// backed by a reusable [`HvpEvaluator`].
struct HvpProbeOp<'a> {
    he: &'a mut (dyn HvpEvaluator + 'a),
}

impl<'a> HvpProbeOp<'a> {
    /// Prime `he` at the probe point `x`: the point's primal work runs
    /// here, once, and every product of the Lanczos run that follows is
    /// a tangent sweep over it.
    fn at(he: &'a mut (dyn HvpEvaluator + 'a), x: &[f64]) -> Self {
        he.at(x);
        Self { he }
    }
}

impl SymOperator for HvpProbeOp<'_> {
    fn dim(&self) -> usize {
        self.he.dim()
    }
    fn apply(&mut self, v: &[f64], out: &mut [f64]) {
        self.he.apply(v, out);
    }
}

/// What the search streams of one ADCD-X decomposition start from.
///
/// Two Hessians are materialized up front off one
/// [`MonitoredFunction::hessian_eval`] workspace — `H(x0)` for the DC
/// heuristic (read values-only) and `H(center)`, whose spectrum is both
/// streams' incumbent. For a graph without point-dependent structure,
/// neither that workspace nor a stream's HVP evaluator records the
/// function again: [`automon_autodiff::AutoDiffFn`] lends evaluators
/// workspaces that hold its wrap-time recording.
///
/// A [`search_stream`] then runs per extreme ([`Self::stream`]), over its
/// own seeded probe stream, and touches no dense Hessian again. Each
/// point's extremes come from a [`LanczosWorkspace`] driven by
/// Hessian-vector products through [`HvpEvaluator`], primed once per
/// point ([`HvpProbeOp::at`]) so the Lanczos run's products pay only
/// their tangent sweeps. The center decomposition supplies each stream's
/// initial Ritz vector, every run warm-starts from the previous run's,
/// and the center's Gershgorin enclosure supplies the Lanczos shift
/// (midpoint) and convergence scale (half-width) — valid across the
/// neighborhood to the extent the Hessian varies smoothly, and only used
/// for seeding/scaling, never correctness.
///
/// A stream's result depends on nothing another stream did: each has its
/// own RNG, Lanczos workspace and HVP evaluator.
struct ExtremeSearch<'a> {
    f: &'a dyn MonitoredFunction,
    bounds: &'a Bounds,
    es: &'a EigenSearch,
    /// `(λ_min, λ_max)` of `H(x0)`.
    ref_lohi: (f64, f64),
    /// `(λ_min, λ_max)` of `H(center)`.
    center_lohi: (f64, f64),
    /// Gershgorin enclosure of `H(center)`.
    gershgorin: (f64, f64),
    /// The center's eigenvectors: the streams' Lanczos seeds.
    center: SymEigen,
}

impl<'a> ExtremeSearch<'a> {
    fn new(
        f: &'a dyn MonitoredFunction,
        x0: &[f64],
        bounds: &'a Bounds,
        es: &'a EigenSearch,
        stats: &mut SpectralStats,
    ) -> Self {
        let d = bounds.dim();
        let mut he = f.hessian_eval();
        let mut h = Matrix::zeros(d, d);
        he.hessian_into(x0, &mut h);
        // Only `H(x0)`'s extremes are read: values only, bit-identical to
        // a full decomposition's.
        let ref_lohi = EigenWorkspace::new().extreme_eigenvalues(&h);
        he.hessian_into(&bounds.center(), &mut h);
        stats.hessian_materializations = 2;
        let center = SymEigen::new(&h);
        Self {
            f,
            bounds,
            es,
            ref_lohi,
            center_lohi: (center.lambda_min(), center.lambda_max()),
            gershgorin: gershgorin_bounds(&h),
            center,
        }
    }

    /// Run one search stream to the end of its budget; returns `λ̂_min`
    /// ([`Extreme::Min`]) or `λ̂_max` ([`Extreme::Max`]). Every counter in
    /// `stats` is incremented where the work happens.
    fn stream(&self, which: Extreme, stats: &mut SpectralStats) -> f64 {
        let (glo, ghi) = self.gershgorin;
        let (shift, scale) = (0.5 * (glo + ghi), 0.5 * (ghi - glo));
        let lopts = LanczosOptions::default();
        // What the Lanczos convergence test calls converged, the polish
        // calls equal.
        let value_tol = lopts.tol * scale;
        let d = self.bounds.dim();
        let (side, col) = match which {
            Extreme::Min => (RitzSide::Smallest, 0),
            Extreme::Max => (RitzSide::Largest, d - 1),
        };
        let mut ws = LanczosWorkspace::new();
        let start: Vec<f64> = (0..d).map(|i| self.center.vectors[(i, col)]).collect();
        ws.set_start(&start);
        let mut hv = self.f.hvp_eval();
        let mut ls = LanczosStats::default();
        let lanczos = |x: &[f64]| {
            let mut op = HvpProbeOp::at(&mut *hv, x);
            ws.extremes(&mut op, shift, scale, side, &lopts, &mut ls)
        };
        let (v, evals) =
            search_stream(which, self.center_lohi, self.bounds, self.es, value_tol, lanczos);
        stats.lanczos_iterations += ls.iterations;
        stats.reorth_passes += ls.reorth_passes;
        stats.hvp_applies += ls.applies;
        stats.eigen_probes += evals;
        // Out of minimization form.
        match which {
            Extreme::Min => v,
            Extreme::Max => -v,
        }
    }
}

/// The ADCD-X extreme search (eq. 3) and the DC heuristic (§3.4) it
/// feeds. Returns `(dc, λ̂_min, λ̂_max)`.
///
/// The decomposition uses the two extremes for one decision and one
/// number: the heuristic
///
/// ```text
/// λ_min(H(x0)) + 2|λ⁻|  ≤  |λ_max(H(x0)) − 2λ⁺|   →  convex difference
/// ```
///
/// (`λ⁻ = min(0, λ̂_min)`, `λ⁺ = max(0, λ̂_max)`; Lemma 1's Hessians
/// substituted into §3.4's inequality, on the raw extremes) and then
/// `|λ⁻|` *or* `λ⁺` as the curvature. So only the stream whose extreme
/// the chosen representation uses must run. The heuristic on the
/// box-center incumbents picks which stream runs first (`dc_override`
/// picks it outright, and then nothing else runs); the other stream runs
/// only if its result could still change the choice. A stream moves its
/// incumbent outward only (`λ̂_min ≤ lo_c`, `λ̂_max ≥ hi_c`: strict-`<`
/// argmin from the center), the left side grows as `λ̂_min` falls and
/// `t(λ̂_max) = λ_max(H(x0)) − 2·max(0, λ̂_max)` falls as `λ̂_max` grows,
/// in floating point as in the reals (doubling is exact, rounding is
/// monotone), hence:
///
/// * after `Min`: `rhs = |t(λ̂_max)| ≥ max(0, −t(hi_c))`, so the convex
///   difference is certain when `lhs(λ̂_min) ≤ max(0, −t(hi_c))`;
/// * after `Max`: `lhs(λ̂_min) ≥ lhs(lo_c)`, so the concave difference is
///   certain when `lhs(lo_c) > |t(λ̂_max)|`.
///
/// Either way `(dc, curvature)` is bit-identical to running both streams,
/// and an unsearched extreme is returned as the center's value — under
/// which the heuristic gives the same answer, so it is evaluated once,
/// at the end.
fn search_extremes(
    f: &dyn MonitoredFunction,
    x0: &[f64],
    bounds: &Bounds,
    cfg: &MonitorConfig,
    stats: &mut SpectralStats,
) -> (DcKind, f64, f64) {
    let search = ExtremeSearch::new(f, x0, bounds, &cfg.eigen_search, stats);
    let (l0_min, l0_max) = search.ref_lohi;
    let lhs = |lambda_min_hat: f64| l0_min + 2.0 * (-lambda_min_hat).max(0.0);
    let t = |lambda_max_hat: f64| l0_max - 2.0 * lambda_max_hat.max(0.0);
    let heuristic = |lambda_min_hat: f64, lambda_max_hat: f64| {
        if lhs(lambda_min_hat) <= t(lambda_max_hat).abs() {
            DcKind::ConvexDiff
        } else {
            DcKind::ConcaveDiff
        }
    };

    let (lo_c, hi_c) = search.center_lohi;
    let (mut lambda_min_hat, mut lambda_max_hat) = (lo_c, hi_c);
    let undecided = cfg.dc_override.is_none();
    match cfg.dc_override.unwrap_or_else(|| heuristic(lo_c, hi_c)) {
        DcKind::ConvexDiff => {
            lambda_min_hat = search.stream(Extreme::Min, stats);
            let convex_certain = lhs(lambda_min_hat) <= (-t(hi_c)).max(0.0);
            if undecided && !convex_certain {
                lambda_max_hat = search.stream(Extreme::Max, stats);
            }
        }
        DcKind::ConcaveDiff => {
            lambda_max_hat = search.stream(Extreme::Max, stats);
            let concave_certain = lhs(lo_c) > t(lambda_max_hat).abs();
            if undecided && !concave_certain {
                lambda_min_hat = search.stream(Extreme::Min, stats);
            }
        }
        DcKind::AdmissibleOnly => unreachable!("ablation bypasses decompose"),
    }
    let dc = cfg
        .dc_override
        .unwrap_or_else(|| heuristic(lambda_min_hat, lambda_max_hat));
    (dc, lambda_min_hat, lambda_max_hat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_linalg::JacobiOptions;

    struct Saddle;
    impl ScalarFn for Saddle {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // f = -x₀² + x₁²: constant Hessian diag(-2, 2).
            -x[0] * x[0] + x[1] * x[1]
        }
    }

    struct Sin1;
    impl ScalarFn for Sin1 {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].sin()
        }
    }

    fn cfg() -> MonitorConfig {
        MonitorConfig::builder(0.1).build()
    }

    #[test]
    fn saddle_gets_adcd_e_with_exact_split() {
        let f = AutoDiffFn::new(Saddle);
        assert!(automon_autodiff::DifferentiableFn::has_constant_hessian(&f));
        let d = decompose(&f, &[0.0, 0.0], None, &cfg());
        assert_eq!(d.kind, AdcdKind::E);
        assert!((d.lambda_min_hat + 2.0).abs() < 1e-9);
        assert!((d.lambda_max_hat - 2.0).abs() < 1e-9);
        // |λ_min| = λ_max → heuristic picks convex.
        assert_eq!(d.dc, DcKind::ConvexDiff);
        // Convex curvature is -H⁻ = diag(2, 0).
        match &d.curvature {
            Curvature::Quadratic(m) => {
                assert!(m.approx_eq(&Matrix::from_diag(&[2.0, 0.0]), 1e-9))
            }
            other => panic!("expected quadratic curvature, got {other:?}"),
        }
    }

    #[test]
    fn adcd_e_concave_override_uses_psd_part() {
        let f = AutoDiffFn::new(Saddle);
        let c = MonitorConfig::builder(0.1).dc(DcKind::ConcaveDiff).build();
        let d = decompose(&f, &[0.0, 0.0], None, &c);
        match &d.curvature {
            Curvature::Quadratic(m) => {
                assert!(m.approx_eq(&Matrix::from_diag(&[0.0, 2.0]), 1e-9))
            }
            other => panic!("expected quadratic curvature, got {other:?}"),
        }
    }

    #[test]
    fn sin_gets_adcd_x_with_tight_extremes() {
        // Over B = [π/2 - 1, π/2 + 1], f'' = -sin ranges in
        // [-1, -sin(π/2 - 1)] ≈ [-1, -0.54].
        let f = AutoDiffFn::new(Sin1);
        let x0 = [std::f64::consts::FRAC_PI_2];
        let b = NeighborhoodBox {
            lo: vec![x0[0] - 1.0],
            hi: vec![x0[0] + 1.0],
        };
        // Each extreme is searched when the representation that uses it
        // is forced.
        let forced = |dc| {
            let c = MonitorConfig::builder(0.1).dc(dc).build();
            decompose(&f, &x0, Some(&b), &c)
        };
        let lambda_min_hat = forced(DcKind::ConvexDiff).lambda_min_hat;
        assert!((lambda_min_hat + 1.0).abs() < 1e-6, "{lambda_min_hat}");
        let lambda_max_hat = forced(DcKind::ConcaveDiff).lambda_max_hat;
        assert!(
            (lambda_max_hat + (std::f64::consts::FRAC_PI_2 - 1.0).sin()).abs() < 1e-6,
            "{lambda_max_hat}"
        );
        // All curvature is negative → λ⁺ = 0; heuristic picks convex with
        // |λ⁻| = 1.
        let d = decompose(&f, &x0, Some(&b), &cfg());
        assert_eq!(d.kind, AdcdKind::X);
        assert_eq!(d.dc, DcKind::ConvexDiff);
        assert_eq!(d.lambda_min_hat.to_bits(), lambda_min_hat.to_bits());
        match d.curvature {
            Curvature::Scalar(c) => assert!((c - 1.0).abs() < 1e-6),
            ref other => panic!("expected scalar curvature, got {other:?}"),
        }
    }

    #[test]
    fn convex_function_yields_zero_penalty_convex_diff() {
        struct Norm;
        impl ScalarFn for Norm {
            fn dim(&self) -> usize {
                2
            }
            fn call<S: Scalar>(&self, x: &[S]) -> S {
                (x[0] * x[0] + x[1] * x[1] + S::from_f64(1.0)).sqrt()
            }
        }
        // √(‖x‖² + 1) is convex: λ_min ≥ 0 everywhere → λ⁻ = 0 and the DC
        // heuristic must choose the convex difference (paper §3.7).
        let f = AutoDiffFn::new(Norm);
        let b = NeighborhoodBox {
            lo: vec![-1.0, -1.0],
            hi: vec![1.0, 1.0],
        };
        let c = MonitorConfig::builder(0.1).adcd(AdcdKind::X).build();
        let d = decompose(&f, &[0.2, -0.1], Some(&b), &c);
        assert_eq!(d.dc, DcKind::ConvexDiff);
        match d.curvature {
            Curvature::Scalar(c) => assert!(c.abs() < 1e-9, "λ⁻ should be 0, got {c}"),
            ref other => panic!("expected scalar curvature, got {other:?}"),
        }
    }

    #[test]
    fn eigen_margin_scales_penalty() {
        let f = AutoDiffFn::new(Sin1);
        let x0 = [std::f64::consts::FRAC_PI_2];
        let b = NeighborhoodBox {
            lo: vec![x0[0] - 1.0],
            hi: vec![x0[0] + 1.0],
        };
        let c = MonitorConfig::builder(0.1).eigen_margin(2.0).build();
        let d = decompose(&f, &x0, Some(&b), &c);
        match d.curvature {
            Curvature::Scalar(c) => assert!((c - 2.0).abs() < 1e-5),
            ref other => panic!("expected scalar curvature, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "requires a neighborhood")]
    fn adcd_x_without_neighborhood_panics() {
        let f = AutoDiffFn::new(Sin1);
        let c = MonitorConfig::builder(0.1).adcd(AdcdKind::X).build();
        decompose(&f, &[0.0], None, &c);
    }

    struct Coupled;
    impl ScalarFn for Coupled {
        fn dim(&self) -> usize {
            3
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            (x[0] * x[1]).sin() + x[2].exp() * x[0] - x[1] / (x[2] + S::from_f64(2.0))
        }
    }

    fn coupled_box() -> NeighborhoodBox {
        NeighborhoodBox {
            lo: vec![-0.2, -0.7, -0.4],
            hi: vec![0.8, 0.3, 0.6],
        }
    }

    /// The pre-unification one-probe-at-a-time search of one extreme, the
    /// reference [`jacobi_search`] is pinned to: a fresh `f.hessian` and a
    /// full Jacobi [`SymEigen`] per point, its own probe loop and polish
    /// (stopped by the same value rule, from its own center Hessian).
    fn search_extreme(
        f: &dyn MonitoredFunction,
        bounds: &Bounds,
        es: &EigenSearch,
        which: Extreme,
    ) -> f64 {
        // Objective in minimization form.
        let eval = |x: &[f64]| -> f64 {
            let eig = SymEigen::with_options(&f.hessian(x), JacobiOptions::default());
            match which {
                Extreme::Min => eig.lambda_min(),
                Extreme::Max => -eig.lambda_max(),
            }
        };

        let mut best_x = bounds.center();
        let mut best_v = eval(&best_x);
        let mut rng = which.probe_rng(es);
        let d = bounds.dim();
        let mut p = vec![0.0; d];
        for _ in 0..es.probes {
            draw_probe(&mut rng, bounds, &mut p);
            let v = eval(&p);
            if v < best_v {
                best_v = v;
                best_x.copy_from_slice(&p);
            }
        }
        if es.nm_iters > 0 && d <= es.nm_dim_cap {
            let (glo, ghi) = gershgorin_bounds(&f.hessian(&bounds.center()));
            let opts = OptimizeOptions {
                max_iters: es.nm_iters,
                tol: 1e-10,
                value_tol: LanczosOptions::default().tol * (0.5 * (ghi - glo)),
            };
            let mut obj = eval;
            let r = nelder_mead(&mut obj, &best_x, bounds, &opts);
            if r.value < best_v {
                best_v = r.value;
            }
        }
        match which {
            Extreme::Min => best_v,
            Extreme::Max => -best_v,
        }
    }

    /// The search's test oracle: both streams of the production
    /// [`search_stream`] with a dense evaluator — `H(x)` materialized and
    /// bounded by cyclic Jacobi — from Jacobi's center incumbent and the
    /// production polish stop. Returns `[λ̂_min, λ̂_max, λ_min(H(x0)),
    /// λ_max(H(x0))]`.
    fn jacobi_search(
        f: &dyn MonitoredFunction,
        x0: &[f64],
        bounds: &Bounds,
        es: &EigenSearch,
    ) -> [f64; 4] {
        let d = bounds.dim();
        let mut he = f.hessian_eval();
        let mut h = Matrix::zeros(d, d);
        let mut ws = EigenWorkspace::new();
        let mut jacobi = |x: &[f64]| {
            he.hessian_into(x, &mut h);
            ws.extreme_eigenvalues_with(&h, JacobiOptions::default())
        };
        let (l0_min, l0_max) = jacobi(x0);
        let center_lohi = jacobi(&bounds.center());
        // The production polish stop: Jacobi's own error is of the
        // Lanczos tolerance's order at this scale too.
        let (glo, ghi) = gershgorin_bounds(&f.hessian(&bounds.center()));
        let value_tol = LanczosOptions::default().tol * (0.5 * (ghi - glo));
        let mut stream =
            |which| search_stream(which, center_lohi, bounds, es, value_tol, &mut jacobi).0;
        [stream(Extreme::Min), -stream(Extreme::Max), l0_min, l0_max]
    }

    /// The DC heuristic (§3.4) on both searched extremes: the decision
    /// `decompose` must reproduce.
    fn heuristic((l0_min, l0_max): (f64, f64), lambda_min_hat: f64, lambda_max_hat: f64) -> DcKind {
        let lhs = l0_min + 2.0 * (-lambda_min_hat).max(0.0);
        let rhs = (l0_max - 2.0 * lambda_max_hat.max(0.0)).abs();
        if lhs <= rhs {
            DcKind::ConvexDiff
        } else {
            DcKind::ConcaveDiff
        }
    }

    /// What the search produced before it learned to skip a stream.
    #[derive(Debug, PartialEq)]
    struct TwoStreams {
        dc: DcKind,
        curvature_bits: u64,
        /// `(λ̂_min, λ̂_max)` bits, `(lo_c, hi_c)` bits, evaluations per
        /// stream.
        hat_bits: (u64, u64),
        center_bits: (u64, u64),
        evals: (u64, u64),
    }

    /// Both streams of the search run to the end of their budgets, in
    /// the given order, and the decision rule `decompose_x` used to apply
    /// to their two results: what `decompose` must still return.
    fn two_stream_reference(
        f: &dyn MonitoredFunction,
        x0: &[f64],
        b: &NeighborhoodBox,
        cfg: &MonitorConfig,
        order: [Extreme; 2],
    ) -> TwoStreams {
        let bounds = b.to_bounds();
        let search =
            ExtremeSearch::new(f, x0, &bounds, &cfg.eigen_search, &mut SpectralStats::default());
        let (mut lambda_min_hat, mut lambda_max_hat) = (f64::NAN, f64::NAN);
        let mut evals = (0, 0);
        for which in order {
            let mut sp = SpectralStats::default();
            let v = search.stream(which, &mut sp);
            match which {
                Extreme::Min => (lambda_min_hat, evals.0) = (v, sp.eigen_probes),
                Extreme::Max => (lambda_max_hat, evals.1) = (v, sp.eigen_probes),
            }
        }
        let dc = cfg
            .dc_override
            .unwrap_or_else(|| heuristic(search.ref_lohi, lambda_min_hat, lambda_max_hat));
        let curvature = match dc {
            DcKind::ConvexDiff => (-lambda_min_hat).max(0.0) * cfg.eigen_margin,
            DcKind::ConcaveDiff => lambda_max_hat.max(0.0) * cfg.eigen_margin,
            DcKind::AdmissibleOnly => unreachable!(),
        };
        TwoStreams {
            dc,
            curvature_bits: curvature.to_bits(),
            hat_bits: (lambda_min_hat.to_bits(), lambda_max_hat.to_bits()),
            center_bits: (search.center_lohi.0.to_bits(), search.center_lohi.1.to_bits()),
            evals,
        }
    }

    /// The default configuration without and with either `dc_override`,
    /// labelled for assertion messages.
    fn all_cfgs(es: EigenSearch) -> Vec<(MonitorConfig, String)> {
        let default = MonitorConfig::builder(0.1).adcd(AdcdKind::X).eigen_search(es);
        [None, Some(DcKind::ConvexDiff), Some(DcKind::ConcaveDiff)]
            .into_iter()
            .map(|dc_override| {
                let cfg = match dc_override {
                    None => default.clone().build(),
                    Some(dc) => default.clone().dc(dc).build(),
                };
                (cfg, format!("override {dc_override:?}, {es:?}"))
            })
            .collect()
    }

    /// Which streams a decomposition ran.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ran {
        MinOnly,
        MaxOnly,
        Both,
    }

    /// `decompose` returns the `(dc, curvature)` of the two-stream search
    /// bit for bit and spends no more evaluations, under every
    /// `dc_override`;
    /// the streams do not depend on the order they run in; an extreme
    /// whose stream was skipped reports the center's value; and a repeat
    /// decomposition reproduces values and counters exactly. Returns what
    /// ran without an override.
    fn assert_skip_is_exact(
        f: &dyn MonitoredFunction,
        x0: &[f64],
        b: &NeighborhoodBox,
        es: EigenSearch,
    ) -> Ran {
        let mut default_ran = None;
        for (cfg, what) in all_cfgs(es) {
            let two = two_stream_reference(f, x0, b, &cfg, [Extreme::Min, Extreme::Max]);
            let swapped = two_stream_reference(f, x0, b, &cfg, [Extreme::Max, Extreme::Min]);
            assert_eq!(two, swapped, "stream order matters: {what}");

            let dec = decompose(f, x0, Some(b), &cfg);
            assert_eq!(dec.dc, two.dc, "{what}");
            match dec.curvature {
                Curvature::Scalar(c) => assert_eq!(c.to_bits(), two.curvature_bits, "{what}"),
                ref other => panic!("{what}: expected scalar curvature, got {other:?}"),
            }

            // A lone stream is the one whose extreme the result uses.
            let probes = dec.spectral.eigen_probes;
            let ran = if probes == two.evals.0 + two.evals.1 {
                Ran::Both
            } else if dec.dc == DcKind::ConvexDiff {
                assert_eq!(probes, two.evals.0, "{what}");
                Ran::MinOnly
            } else {
                assert_eq!(probes, two.evals.1, "{what}");
                Ran::MaxOnly
            };
            if cfg.dc_override.is_some() {
                assert_ne!(ran, Ran::Both, "an override leaves nothing to decide: {what}");
            }
            let expect = (
                if ran == Ran::MaxOnly { two.center_bits.0 } else { two.hat_bits.0 },
                if ran == Ran::MinOnly { two.center_bits.1 } else { two.hat_bits.1 },
            );
            assert_eq!(
                (dec.lambda_min_hat.to_bits(), dec.lambda_max_hat.to_bits()),
                expect,
                "{ran:?}: {what}"
            );
            default_ran = default_ran.or(Some(ran));

            let again = decompose(f, x0, Some(b), &cfg);
            assert_eq!(again.lambda_min_hat.to_bits(), dec.lambda_min_hat.to_bits(), "{what}");
            assert_eq!(again.lambda_max_hat.to_bits(), dec.lambda_max_hat.to_bits(), "{what}");
            assert_eq!((again.dc, again.spectral), (dec.dc, dec.spectral), "{what}");
        }
        default_ran.expect("the default configuration ran")
    }

    /// The production search loop over Jacobi-bounded dense Hessians
    /// equals the one-probe-at-a-time oracle `to_bits`, and `decompose` is
    /// the two-stream decision over its own streams
    /// ([`assert_skip_is_exact`]).
    fn assert_matches_oracle(
        f: &dyn MonitoredFunction,
        x0: &[f64],
        b: &NeighborhoodBox,
        es: EigenSearch,
    ) {
        let bounds = b.to_bounds();
        let eig0 = SymEigen::with_options(&f.hessian(x0), JacobiOptions::default());
        let oracle = [
            search_extreme(f, &bounds, &es, Extreme::Min),
            search_extreme(f, &bounds, &es, Extreme::Max),
            eig0.lambda_min(),
            eig0.lambda_max(),
        ];
        assert_eq!(
            jacobi_search(f, x0, &bounds, &es).map(f64::to_bits),
            oracle.map(f64::to_bits),
            "{es:?}"
        );
        assert_skip_is_exact(f, x0, b, es);
    }

    #[test]
    fn unified_search_bit_identical_to_dense_oracle() {
        let f = AutoDiffFn::new(Coupled);
        for nm_iters in [0, 40] {
            let es = EigenSearch {
                nm_iters,
                ..EigenSearch::default()
            };
            assert_matches_oracle(&f, &[0.3, -0.2, 0.1], &coupled_box(), es);
        }
    }

    /// τ-smoothed KLD over two `d/2`-bin histograms, as in
    /// `automon_functions::KlDivergence`.
    struct Kld(usize);
    impl ScalarFn for Kld {
        fn dim(&self) -> usize {
            self.0
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            let half = self.0 / 2;
            let tau = S::from_f64(1.0 / 60.0);
            let mut acc = S::from_f64(0.0);
            for i in 0..half {
                let (p, q) = (x[i] + tau, x[half + i] + tau);
                acc = acc + p * (p.ln() - q.ln());
            }
            acc
        }
    }

    /// τ-smoothed Shannon entropy, as in `automon_functions::Entropy`.
    struct Entropy(usize);
    impl ScalarFn for Entropy {
        fn dim(&self) -> usize {
            self.0
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            let tau = S::from_f64(1.0 / 60.0);
            let mut acc = S::from_f64(0.0);
            for &xi in x {
                let p = xi + tau;
                acc = acc - p * p.ln();
            }
            acc
        }
    }

    /// `w₃·tanh(W₂·tanh(W₁x + b₁) + b₂)` with seeded weights: the shape of
    /// `automon_functions::MlpFunction`, untrained.
    struct Mlp {
        d: usize,
        hidden: usize,
        weights: Vec<f64>,
    }

    impl Mlp {
        fn seeded(d: usize, hidden: usize, seed: u64) -> Self {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = hidden * (d + 1) + hidden * (hidden + 1) + hidden;
            Self {
                d,
                hidden,
                weights: (0..n).map(|_| rng.gen_range(-0.8..0.8)).collect(),
            }
        }
    }

    impl ScalarFn for Mlp {
        fn dim(&self) -> usize {
            self.d
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            let mut w = self.weights.iter().map(|&w| S::from_f64(w));
            let mut layer = |input: &[S]| -> Vec<S> {
                (0..self.hidden)
                    .map(|_| {
                        let mut z = w.next().unwrap();
                        for &v in input {
                            z = z + w.next().unwrap() * v;
                        }
                        z.tanh()
                    })
                    .collect()
            };
            let h1 = layer(x);
            let h2 = layer(&h1);
            let mut out = S::from_f64(0.0);
            for v in h2 {
                out = out + w.next().unwrap() * v;
            }
            out
        }
    }

    fn box_around(x0: &[f64], half: f64) -> NeighborhoodBox {
        NeighborhoodBox {
            lo: x0.iter().map(|v| v - half).collect(),
            hi: x0.iter().map(|v| v + half).collect(),
        }
    }

    /// A dense random polynomial: per-coordinate cubics plus all
    /// pairwise cross terms, so the Hessian varies over the neighborhood
    /// and has off-diagonal structure.
    #[derive(Debug, Clone)]
    struct RandomPoly {
        cubic: Vec<f64>,
        quad: Vec<f64>,
        cross: Vec<f64>,
    }

    impl ScalarFn for RandomPoly {
        fn dim(&self) -> usize {
            self.cubic.len()
        }

        fn call<S: Scalar>(&self, x: &[S]) -> S {
            let d = x.len();
            let mut acc = S::from_f64(0.0);
            for (i, &xi) in x.iter().enumerate() {
                acc = acc
                    + S::from_f64(self.cubic[i]) * xi * xi * xi
                    + S::from_f64(self.quad[i]) * xi * xi;
            }
            let mut k = 0;
            for i in 0..d {
                for j in (i + 1)..d {
                    acc = acc + S::from_f64(self.cross[k]) * x[i] * x[j];
                    k += 1;
                }
            }
            acc
        }
    }

    /// `(1 − x)² + 100·(y − x²)²` (the paper's neighborhood-tuning stress
    /// case: steep curved valley).
    struct Rozenbrock;
    impl ScalarFn for Rozenbrock {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            let a = S::from_f64(1.0) - x[0];
            let b = x[1] - x[0] * x[0];
            a * a + S::from_f64(100.0) * b * b
        }
    }

    fn small_search(seed: u64) -> EigenSearch {
        EigenSearch {
            probes: 5,
            nm_iters: 8,
            seed,
            ..Default::default()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn random_polynomial_search_matches_oracle(
            cubic in proptest::collection::vec(-2.0f64..2.0, 3),
            quad in proptest::collection::vec(-3.0f64..3.0, 3),
            cross in proptest::collection::vec(-1.5f64..1.5, 3),
            x0 in proptest::collection::vec(-1.0f64..1.0, 3),
            half in 0.05f64..0.6,
            seed in 0u64..1000,
        ) {
            let f = AutoDiffFn::new(RandomPoly { cubic, quad, cross });
            let b = NeighborhoodBox {
                lo: x0.iter().map(|v| v - half).collect(),
                hi: x0.iter().map(|v| v + half).collect(),
            };
            assert_matches_oracle(&f, &x0, &b, small_search(seed));
        }

        #[test]
        fn rozenbrock_search_matches_oracle(
            x0 in proptest::collection::vec(-1.5f64..1.5, 2),
            half in 0.05f64..0.8,
            seed in 0u64..1000,
        ) {
            let f = AutoDiffFn::new(Rozenbrock);
            let b = NeighborhoodBox {
                lo: x0.iter().map(|v| v - half).collect(),
                hi: x0.iter().map(|v| v + half).collect(),
            };
            assert_matches_oracle(&f, &x0, &b, small_search(seed));
        }
    }

    /// The skip is exact on the §4.2 function shapes and the unit-test
    /// functions at the default search budget, and the default
    /// configuration skips where the DC heuristic is one-sided: a convex
    /// function (KLD) never needs its Max stream.
    #[test]
    fn one_stream_search_equals_two_stream_search() {
        let es = EigenSearch::default();
        let histogram_box = |d: usize| {
            let x0 = vec![2.0 / d as f64; d];
            let b = NeighborhoodBox {
                lo: x0.iter().map(|v| (v - 0.05f64).max(1e-6)).collect(),
                hi: x0.iter().map(|v| (v + 0.05f64).min(1.0)).collect(),
            };
            (x0, b)
        };
        let mut ran = Vec::new();
        let mut check = |name: &str, f: &dyn MonitoredFunction, x0: &[f64], b: &NeighborhoodBox| {
            ran.push((name.to_string(), assert_skip_is_exact(f, x0, b, es)));
        };
        for d in [10, 20] {
            let (x0, b) = histogram_box(d);
            check(&format!("kld {d}"), &AutoDiffFn::new(Kld(d)), &x0, &b);
        }
        let (x0, b) = histogram_box(10);
        check("entropy", &AutoDiffFn::new(Entropy(10)), &x0, &b);
        let x0: Vec<f64> = (0..10).map(|i| 0.06 + 0.02 * i as f64).collect();
        check("entropy, skewed", &AutoDiffFn::new(Entropy(10)), &x0, &box_around(&x0, 0.05));
        for (i, (x0, half)) in [([1.0, 1.0], 0.05), ([0.1, 0.2], 0.2), ([-0.5, 0.5], 0.5)]
            .into_iter()
            .enumerate()
        {
            let b = box_around(&x0, half);
            check(&format!("rozenbrock {i}"), &AutoDiffFn::new(Rozenbrock), &x0, &b);
        }
        for (i, x0) in [[std::f64::consts::FRAC_PI_2], [0.3]].into_iter().enumerate() {
            check(&format!("sine {i}"), &AutoDiffFn::new(Sin1), &x0, &box_around(&x0, 1.0));
        }
        check("coupled", &AutoDiffFn::new(Coupled), &[0.3, -0.2, 0.1], &coupled_box());
        let poly = RandomPoly {
            cubic: vec![1.3, -0.7, 0.4],
            quad: vec![-2.1, 0.9, 1.6],
            cross: vec![0.8, -1.1, 0.5],
        };
        let x0 = [0.2, -0.4, 0.6];
        check("polynomial", &AutoDiffFn::new(poly), &x0, &box_around(&x0, 0.3));
        let x0: Vec<f64> = (0..10).map(|i| 0.3 * (i as f64 - 4.0)).collect();
        check("mlp 10", &AutoDiffFn::new(Mlp::seeded(10, 8, 7)), &x0, &box_around(&x0, 0.25));

        let skipped: Vec<String> = ran
            .iter()
            .filter(|(_, r)| *r != Ran::Both)
            .map(|(name, r)| format!("{name}: {r:?}"))
            .collect();
        assert_eq!(
            skipped,
            [
                "kld 10: MinOnly",
                "kld 20: MinOnly",
                "entropy, skewed: MaxOnly",
                "rozenbrock 0: MinOnly",
                "sine 0: MinOnly"
            ],
            "all: {ran:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Random boxes of the polynomial at the default budget (the
        /// oracle proptests above run the same check at a small one).
        #[test]
        fn one_stream_search_equals_two_stream_search_on_random_boxes(
            cubic in proptest::collection::vec(-2.0f64..2.0, 3),
            quad in proptest::collection::vec(-3.0f64..3.0, 3),
            cross in proptest::collection::vec(-1.5f64..1.5, 3),
            x0 in proptest::collection::vec(-1.0f64..1.0, 3),
            half in proptest::collection::vec(0.01f64..0.8, 3),
            seed in 0u64..1000,
        ) {
            let f = AutoDiffFn::new(RandomPoly { cubic, quad, cross });
            let b = NeighborhoodBox {
                lo: x0.iter().zip(&half).map(|(v, h)| v - h).collect(),
                hi: x0.iter().zip(&half).map(|(v, h)| v + h).collect(),
            };
            let es = EigenSearch { seed, ..EigenSearch::default() };
            assert_skip_is_exact(&f, &x0, &b, es);
        }
    }

    /// `√x₀ · x₁²`-like: the Hessian is NaN wherever `x₀ < 0`, half the
    /// box below.
    struct HalfNan;
    impl ScalarFn for HalfNan {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].sqrt() * x[0] * x[1] - x[1] * x[1] * x[1] + (x[0] * x[1]).sin()
        }
    }

    #[test]
    fn non_finite_hessians_in_the_box_do_not_panic_the_search() {
        let f = AutoDiffFn::new(HalfNan);
        // x0 and the box center (0.1, 0.5) are finite; every point with
        // x₀ < 0 — 40 % of the box — has a NaN Hessian.
        let x0 = [0.4, 0.5];
        let b = NeighborhoodBox {
            lo: vec![-0.4, 0.0],
            hi: vec![0.6, 1.0],
        };
        assert!(f.hessian(&[-0.2, 0.5])[(0, 0)].is_nan());
        for (cfg, what) in all_cfgs(EigenSearch::default()) {
            let dec = decompose(&f, &x0, Some(&b), &cfg);
            assert!(dec.lambda_min_hat.is_finite() && dec.lambda_max_hat.is_finite(), "{what}");
            match dec.curvature {
                Curvature::Scalar(c) => assert!(c.is_finite() && c >= 0.0, "{what}"),
                ref other => panic!("{what}: expected scalar curvature, got {other:?}"),
            }
            // The finite half was searched: the used extreme is no
            // tighter than the center's.
            let bounds = b.to_bounds();
            let mut sp = SpectralStats::default();
            let search = ExtremeSearch::new(&f, &x0, &bounds, &cfg.eigen_search, &mut sp);
            let (lo_c, hi_c) = search.center_lohi;
            assert!(dec.lambda_min_hat <= lo_c && dec.lambda_max_hat >= hi_c, "{what}");
        }
    }

    /// Forwards to `inner`, counting every dense Hessian its evaluators
    /// materialize.
    struct CountHessians<'f> {
        inner: &'f dyn MonitoredFunction,
        hessians: std::sync::atomic::AtomicU64,
    }

    impl MonitoredFunction for CountHessians<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn eval(&self, x: &[f64]) -> f64 {
            self.inner.eval(x)
        }
        fn eval_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            self.inner.eval_grad(x)
        }
        fn hvp(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
            self.inner.hvp(x, v)
        }
        fn has_constant_hessian(&self) -> bool {
            self.inner.has_constant_hessian()
        }
        fn hvp_eval(&self) -> Box<dyn HvpEvaluator + '_> {
            self.inner.hvp_eval()
        }
        fn hessian_eval(&self) -> Box<dyn automon_autodiff::HessianEvaluator + '_> {
            struct Counting<'a>(
                Box<dyn automon_autodiff::HessianEvaluator + 'a>,
                &'a std::sync::atomic::AtomicU64,
            );
            impl automon_autodiff::HessianEvaluator for Counting<'_> {
                fn dim(&self) -> usize {
                    self.0.dim()
                }
                fn hessian_into(&mut self, x: &[f64], out: &mut Matrix) {
                    self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    self.0.hessian_into(x, out);
                }
            }
            Box::new(Counting(self.inner.hessian_eval(), &self.hessians))
        }
    }

    /// The dense Hessians ADCD-X still materializes — `H(x0)` and
    /// `H(center)`, never one per probe — are exactly what
    /// `SpectralStats` reports, with or without the polish and under
    /// every `dc_override`; the probes run on the Lanczos counters.
    #[test]
    fn dense_path_spectral_stats_are_counted() {
        let coupled = AutoDiffFn::new(Coupled);
        let x0 = [0.3, -0.2, 0.1];
        let b = coupled_box();
        for nm_iters in [0, 40] {
            let es = EigenSearch {
                nm_iters,
                ..EigenSearch::default()
            };
            for (cfg, what) in all_cfgs(es) {
                let f = CountHessians {
                    inner: &coupled,
                    hessians: Default::default(),
                };
                let dec = decompose(&f, &x0, Some(&b), &cfg);
                let sp = dec.spectral;
                assert_eq!(sp.hessian_materializations, f.hessians.into_inner(), "{what}");
                assert_eq!(sp.hessian_materializations, 2, "{what}");
                // `probes` per stream run (an override runs only the
                // extreme its split reads) without the polish; with it,
                // whatever Nelder–Mead spent on top.
                let streams = if cfg.dc_override.is_some() { 1 } else { 2 };
                let probed = streams * es.probes as u64;
                if nm_iters == 0 {
                    assert_eq!(sp.eigen_probes, probed, "{what}");
                } else {
                    assert!(sp.eigen_probes > probed, "{what}");
                }
                assert!(sp.lanczos_iterations > 0, "{what}");
                assert!(sp.hvp_applies >= sp.lanczos_iterations, "{what}");
                // Counting is transparent: the same decomposition, bit
                // for bit, as on the bare function.
                let bare = decompose(&coupled, &x0, Some(&b), &cfg);
                assert_eq!(
                    (dec.lambda_min_hat.to_bits(), dec.lambda_max_hat.to_bits()),
                    (bare.lambda_min_hat.to_bits(), bare.lambda_max_hat.to_bits()),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn spectral_backends_agree_end_to_end() {
        // Fixed-seed ADCD parity against the Jacobi oracle: ADCD-E
        // (constant Hessian), ADCD-X (Lanczos vs materialized Jacobi),
        // and the DC heuristic all land on the same decomposition.
        let saddle = AutoDiffFn::new(Saddle);
        let coupled = AutoDiffFn::new(Coupled);
        let x0e = [0.0, 0.0];
        let x0x = [0.3, -0.2, 0.1];
        let b = coupled_box();

        let e = decompose(&saddle, &x0e, None, &cfg());
        let ej = SymEigen::with_options(&saddle.hessian(&x0e), JacobiOptions::default());
        assert_eq!(e.kind, AdcdKind::E);
        let dc_e = if ej.lambda_min().abs() <= ej.lambda_max() {
            DcKind::ConvexDiff
        } else {
            DcKind::ConcaveDiff
        };
        assert_eq!(e.dc, dc_e);
        assert!((e.lambda_min_hat - ej.lambda_min()).abs() < 1e-9);
        assert!((e.lambda_max_hat - ej.lambda_max()).abs() < 1e-9);

        let x = decompose(&coupled, &x0x, Some(&b), &cfg());
        let [jmin, jmax, j0_min, j0_max] =
            jacobi_search(&coupled, &x0x, &b.to_bounds(), &EigenSearch::default());
        assert_eq!(x.kind, AdcdKind::X);
        assert_eq!(x.dc, heuristic((j0_min, j0_max), jmin, jmax), "DC heuristic flipped");
        let scale = jmin.abs().max(jmax.abs()).max(1.0);
        assert!(
            (x.lambda_min_hat - jmin).abs() < 1e-6 * scale,
            "λ̂_min: lanczos {} vs jacobi {jmin}",
            x.lambda_min_hat
        );
        assert!(
            (x.lambda_max_hat - jmax).abs() < 1e-6 * scale,
            "λ̂_max: lanczos {} vs jacobi {jmax}",
            x.lambda_max_hat
        );
    }

    /// Forwards to `inner`; every HVP evaluator it hands out adds its
    /// primal-sweep count to `sweeps` when the search drops it.
    struct CountSweeps<'f> {
        inner: &'f dyn MonitoredFunction,
        sweeps: std::sync::atomic::AtomicU64,
    }

    impl MonitoredFunction for CountSweeps<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn eval(&self, x: &[f64]) -> f64 {
            self.inner.eval(x)
        }
        fn eval_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            self.inner.eval_grad(x)
        }
        fn hvp(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
            self.inner.hvp(x, v)
        }
        fn has_constant_hessian(&self) -> bool {
            self.inner.has_constant_hessian()
        }
        fn hessian_eval(&self) -> Box<dyn automon_autodiff::HessianEvaluator + '_> {
            self.inner.hessian_eval()
        }
        fn hvp_eval(&self) -> Box<dyn HvpEvaluator + '_> {
            Box::new(ReportSweeps {
                he: self.inner.hvp_eval(),
                sweeps: &self.sweeps,
            })
        }
    }

    struct ReportSweeps<'a> {
        he: Box<dyn HvpEvaluator + 'a>,
        sweeps: &'a std::sync::atomic::AtomicU64,
    }

    impl HvpEvaluator for ReportSweeps<'_> {
        fn dim(&self) -> usize {
            self.he.dim()
        }
        fn at(&mut self, x: &[f64]) {
            self.he.at(x);
        }
        fn apply(&mut self, v: &[f64], out: &mut [f64]) {
            self.he.apply(v, out);
        }
        fn point_sweeps(&self) -> u64 {
            self.he.point_sweeps()
        }
    }

    impl Drop for ReportSweeps<'_> {
        fn drop(&mut self) {
            self.sweeps
                .fetch_add(self.he.point_sweeps(), std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn eigen_search_primes_once_per_probe_point() {
        // Point 0 of the `decompose_lattice` d = 20 lattice, default
        // search budget.
        let x0: Vec<f64> = (0..20).map(|i| 0.05 + 1e-5 * i as f64).collect();
        let b = NeighborhoodBox {
            lo: x0.iter().map(|v| (v - 0.05).max(1e-6)).collect(),
            hi: x0.iter().map(|v| (v + 0.05).min(1.0)).collect(),
        };
        let kld = AutoDiffFn::new(Kld(20));
        let f = CountSweeps {
            inner: &kld,
            sweeps: Default::default(),
        };
        let dec = decompose(&f, &x0, Some(&b), &cfg());
        let sweeps = f.sweeps.into_inner();
        // One primal sweep per probe point, however many products the
        // Lanczos run at that point applies. The counts and the extremes
        // are those of the evaluator that swept the primal per product.
        assert_eq!(sweeps, dec.spectral.eigen_probes);
        // 8 probes and the polish's 21-vertex simplex, all in the Min
        // stream: `λ_min(H) ≡ 0` over the box, the simplex spans nothing
        // but Lanczos noise and the value stop ends the polish on it
        // (273 evaluations / 1 413 products when both streams ran their
        // whole budgets; `λ̂_min` was -2⁻⁴⁷ then, the same noise).
        assert_eq!(dec.spectral.eigen_probes, 29);
        assert_eq!(dec.spectral.hvp_applies, 147);
        assert_eq!(dec.lambda_min_hat.to_bits(), 0xbcf8000000000000);
        // The Max stream did not run: `λ̂_max` is the center's value.
        let lambda_max_center = SymEigen::new(&kld.hessian(&b.to_bounds().center())).lambda_max();
        assert_eq!(dec.lambda_max_hat.to_bits(), lambda_max_center.to_bits());
    }

    /// KLD behind a call counter: every `call` is a recording or a plain
    /// evaluation.
    struct CountCalls(usize, std::sync::atomic::AtomicUsize);
    impl ScalarFn for CountCalls {
        fn dim(&self) -> usize {
            self.0
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Kld(self.0).call(x)
        }
    }

    #[test]
    fn a_decomposition_never_runs_the_function_body() {
        // The wrap-time recording is the only one: the Hessian workspace
        // and both streams' product evaluators start from it.
        let x0: Vec<f64> = (0..20).map(|i| 0.05 + 1e-3 * i as f64).collect();
        let b = box_around(&x0, 0.02);
        let f = AutoDiffFn::new(CountCalls(20, Default::default()));
        let calls = || f.inner().1.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(calls(), 1);
        for cfg in [
            cfg(),
            MonitorConfig::builder(0.1).dc(DcKind::ConcaveDiff).build(),
        ] {
            let dec = decompose(&f, &x0, Some(&b), &cfg);
            assert!(dec.spectral.eigen_probes > 0);
        }
        assert_eq!(calls(), 1);
    }

    #[test]
    fn lanczos_path_never_materializes_probe_hessians() {
        // Growing the probe budget must not grow the Hessian
        // materialization count (the record-once acceptance condition).
        let f = AutoDiffFn::new(Coupled);
        let x0 = [0.3, -0.2, 0.1];
        let b = coupled_box();
        let run = |probes| {
            let cfg = MonitorConfig::builder(0.1)
                .eigen_search(EigenSearch {
                    probes,
                    ..EigenSearch::default()
                })
                .build();
            decompose(&f, &x0, Some(&b), &cfg).spectral
        };
        let small = run(4);
        let large = run(16);
        assert_eq!(small.hessian_materializations, 2);
        assert_eq!(large.hessian_materializations, 2);
        assert!(
            large.eigen_probes > small.eigen_probes,
            "probe growth invisible: {} vs {}",
            large.eigen_probes,
            small.eigen_probes
        );
        assert!(large.lanczos_iterations > 0);
        assert!(large.reorth_passes > 0);
        assert!(large.hvp_applies >= large.lanczos_iterations);
    }
}

#[cfg(test)]
mod gershgorin_tests {
    use super::*;

    #[test]
    fn gershgorin_brackets_true_spectrum() {
        let mut m = Matrix::from_rows(3, 3, vec![2.0, 1.0, 0.5, 1.0, -1.0, 0.2, 0.5, 0.2, 3.0]);
        m.symmetrize();
        let (lo, hi) = gershgorin_bounds(&m);
        let eig = SymEigen::new(&m);
        assert!(lo <= eig.lambda_min() + 1e-12);
        assert!(hi >= eig.lambda_max() - 1e-12);
    }
}
