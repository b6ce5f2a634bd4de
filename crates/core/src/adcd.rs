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
    EigenWorkspace, LanczosOptions, LanczosStats, LanczosWorkspace, Matrix, RitzSide,
    SpectralBackend, SymEigen, SymOperator,
};
use automon_opt::{nelder_mead, Bounds, OptimizeOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{EigenObjective, EigenSearch, MonitorConfig};
use crate::par::par_map_with;
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
/// On the matrix-free Lanczos path ([`SpectralBackend::Ql`] with
/// `EigenObjective::Exact` ADCD-X) every field is an exact count. The
/// materialized paths (the Jacobi backend, or the Gershgorin probe
/// objective) report the structural estimates PR 3's telemetry used —
/// Hessian evaluations derived from the probe budget, Nelder–Mead
/// polish evaluations excluded. Either way the numbers are functions of
/// the configuration and the algorithm's structure, never of timers, so
/// same-seed runs produce identical stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpectralStats {
    /// Dense Hessians materialized. On the Lanczos path this stays at
    /// the record-once baseline (2: the reference point and the box
    /// center) no matter how many probe points the search evaluates.
    pub hessian_materializations: u64,
    /// Eigen-search objective evaluations (probe points; on the Lanczos
    /// path, polish evaluations too).
    pub eigen_probes: u64,
    /// Lanczos iterations across all probe evaluations (0 on the
    /// materialized paths).
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
    pub lambda_min_hat: f64,
    /// `λ̂_max` found over `B` (for E: the true largest eigenvalue).
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
    // spectral counters: exact on the matrix-free Lanczos path,
    // structural estimates on the materialized paths (see
    // [`SpectralStats`]).
    let sp = dec.spectral;
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
    // A constant Hessian was already evaluated once during detection;
    // reuse it instead of paying d more Hessian-vector products here.
    // When ADCD-E is forced on a function whose Hessian was not detected
    // constant, fall back to evaluating at the reference point.
    let cached = f.constant_hessian();
    let spectral = SpectralStats {
        hessian_materializations: u64::from(cached.is_none()),
        ..SpectralStats::default()
    };
    let h = cached.unwrap_or_else(|| f.hessian(x0));
    let eig = SymEigen::with_backend(&h, cfg.spectral_backend);
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
    let workers = cfg.parallelism.workers();
    let backend = cfg.spectral_backend;
    let mut spectral = SpectralStats::default();
    let (lambda_min_hat, lambda_max_hat, lambda0_min, lambda0_max) = if backend
        == SpectralBackend::Ql
        && cfg.eigen_objective == EigenObjective::Exact
    {
        // Matrix-free two-stream search: the same strictly-sequential
        // per-stream code runs for every `Parallelism` setting, so
        // results are bit-identical across worker counts by
        // construction.
        search_extremes_lanczos(f, x0, &bounds, &cfg.eigen_search, workers, &mut spectral)
    } else {
        let probes = 2 * cfg.eigen_search.probes as u64;
        spectral.eigen_probes = probes;
        if workers == 0 {
            // Legacy one-probe-at-a-time path, kept verbatim: the
            // batched pipeline below is proptested bit-identical
            // against it.
            spectral.hessian_materializations = 3 + probes;
            let lmin = search_extreme(
                f,
                &bounds,
                &cfg.eigen_search,
                cfg.eigen_objective,
                backend,
                Extreme::Min,
            );
            let lmax = search_extreme(
                f,
                &bounds,
                &cfg.eigen_search,
                cfg.eigen_objective,
                backend,
                Extreme::Max,
            );
            let h0 = f.hessian(x0);
            let eig0 = SymEigen::with_backend(&h0, backend);
            (lmin, lmax, eig0.lambda_min(), eig0.lambda_max())
        } else {
            spectral.hessian_materializations = 2 + probes;
            search_extremes_batched(
                f,
                x0,
                &bounds,
                &cfg.eigen_search,
                cfg.eigen_objective,
                backend,
                workers,
            )
        }
    };
    // λ⁻ = min(0, λ̂_min), λ⁺ = max(0, λ̂_max).
    let lambda_minus_abs = (-lambda_min_hat).max(0.0);
    let lambda_plus = lambda_max_hat.max(0.0);

    // DC heuristic (paper §3.4) at the reference point:
    //   λ_min(H_ǧ) + λ_min(H_ȟ) ≤ |λ_max(H_ĥ) + λ_max(H_ĝ)|  → convex.
    // With the Lemma-1 decomposition this becomes
    //   λ_min(H(x0)) + 2|λ⁻| ≤ |λ_max(H(x0)) - 2λ⁺|.
    // The heuristic uses the raw extremes; the safety margin only widens
    // the final curvature penalty, it must not flip the representation.
    let lhs = lambda0_min + 2.0 * lambda_minus_abs;
    let rhs = (lambda0_max - 2.0 * lambda_plus).abs();
    let dc = cfg
        .dc_override
        .unwrap_or(if lhs <= rhs { DcKind::ConvexDiff } else { DcKind::ConcaveDiff });
    let curvature = match dc {
        DcKind::ConvexDiff => Curvature::Scalar(lambda_minus_abs * cfg.eigen_margin),
        DcKind::ConcaveDiff => Curvature::Scalar(lambda_plus * cfg.eigen_margin),
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
    /// The search stream's probe generator: every search path draws its
    /// probes from this one seeded stream, in order.
    fn probe_rng(self, es: &EigenSearch) -> SmallRng {
        SmallRng::seed_from_u64(es.seed ^ (self == Extreme::Max) as u64)
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
fn gershgorin_bounds(h: &automon_linalg::Matrix) -> (f64, f64) {
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

/// Numerically bound an extreme eigenvalue of `H(x)` over a box:
/// seeded probing of the box (always including its center) followed by a
/// box-projected Nelder–Mead polish from the incumbent.
fn search_extreme(
    f: &dyn MonitoredFunction,
    bounds: &Bounds,
    es: &EigenSearch,
    objective: crate::config::EigenObjective,
    backend: SpectralBackend,
    which: Extreme,
) -> f64 {
    // Objective in minimization form.
    let eval = |x: &[f64]| -> f64 {
        let h = f.hessian(x);
        match objective {
            crate::config::EigenObjective::Exact => {
                let eig = SymEigen::with_backend(&h, backend);
                match which {
                    Extreme::Min => eig.lambda_min(),
                    Extreme::Max => -eig.lambda_max(),
                }
            }
            crate::config::EigenObjective::Gershgorin => {
                let (lo, hi) = gershgorin_bounds(&h);
                match which {
                    Extreme::Min => lo,
                    Extreme::Max => -hi,
                }
            }
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
        let opts = OptimizeOptions {
            max_iters: es.nm_iters,
            tol: 1e-10,
            ..Default::default()
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

/// Both extreme-eigenvalue searches plus the DC heuristic's
/// reference-point spectrum, batched and fanned across `workers`
/// threads. Returns `(λ̂_min, λ̂_max, λ_min(H(x0)), λ_max(H(x0)))`.
///
/// Bit-identical to running [`search_extreme`] for each extreme followed
/// by `SymEigen::new(&f.hessian(x0))`, for every `workers ≥ 1`:
///
/// * probe points are pre-generated from the same per-search seeded
///   streams the sequential loop consumes (generation never depends on
///   evaluation results, so hoisting it is exact);
/// * per-point Hessians come from [`HessianEvaluator`] replays and
///   eigenvalues from [`EigenWorkspace`], both bit-identical to the
///   `f.hessian` + [`SymEigen`] pair they replace — and allocation-free
///   across points, which is where the single-thread speedup lives;
/// * [`par_map_with`] pins each result to its item's slot, and the
///   argmin reductions then replay the sequential order (center first,
///   probes in stream order, strict `<`);
/// * the center Hessian is decomposed once and shared by both searches —
///   the sequential path decomposes the same matrix twice and Jacobi is
///   deterministic, so the shared values match both uses exactly.
///
/// [`HessianEvaluator`]: automon_autodiff::HessianEvaluator
fn search_extremes_batched(
    f: &dyn MonitoredFunction,
    x0: &[f64],
    bounds: &Bounds,
    es: &EigenSearch,
    objective: EigenObjective,
    backend: SpectralBackend,
    workers: usize,
) -> (f64, f64, f64, f64) {
    let d = bounds.dim();
    // One flat buffer per stream, `d` coordinates per probe.
    let gen_probes = |which: Extreme| -> Vec<f64> {
        let mut rng = which.probe_rng(es);
        let mut flat = vec![0.0; es.probes * d];
        for p in flat.chunks_exact_mut(d) {
            draw_probe(&mut rng, bounds, p);
        }
        flat
    };
    let min_probes = gen_probes(Extreme::Min);
    let max_probes = gen_probes(Extreme::Max);
    let center = bounds.center();

    let mut points: Vec<&[f64]> = Vec::with_capacity(2 + 2 * es.probes);
    points.push(&center);
    points.push(x0);
    points.extend(min_probes.chunks_exact(d));
    points.extend(max_probes.chunks_exact(d));

    let extremes: Vec<(f64, f64)> = par_map_with(
        &points,
        workers,
        || (f.hessian_eval(), EigenWorkspace::new(), Matrix::zeros(d, d)),
        |(he, ws, h), idx, &x| {
            he.hessian_into(x, h);
            // x0 (index 1) feeds the DC heuristic, which reads exact
            // eigenvalues regardless of the probe objective.
            if idx == 1 || objective == EigenObjective::Exact {
                ws.extreme_eigenvalues_backend(h, backend)
            } else {
                gershgorin_bounds(h)
            }
        },
    );
    let (lambda0_min, lambda0_max) = extremes[1];

    let signed = |which: Extreme, (lo, hi): (f64, f64)| match which {
        Extreme::Min => lo,
        Extreme::Max => -hi,
    };
    // The argmin replays the sequential order: center first, then
    // probes in stream order under strict `<`. `None` keeps the center.
    let reduce = |which: Extreme, probe_vals: &[(f64, f64)]| {
        let mut best_v = signed(which, extremes[0]);
        let mut best_i: Option<usize> = None;
        for (i, &lohi) in probe_vals.iter().enumerate() {
            let v = signed(which, lohi);
            if v < best_v {
                best_v = v;
                best_i = Some(i);
            }
        }
        (best_v, best_i)
    };
    let (min_v, min_i) = reduce(Extreme::Min, &extremes[2..2 + es.probes]);
    let (max_v, max_i) = reduce(Extreme::Max, &extremes[2 + es.probes..]);
    let min_x: &[f64] = min_i.map_or(&center, |i| &min_probes[i * d..(i + 1) * d]);
    let max_x: &[f64] = max_i.map_or(&center, |i| &max_probes[i * d..(i + 1) * d]);

    // Nelder–Mead is adaptive, so each polish stays sequential
    // internally; the two extremes' polishes are independent and run
    // concurrently when a second worker is available.
    let polish = |which: Extreme, start: &[f64], incumbent: f64| -> f64 {
        let mut he = f.hessian_eval();
        let mut ws = EigenWorkspace::new();
        let mut h = Matrix::zeros(d, d);
        let mut eval = |x: &[f64]| -> f64 {
            he.hessian_into(x, &mut h);
            match objective {
                EigenObjective::Exact => signed(which, ws.extreme_eigenvalues_backend(&h, backend)),
                EigenObjective::Gershgorin => signed(which, gershgorin_bounds(&h)),
            }
        };
        let opts = OptimizeOptions {
            max_iters: es.nm_iters,
            tol: 1e-10,
            ..Default::default()
        };
        let r = nelder_mead(&mut eval, start, bounds, &opts);
        if r.value < incumbent {
            r.value
        } else {
            incumbent
        }
    };
    let (min_v, max_v) = if es.nm_iters > 0 && d <= es.nm_dim_cap {
        if workers >= 2 {
            let polish = &polish;
            crossbeam::scope(|s| {
                let hmin = s.spawn(move |_| polish(Extreme::Min, min_x, min_v));
                let hmax = s.spawn(move |_| polish(Extreme::Max, max_x, max_v));
                (
                    hmin.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
                    hmax.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
                )
            })
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
        } else {
            (
                polish(Extreme::Min, min_x, min_v),
                polish(Extreme::Max, max_x, max_v),
            )
        }
    } else {
        (min_v, max_v)
    };

    (min_v, -max_v, lambda0_min, lambda0_max)
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

/// ADCD-X extreme search, matrix-free (the [`SpectralBackend::Ql`] +
/// [`EigenObjective::Exact`] path). Returns
/// `(λ̂_min, λ̂_max, λ_min(H(x0)), λ_max(H(x0)))`.
///
/// Materializes exactly two Hessians — `H(x0)` for the DC heuristic and
/// `H(center)` to seed everything else, both off one
/// [`MonitoredFunction::hessian_eval`] workspace — and then never touches
/// a dense Hessian again: each probe point's extreme eigenvalues come
/// from a [`LanczosWorkspace`] driven by Hessian-vector products through
/// [`HvpEvaluator`], primed once per probe point ([`HvpProbeOp::at`]) so
/// the Lanczos run's products pay only their tangent sweeps. The
/// center decomposition supplies each search stream's incumbent value
/// and initial Ritz vector; its Gershgorin enclosure supplies the
/// Lanczos shift (midpoint) and convergence scale (half-width), both
/// valid across the neighborhood to the extent the Hessian varies
/// smoothly — and only used for seeding/scaling, never correctness.
///
/// The search runs as two independent streams, one per extreme. Within
/// a stream everything is strictly sequential: probes are drawn from
/// the same seeded generator [`search_extreme`] uses and evaluated in
/// order, each Lanczos run warm-starting from the previous run's Ritz
/// vector, and the Nelder–Mead polish continues the same chain.
/// Parallelism only ever places the two whole streams on two threads,
/// so results are bit-identical for every [`crate::Parallelism`]
/// setting — including `Sequential` — by construction.
fn search_extremes_lanczos(
    f: &dyn MonitoredFunction,
    x0: &[f64],
    bounds: &Bounds,
    es: &EigenSearch,
    workers: usize,
    stats: &mut SpectralStats,
) -> (f64, f64, f64, f64) {
    let d = bounds.dim();
    let center = bounds.center();
    // Bit-identical to two `f.hessian` calls by the graph contract.
    let mut he = f.hessian_eval();
    let mut h = Matrix::zeros(d, d);
    he.hessian_into(x0, &mut h);
    let eig0 = SymEigen::new(&h);
    he.hessian_into(&center, &mut h);
    let eigc = SymEigen::new(&h);
    stats.hessian_materializations = 2;

    let (glo, ghi) = gershgorin_bounds(&h);
    let shift = 0.5 * (glo + ghi);
    let scale = 0.5 * (ghi - glo);

    let run_stream = |which: Extreme| -> (f64, LanczosStats, u64) {
        let mut ls = LanczosStats::default();
        let mut evals = 0u64;
        let (side, col) = match which {
            Extreme::Min => (RitzSide::Smallest, 0),
            Extreme::Max => (RitzSide::Largest, d - 1),
        };
        let mut ws = LanczosWorkspace::new();
        let start: Vec<f64> = (0..d).map(|i| eigc.vectors[(i, col)]).collect();
        ws.set_start(&start);
        let mut he = f.hvp_eval();
        let lopts = LanczosOptions::default();
        let mut eval = |x: &[f64]| -> f64 {
            evals += 1;
            let mut op = HvpProbeOp::at(&mut *he, x);
            let (lo, hi) = ws.extremes(&mut op, shift, scale, side, &lopts, &mut ls);
            match which {
                Extreme::Min => lo,
                Extreme::Max => -hi,
            }
        };

        // The center's exact eigenvalue is the incumbent: the center was
        // already decomposed to seed the stream, so the probe loop never
        // re-evaluates it.
        let mut best_v = match which {
            Extreme::Min => eigc.lambda_min(),
            Extreme::Max => -eigc.lambda_max(),
        };
        let mut best_x = center.clone();
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
                ..Default::default()
            };
            let r = nelder_mead(&mut eval, &best_x, bounds, &opts);
            if r.value < best_v {
                best_v = r.value;
            }
        }
        (best_v, ls, evals)
    };

    let (min_res, max_res) = if workers >= 2 {
        let run = &run_stream;
        crossbeam::scope(|s| {
            let hmin = s.spawn(move |_| run(Extreme::Min));
            let hmax = s.spawn(move |_| run(Extreme::Max));
            (
                hmin.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
                hmax.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
            )
        })
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
    } else {
        (run_stream(Extreme::Min), run_stream(Extreme::Max))
    };

    // Merge counters in fixed min-then-max order.
    let (min_v, min_ls, min_evals) = min_res;
    let (max_v, max_ls, max_evals) = max_res;
    stats.eigen_probes = min_evals + max_evals;
    stats.lanczos_iterations = min_ls.iterations + max_ls.iterations;
    stats.reorth_passes = min_ls.reorth_passes + max_ls.reorth_passes;
    stats.hvp_applies = min_ls.applies + max_ls.applies;

    (min_v, -max_v, eig0.lambda_min(), eig0.lambda_max())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use crate::safezone::NeighborhoodBox;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_linalg::Matrix;

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
        let d = decompose(&f, &x0, Some(&b), &cfg());
        assert_eq!(d.kind, AdcdKind::X);
        assert!((d.lambda_min_hat + 1.0).abs() < 1e-6, "{}", d.lambda_min_hat);
        assert!(
            (d.lambda_max_hat + (std::f64::consts::FRAC_PI_2 - 1.0).sin()).abs() < 1e-6,
            "{}",
            d.lambda_max_hat
        );
        // All curvature is negative → λ⁺ = 0; heuristic picks convex with
        // |λ⁻| = 1.
        assert_eq!(d.dc, DcKind::ConvexDiff);
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

    #[test]
    fn batched_search_bit_identical_to_sequential() {
        use crate::config::Parallelism;
        use automon_linalg::SpectralBackend;
        let f = AutoDiffFn::new(Coupled);
        let x0 = [0.3, -0.2, 0.1];
        let b = coupled_box();
        for backend in [SpectralBackend::Ql, SpectralBackend::Jacobi] {
            for objective in [false, true] {
                let build = |p: Parallelism| {
                    let mut c = MonitorConfig::builder(0.1)
                        .parallelism(p)
                        .spectral_backend(backend);
                    if objective {
                        c = c.gershgorin_bounds();
                    }
                    c.build()
                };
                let seq = decompose(&f, &x0, Some(&b), &build(Parallelism::Sequential));
                for workers in [1usize, 2, 5] {
                    let par = decompose(&f, &x0, Some(&b), &build(Parallelism::Threads(workers)));
                    assert_eq!(
                        par.lambda_min_hat.to_bits(),
                        seq.lambda_min_hat.to_bits(),
                        "λ̂_min diverged at {workers} workers (gershgorin={objective}, {backend:?})"
                    );
                    assert_eq!(
                        par.lambda_max_hat.to_bits(),
                        seq.lambda_max_hat.to_bits(),
                        "λ̂_max diverged at {workers} workers (gershgorin={objective}, {backend:?})"
                    );
                    assert_eq!(par.dc, seq.dc);
                    if backend == SpectralBackend::Ql && !objective {
                        // The Lanczos path runs identical code for every
                        // parallelism setting, counters included. The
                        // legacy paths' estimates legitimately differ by
                        // one (the sequential path decomposes the center
                        // twice).
                        assert_eq!(
                            par.spectral, seq.spectral,
                            "spectral stats diverged at {workers} workers"
                        );
                    } else {
                        assert_eq!(par.spectral.eigen_probes, seq.spectral.eigen_probes);
                    }
                }
            }
        }
    }

    #[test]
    fn spectral_backends_agree_end_to_end() {
        use automon_linalg::SpectralBackend;
        // Fixed-seed ADCD parity across backends: ADCD-E (constant
        // Hessian), ADCD-X exact (Lanczos vs materialized Jacobi), and
        // the DC heuristic all land on the same decomposition.
        let saddle = AutoDiffFn::new(Saddle);
        let coupled = AutoDiffFn::new(Coupled);
        let x0e = [0.0, 0.0];
        let x0x = [0.3, -0.2, 0.1];
        let b = coupled_box();
        let cfg_with = |backend| {
            MonitorConfig::builder(0.1)
                .spectral_backend(backend)
                .build()
        };
        let (ql, jac) = (
            cfg_with(SpectralBackend::Ql),
            cfg_with(SpectralBackend::Jacobi),
        );

        let eq = decompose(&saddle, &x0e, None, &ql);
        let ej = decompose(&saddle, &x0e, None, &jac);
        assert_eq!(eq.kind, AdcdKind::E);
        assert_eq!(eq.dc, ej.dc);
        assert!((eq.lambda_min_hat - ej.lambda_min_hat).abs() < 1e-9);
        assert!((eq.lambda_max_hat - ej.lambda_max_hat).abs() < 1e-9);

        let xq = decompose(&coupled, &x0x, Some(&b), &ql);
        let xj = decompose(&coupled, &x0x, Some(&b), &jac);
        assert_eq!(xq.kind, AdcdKind::X);
        assert_eq!(xq.dc, xj.dc, "DC heuristic flipped across backends");
        let scale = xj.lambda_min_hat.abs().max(xj.lambda_max_hat.abs()).max(1.0);
        assert!(
            (xq.lambda_min_hat - xj.lambda_min_hat).abs() < 1e-6 * scale,
            "λ̂_min: lanczos {} vs jacobi {}",
            xq.lambda_min_hat,
            xj.lambda_min_hat
        );
        assert!(
            (xq.lambda_max_hat - xj.lambda_max_hat).abs() < 1e-6 * scale,
            "λ̂_max: lanczos {} vs jacobi {}",
            xq.lambda_max_hat,
            xj.lambda_max_hat
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
        /// τ-smoothed KLD over two `d/2`-bin histograms, as in
        /// `automon_functions::KlDivergence`.
        struct Kld;
        impl ScalarFn for Kld {
            fn dim(&self) -> usize {
                20
            }
            fn call<S: Scalar>(&self, x: &[S]) -> S {
                let tau = S::from_f64(1.0 / 60.0);
                let mut acc = S::from_f64(0.0);
                for i in 0..10 {
                    let (p, q) = (x[i] + tau, x[10 + i] + tau);
                    acc = acc + p * (p.ln() - q.ln());
                }
                acc
            }
        }
        // Point 0 of the `decompose_lattice` d = 20 lattice, default
        // search budget.
        let x0: Vec<f64> = (0..20).map(|i| 0.05 + 1e-5 * i as f64).collect();
        let b = NeighborhoodBox {
            lo: x0.iter().map(|v| (v - 0.05).max(1e-6)).collect(),
            hi: x0.iter().map(|v| (v + 0.05).min(1.0)).collect(),
        };
        let kld = AutoDiffFn::new(Kld);
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
        assert_eq!(dec.spectral.hvp_applies, 1413);
        assert_eq!(dec.spectral.eigen_probes, 273);
        assert_eq!(dec.lambda_min_hat.to_bits(), 0xbd00000000000000);
        assert_eq!(dec.lambda_max_hat.to_bits(), 0x40725a21bdfe77ee);
    }

    #[test]
    fn lanczos_path_never_materializes_probe_hessians() {
        use automon_linalg::SpectralBackend;
        // Growing the probe budget must not grow the Hessian
        // materialization count on the matrix-free path (the record-once
        // acceptance criterion); the materialized Jacobi path pays one
        // dense Hessian per probe.
        let f = AutoDiffFn::new(Coupled);
        let x0 = [0.3, -0.2, 0.1];
        let b = coupled_box();
        let run = |backend, probes| {
            let cfg = MonitorConfig::builder(0.1)
                .spectral_backend(backend)
                .eigen_search(EigenSearch {
                    probes,
                    ..EigenSearch::default()
                })
                .build();
            decompose(&f, &x0, Some(&b), &cfg).spectral
        };
        let small = run(SpectralBackend::Ql, 4);
        let large = run(SpectralBackend::Ql, 16);
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

        let jac = run(SpectralBackend::Jacobi, 16);
        assert!(
            jac.hessian_materializations > 2 + 16,
            "materialized path should pay per probe, got {}",
            jac.hessian_materializations
        );
        assert_eq!(jac.lanczos_iterations, 0);
    }
}

#[cfg(test)]
mod gershgorin_tests {
    use super::*;
    use crate::config::MonitorConfig;
    use crate::safezone::NeighborhoodBox;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_linalg::Matrix;

    #[test]
    fn gershgorin_brackets_true_spectrum() {
        let mut m = Matrix::from_rows(3, 3, vec![2.0, 1.0, 0.5, 1.0, -1.0, 0.2, 0.5, 0.2, 3.0]);
        m.symmetrize();
        let (lo, hi) = gershgorin_bounds(&m);
        let eig = SymEigen::new(&m);
        assert!(lo <= eig.lambda_min() + 1e-12);
        assert!(hi >= eig.lambda_max() - 1e-12);
    }

    #[test]
    fn gershgorin_decomposition_is_more_conservative() {
        struct Sin1;
        impl ScalarFn for Sin1 {
            fn dim(&self) -> usize {
                1
            }
            fn call<S: Scalar>(&self, x: &[S]) -> S {
                x[0].sin()
            }
        }
        let f = AutoDiffFn::new(Sin1);
        let x0 = [std::f64::consts::FRAC_PI_2];
        let b = NeighborhoodBox {
            lo: vec![x0[0] - 1.0],
            hi: vec![x0[0] + 1.0],
        };
        let exact = decompose(&f, &x0, Some(&b), &MonitorConfig::builder(0.1).build());
        let gersh = decompose(
            &f,
            &x0,
            Some(&b),
            &MonitorConfig::builder(0.1).gershgorin_bounds().build(),
        );
        // 1-D Gershgorin equals the diagonal, so bounds coincide here;
        // the invariant is bracketing: λ̂ ranges at least as wide.
        assert!(gersh.lambda_min_hat <= exact.lambda_min_hat + 1e-9);
        assert!(gersh.lambda_max_hat >= exact.lambda_max_hat - 1e-9);
    }

    #[test]
    fn gershgorin_widens_multidim_penalty() {
        // Coupled non-constant Hessian: off-diagonals make Gershgorin
        // strictly conservative.
        struct Coupled;
        impl ScalarFn for Coupled {
            fn dim(&self) -> usize {
                2
            }
            fn call<S: Scalar>(&self, x: &[S]) -> S {
                (x[0] * x[1]).sin()
            }
        }
        let f = AutoDiffFn::new(Coupled);
        let x0 = [0.5, 0.5];
        let b = NeighborhoodBox {
            lo: vec![0.0, 0.0],
            hi: vec![1.0, 1.0],
        };
        let exact = decompose(&f, &x0, Some(&b), &MonitorConfig::builder(0.1).build());
        let gersh = decompose(
            &f,
            &x0,
            Some(&b),
            &MonitorConfig::builder(0.1).gershgorin_bounds().build(),
        );
        assert!(
            gersh.lambda_min_hat < exact.lambda_min_hat,
            "gersh {} vs exact {}",
            gersh.lambda_min_hat,
            exact.lambda_min_hat
        );
    }
}
