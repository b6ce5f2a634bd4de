//! Monitoring configuration.

use crate::adcd::AdcdKind;
use crate::safezone::DcKind;
use automon_linalg::SpectralBackend;

/// How the thresholds `L, U` derive from `f(x0)` and `ε` (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproximationKind {
    /// `L = f(x0) - ε`, `U = f(x0) + ε`.
    Additive,
    /// `L, U = (1 ∓ ε)·f(x0)` (ordered so `L ≤ U` also for negative
    /// `f(x0)`).
    Multiplicative,
}

/// How the neighborhood size `r` is chosen (paper §3.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NeighborhoodMode {
    /// Fixed radius supplied by the caller (possibly from offline tuning).
    Fixed(f64),
    /// Start from the given radius and let the coordinator apply the
    /// adaptive heuristic (double `r` after `5n` consecutive neighborhood
    /// violations with no intervening safe-zone violation).
    Adaptive(f64),
}

impl NeighborhoodMode {
    /// The initial radius.
    pub fn initial_r(&self) -> f64 {
        match *self {
            NeighborhoodMode::Fixed(r) | NeighborhoodMode::Adaptive(r) => r,
        }
    }

    /// Whether adaptive growth is enabled.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, NeighborhoodMode::Adaptive(_))
    }

    /// The same mode with radius `r` (e.g. Algorithm 2's `r̂`).
    ///
    /// # Panics
    /// Panics unless `r > 0`.
    pub fn with_r(self, r: f64) -> Self {
        assert!(r > 0.0, "neighborhood radius must be positive");
        match self {
            NeighborhoodMode::Fixed(_) => NeighborhoodMode::Fixed(r),
            NeighborhoodMode::Adaptive(_) => NeighborhoodMode::Adaptive(r),
        }
    }
}

/// Inert residue of the retired full-sync thread-placement knob: the
/// full sync runs on the caller's thread whatever this says. It survives
/// only because the frozen benchmark package
/// (`crates/bench/src/bin/benchmark`) names it; nothing reads it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    Sequential,
    #[default]
    Auto,
}

/// Budget for the extreme-eigenvalue search of ADCD-X (paper eq. 3).
///
/// The search evaluates `λ(H(x))` — a Lanczos run over Hessian-vector
/// products per point — so its cost dominates full syncs; this budget
/// caps it. `probes` seeded samples of `B` pick the incumbent and
/// `nm_iters` box-projected Nelder–Mead iterations polish it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenSearch {
    /// Random probe points inside the neighborhood (plus its center).
    pub probes: usize,
    /// Nelder–Mead polish iterations from the best probe.
    pub nm_iters: usize,
    /// Skip the Nelder–Mead polish above this dimension: initializing
    /// the simplex alone costs `d + 1` eigenvalue evaluations, which
    /// dominates full-sync time for high-dimensional functions (e.g. the
    /// DNN). Probing still bounds the extremes, and the §3.7 sanity
    /// check catches any under-estimate.
    pub nm_dim_cap: usize,
    /// Seed for probe sampling.
    pub seed: u64,
}

impl Default for EigenSearch {
    fn default() -> Self {
        Self {
            probes: 8,
            nm_iters: 40,
            nm_dim_cap: 24,
            seed: 0xE16E,
        }
    }
}

/// Full monitoring configuration.
///
/// Build with [`MonitorConfig::builder`]. The defaults match the paper's
/// setup: additive approximation, slack and LRU lazy sync enabled, ADCD
/// variant auto-detected, adaptive neighborhood growth on.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Approximation error bound `ε`.
    pub epsilon: f64,
    /// Additive or multiplicative thresholds.
    pub approximation: ApproximationKind,
    /// Neighborhood-size policy.
    pub neighborhood: NeighborhoodMode,
    /// Enable slack vectors (paper §3.5, "Lazy Sync and Slack").
    pub enable_slack: bool,
    /// Enable LRU lazy sync; when disabled every violation triggers a
    /// full sync.
    pub enable_lazy_sync: bool,
    /// Force a specific ADCD variant instead of auto-detection.
    pub adcd_override: Option<AdcdKind>,
    /// Force a specific DC representation instead of the DC heuristic.
    pub dc_override: Option<DcKind>,
    /// Ablation switch: skip ADCD entirely and use the (non-convex)
    /// admissible-region check `L ≤ f(x) ≤ U` as the local constraint,
    /// reproducing the "no ADCD" arm of the paper's §4.6 ablation.
    pub disable_adcd: bool,
    /// Multiplier (≥ 1) applied to `|λ̂⁻_min|` and `λ̂⁺_max` as a safety
    /// margin against the eigenvalue search under-estimating.
    pub eigen_margin: f64,
    /// Eigenvalue-search budget for ADCD-X.
    pub eigen_search: EigenSearch,
    /// Inert residue of the retired spectral-kernel knob: ADCD always
    /// decomposes with QL and bounds ADCD-X curvature with the
    /// matrix-free Lanczos search, whatever this says. It survives only
    /// because the frozen benchmark package names it; nothing under
    /// `crates/*/src` reads it.
    #[doc(hidden)]
    pub spectral_backend: SpectralBackend,
    /// Inert; see [`Parallelism`].
    #[doc(hidden)]
    pub parallelism: Parallelism,
}

impl MonitorConfig {
    /// Start building a configuration with error bound `epsilon`.
    pub fn builder(epsilon: f64) -> MonitorConfigBuilder {
        MonitorConfigBuilder::new(epsilon)
    }

    /// This configuration at neighborhood radius `r`, mode kept
    /// ([`NeighborhoodMode::with_r`]).
    pub fn with_r(mut self, r: f64) -> Self {
        self.neighborhood = self.neighborhood.with_r(r);
        self
    }

    /// The thresholds `[L, U]` around `f0 = f(x0)` (paper §2): the band
    /// the coordinator installs on a full sync, and the one a truth
    /// outside of counts as a missed violation.
    pub fn thresholds(&self, f0: f64) -> (f64, f64) {
        match self.approximation {
            ApproximationKind::Additive => (f0 - self.epsilon, f0 + self.epsilon),
            ApproximationKind::Multiplicative => {
                let a = (1.0 - self.epsilon) * f0;
                let b = (1.0 + self.epsilon) * f0;
                (a.min(b), a.max(b))
            }
        }
    }
}

/// Builder for [`MonitorConfig`].
#[derive(Debug, Clone)]
pub struct MonitorConfigBuilder {
    cfg: MonitorConfig,
}

impl MonitorConfigBuilder {
    /// New builder with paper-default settings.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self {
            cfg: MonitorConfig {
                epsilon,
                approximation: ApproximationKind::Additive,
                neighborhood: NeighborhoodMode::Adaptive(1.0),
                enable_slack: true,
                enable_lazy_sync: true,
                adcd_override: None,
                dc_override: None,
                disable_adcd: false,
                eigen_margin: 1.0,
                eigen_search: EigenSearch::default(),
                spectral_backend: SpectralBackend::default(),
                parallelism: Parallelism::default(),
            },
        }
    }

    /// Use multiplicative thresholds `(1 ± ε)·f(x0)`.
    pub fn multiplicative(mut self) -> Self {
        self.cfg.approximation = ApproximationKind::Multiplicative;
        self
    }

    /// Set the neighborhood policy.
    pub fn neighborhood(mut self, mode: NeighborhoodMode) -> Self {
        assert!(mode.initial_r() > 0.0, "neighborhood radius must be positive");
        self.cfg.neighborhood = mode;
        self
    }

    /// Disable the slack mechanism (ablation).
    pub fn without_slack(mut self) -> Self {
        self.cfg.enable_slack = false;
        self
    }

    /// Disable lazy sync (every violation becomes a full sync; ablation).
    pub fn without_lazy_sync(mut self) -> Self {
        self.cfg.enable_lazy_sync = false;
        self
    }

    /// Skip ADCD and monitor with the raw admissible-region check
    /// (the "no ADCD" ablation of paper §4.6).
    pub fn without_adcd(mut self) -> Self {
        self.cfg.disable_adcd = true;
        self
    }

    /// Force an ADCD variant.
    pub fn adcd(mut self, kind: AdcdKind) -> Self {
        self.cfg.adcd_override = Some(kind);
        self
    }

    /// Force a DC representation (bypasses the DC heuristic).
    pub fn dc(mut self, kind: DcKind) -> Self {
        self.cfg.dc_override = Some(kind);
        self
    }

    /// Safety margin multiplier for the eigenvalue extremes.
    pub fn eigen_margin(mut self, m: f64) -> Self {
        assert!(m >= 1.0, "eigen margin must be ≥ 1");
        self.cfg.eigen_margin = m;
        self
    }

    /// Eigenvalue-search budget.
    pub fn eigen_search(mut self, s: EigenSearch) -> Self {
        self.cfg.eigen_search = s;
        self
    }

    /// Inert; see [`Parallelism`].
    #[doc(hidden)]
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.cfg.parallelism = p;
        self
    }

    /// Finish building.
    pub fn build(self) -> MonitorConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = MonitorConfig::builder(0.1).build();
        assert_eq!(cfg.epsilon, 0.1);
        assert_eq!(cfg.approximation, ApproximationKind::Additive);
        assert!(cfg.enable_slack);
        assert!(cfg.enable_lazy_sync);
        assert!(!cfg.disable_adcd);
        assert!(cfg.neighborhood.is_adaptive());
    }

    #[test]
    fn builder_toggles() {
        let cfg = MonitorConfig::builder(0.5)
            .multiplicative()
            .neighborhood(NeighborhoodMode::Fixed(0.25))
            .without_slack()
            .without_lazy_sync()
            .without_adcd()
            .eigen_margin(1.5)
            .build();
        assert_eq!(cfg.approximation, ApproximationKind::Multiplicative);
        assert_eq!(cfg.neighborhood, NeighborhoodMode::Fixed(0.25));
        assert!(!cfg.enable_slack);
        assert!(!cfg.enable_lazy_sync);
        assert!(cfg.disable_adcd);
        assert_eq!(cfg.eigen_margin, 1.5);
    }

    #[test]
    fn thresholds_additive_and_multiplicative() {
        let cfg = MonitorConfig::builder(0.1).build();
        assert_eq!(cfg.thresholds(2.0), (1.9, 2.1));
        let cfg = MonitorConfig::builder(0.1).multiplicative().build();
        let (l, u) = cfg.thresholds(2.0);
        assert!((l - 1.8).abs() < 1e-12);
        assert!((u - 2.2).abs() < 1e-12);
        // Negative f(x0): bounds stay ordered.
        let (l, u) = cfg.thresholds(-2.0);
        assert!(l < u);
        assert!((l + 2.2).abs() < 1e-12);
    }

    /// The inert field keeps its default, and a struct update (how the
    /// frozen benchmark package sets it) carries the value it names.
    #[test]
    fn spectral_backend_defaults_to_ql() {
        let cfg = MonitorConfig::builder(0.1).build();
        assert_eq!(cfg.spectral_backend, SpectralBackend::Ql);
        assert_eq!(
            MonitorConfig {
                spectral_backend: SpectralBackend::Jacobi,
                ..cfg
            }
            .spectral_backend,
            SpectralBackend::Jacobi
        );
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        MonitorConfig::builder(0.0);
    }

    #[test]
    fn with_r_swaps_the_radius_and_keeps_the_mode() {
        let adaptive = MonitorConfig::builder(0.1).build().with_r(0.25);
        assert_eq!(adaptive.neighborhood, NeighborhoodMode::Adaptive(0.25));
        let fixed = MonitorConfig::builder(0.1)
            .neighborhood(NeighborhoodMode::Fixed(1.0))
            .build()
            .with_r(0.25);
        assert_eq!(fixed.neighborhood, NeighborhoodMode::Fixed(0.25));
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn with_r_rejects_a_zero_radius() {
        let _ = NeighborhoodMode::Adaptive(1.0).with_r(0.0);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        let _ = MonitorConfig::builder(0.1).neighborhood(NeighborhoodMode::Fixed(0.0));
    }
}
