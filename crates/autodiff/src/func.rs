//! User-facing function wrappers: evaluation, gradients, Hessians.

use crate::graph::GraphWorkspace;
use crate::Scalar;
use automon_linalg::Matrix;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A multivariate scalar function written once over a generic [`Scalar`].
///
/// This is the AutoMon entry point for user code: implementing `call`
/// generically is the Rust equivalent of handing the paper's prototype the
/// Python source of `f` — the same body is instantiated for plain
/// evaluation, forward-mode, and reverse-mode differentiation.
///
/// Optional box bounds describe the function's domain `D` (e.g. KLD's
/// probability vectors live in `[τ, 1]`); AutoMon intersects the
/// neighborhood `B` with these bounds before searching for extreme
/// eigenvalues.
pub trait ScalarFn: Send + Sync + 'static {
    /// Input dimension `d`.
    fn dim(&self) -> usize;

    /// The function body, generic over the AD scalar.
    fn call<S: Scalar>(&self, x: &[S]) -> S;

    /// Lower bounds of the domain box, if any (length `d`).
    fn lower_bounds(&self) -> Option<Vec<f64>> {
        None
    }

    /// Upper bounds of the domain box, if any (length `d`).
    fn upper_bounds(&self) -> Option<Vec<f64>> {
        None
    }
}

/// Object-safe differentiable-function interface.
///
/// AutoMon's protocol code works against this trait so it can hold
/// `Box<dyn DifferentiableFn>` without knowing the concrete function type.
pub trait DifferentiableFn: Send + Sync {
    /// Input dimension `d`.
    fn dim(&self) -> usize;

    /// Evaluate `f(x)`.
    fn eval(&self, x: &[f64]) -> f64;

    /// Evaluate `(f(x), ∇f(x))` in one reverse pass.
    fn eval_grad(&self, x: &[f64]) -> (f64, Vec<f64>);

    /// Hessian-vector product `H(x)·v` (forward-over-reverse).
    fn hvp(&self, x: &[f64], v: &[f64]) -> Vec<f64>;

    /// The full (symmetrized) Hessian `H(x)`.
    fn hessian(&self, x: &[f64]) -> Matrix {
        let d = self.dim();
        let mut h = Matrix::zeros(d, d);
        let mut dir = vec![0.0; d];
        for j in 0..d {
            dir[j] = 1.0;
            let col = self.hvp(x, &dir);
            dir[j] = 0.0;
            for i in 0..d {
                h[(i, j)] = col[i];
            }
        }
        h.symmetrize();
        h
    }

    /// Domain lower bounds (length `d`), if the function declared any.
    fn lower_bounds(&self) -> Option<Vec<f64>> {
        None
    }

    /// Domain upper bounds (length `d`), if the function declared any.
    fn upper_bounds(&self) -> Option<Vec<f64>> {
        None
    }

    /// Whether `H(x)` is constant over the domain.
    ///
    /// Decides ADCD-E vs ADCD-X (paper §3.2: "we can automatically detect
    /// functions with a constant Hessian by looking at the computational
    /// graph"). [`AutoDiffFn`] reads it from the graph it records at
    /// wrap time: the output must be a polynomial of degree ≤ 2 whose
    /// recording does not depend on the point.
    fn has_constant_hessian(&self) -> bool;

    /// The constant Hessian itself, when [`Self::has_constant_hessian`]
    /// and the implementation kept one around.
    ///
    /// [`AutoDiffFn`] shares the Hessian it computed from its wrap-time
    /// recording, so ADCD-E never pays for a redundant recomputation at
    /// the first full sync. `None` (the default) makes callers fall back
    /// to [`Self::hessian`].
    fn constant_hessian(&self) -> Option<Matrix> {
        None
    }

    /// A reusable Hessian evaluator for repeated queries.
    ///
    /// The returned evaluator owns whatever scratch state it needs, so
    /// hot loops (the ADCD-X eigenvalue search evaluates dozens of
    /// Hessians per full sync) can keep one per worker thread and avoid
    /// re-tracing and re-allocating per query. The default delegates to
    /// [`Self::hessian`]; [`AutoDiffFn`] overrides it with a graph
    /// workspace of the evaluator's own that holds the recording,
    /// bit-identical to its [`Self::hessian`].
    fn hessian_eval(&self) -> Box<dyn HessianEvaluator + '_> {
        Box::new(FallbackHessianEval { f: self })
    }

    /// A reusable Hessian-vector-product evaluator for repeated queries.
    ///
    /// The matrix-free counterpart of [`Self::hessian_eval`]: the
    /// Lanczos eigen search applies `H(x)·v` several times per probe
    /// point and must never pay for materializing `H`, nor redo the
    /// point's primal work per product — hence [`HvpEvaluator::at`] once
    /// per point, [`HvpEvaluator::apply`] once per direction. The
    /// default delegates to [`Self::hvp`] (the whole query per product);
    /// [`AutoDiffFn`] overrides it with a graph workspace of the
    /// evaluator's own that holds the recording, whose products are
    /// bit-identical to its [`Self::hvp`].
    fn hvp_eval(&self) -> Box<dyn HvpEvaluator + '_> {
        Box::new(FallbackHvpEval {
            f: self,
            x: Vec::new(),
            point_sweeps: 0,
        })
    }
}

/// A stateful Hessian evaluator writing into caller-owned storage.
///
/// Obtained from [`DifferentiableFn::hessian_eval`]; each instance is
/// single-threaded (`&mut self`) but `Send`, so parallel searches hand
/// one to each worker.
pub trait HessianEvaluator: Send {
    /// Input dimension `d`.
    fn dim(&self) -> usize;

    /// Write the full symmetrized Hessian `H(x)` into `out` (`d × d`).
    fn hessian_into(&mut self, x: &[f64], out: &mut Matrix);
}

/// Default evaluator: delegates to [`DifferentiableFn::hessian`].
struct FallbackHessianEval<'a, F: DifferentiableFn + ?Sized> {
    f: &'a F,
}

impl<F: DifferentiableFn + ?Sized> HessianEvaluator for FallbackHessianEval<'_, F> {
    fn dim(&self) -> usize {
        self.f.dim()
    }

    fn hessian_into(&mut self, x: &[f64], out: &mut Matrix) {
        *out = self.f.hessian(x);
    }
}

/// A stateful Hessian-vector-product evaluator writing into
/// caller-owned storage.
///
/// Obtained from [`DifferentiableFn::hvp_eval`]; single-threaded
/// (`&mut self`) but `Send`, like [`HessianEvaluator`].
pub trait HvpEvaluator: Send {
    /// Input dimension `d`.
    fn dim(&self) -> usize;

    /// Fix the point `x` (length `d`) of the products that follow, doing
    /// all work that depends on `x` alone. The caller says when the
    /// point changes; evaluators never compare points.
    fn at(&mut self, x: &[f64]);

    /// Write `H(x)·v` into `out` (both length `d`) for the point of the
    /// last [`Self::at`].
    ///
    /// # Panics
    /// Panics when no point has been fixed.
    fn apply(&mut self, v: &[f64], out: &mut [f64]);

    /// How many times the point-dependent work has run (one per
    /// [`Self::at`]). Read by tests that pin "one primal sweep per probe
    /// point"; not an input to anything.
    fn point_sweeps(&self) -> u64;
}

/// Default evaluator: remembers the point and delegates every product to
/// [`DifferentiableFn::hvp`].
struct FallbackHvpEval<'a, F: DifferentiableFn + ?Sized> {
    f: &'a F,
    x: Vec<f64>,
    point_sweeps: u64,
}

impl<F: DifferentiableFn + ?Sized> HvpEvaluator for FallbackHvpEval<'_, F> {
    fn dim(&self) -> usize {
        self.f.dim()
    }

    fn at(&mut self, x: &[f64]) {
        self.x.clear();
        self.x.extend_from_slice(x);
        self.point_sweeps += 1;
    }

    fn apply(&mut self, v: &[f64], out: &mut [f64]) {
        assert!(
            self.point_sweeps > 0,
            "apply: no point fixed — call `at` first"
        );
        out.copy_from_slice(&self.f.hvp(&self.x, v));
    }

    fn point_sweeps(&self) -> u64 {
        self.point_sweeps
    }
}

/// Graph-workspace evaluator used by [`AutoDiffFn`] for both
/// [`DifferentiableFn::hessian_eval`] (one primal sweep and `d` seed
/// lanes per Hessian) and [`DifferentiableFn::hvp_eval`] (one primal
/// sweep per point, one tangent lane per product). Its workspace is lent
/// by the wrapper and handed back on drop.
struct GraphEval<'a, F: ScalarFn> {
    owner: &'a AutoDiffFn<F>,
    ws: GraphWorkspace,
}

impl<F: ScalarFn> HessianEvaluator for GraphEval<'_, F> {
    fn dim(&self) -> usize {
        self.owner.f.dim()
    }

    fn hessian_into(&mut self, x: &[f64], out: &mut Matrix) {
        self.ws.hessian_into(&self.owner.f, x, out);
    }
}

impl<F: ScalarFn> HvpEvaluator for GraphEval<'_, F> {
    fn dim(&self) -> usize {
        self.owner.f.dim()
    }

    fn at(&mut self, x: &[f64]) {
        self.ws.at(&self.owner.f, x);
    }

    fn apply(&mut self, v: &[f64], out: &mut [f64]) {
        self.ws.apply(v, out);
    }

    fn point_sweeps(&self) -> u64 {
        self.ws.point_sweeps()
    }
}

impl<F: ScalarFn> Drop for GraphEval<'_, F> {
    fn drop(&mut self) {
        let ws = std::mem::replace(&mut self.ws, GraphWorkspace::new());
        lock(&self.owner.spare).push(ws);
    }
}

/// A lock taken over as is when poisoned; see [`AutoDiffFn::workspace`]
/// for why every workspace behind one stays sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Differentiable wrapper around a [`ScalarFn`].
///
/// Construction records the function's graph once and reads Hessian
/// constancy off it. Every derivative afterwards is a sweep over that
/// recording, which is re-recorded per point only when its structure
/// depends on the point (`abs`/`max` branches, [`Scalar::value`] reads):
/// [`Self::grad`] is one primal sweep, [`Self::hvp`] adds one tangent
/// lane, [`Self::hessian`] carries `d` lanes at once. The evaluators of
/// [`DifferentiableFn::hessian_eval`] and
/// [`DifferentiableFn::hvp_eval`] get workspaces of their own that hold
/// the recording: a point-independent graph is recorded at wrap time
/// and never again, and a workspace's buffers outlive its evaluator.
///
/// The recording sits behind a mutex, so one wrapper can be shared
/// across threads; queries from different threads take turns.
pub struct AutoDiffFn<F: ScalarFn> {
    f: F,
    constant_hessian: bool,
    /// The Hessian computed from the wrap-time recording, kept when it is
    /// constant so ADCD-E reuses it instead of recomputing at `x0`.
    cached_hessian: Option<Matrix>,
    /// The wrap-time recording, with the scratch of its sweeps.
    ws: Mutex<GraphWorkspace>,
    /// Workspaces of dropped evaluators, recording and buffers kept for
    /// the next evaluator (so at most as many as were ever alive at once).
    spare: Mutex<Vec<GraphWorkspace>>,
}

impl<F: ScalarFn> AutoDiffFn<F> {
    /// Wrap `f`, reading Hessian constancy from its recorded graph.
    ///
    /// The graph is recorded once, at a fixed point clamped into the
    /// declared domain box, and its Hessian is computed there. When the
    /// graph says the Hessian is constant, that matrix is cached and
    /// shared with ADCD-E through [`DifferentiableFn::constant_hessian`];
    /// it is bit-identical to [`DifferentiableFn::hessian`] at that point.
    pub fn new(f: F) -> Self {
        let d = f.dim();
        let mut x: Vec<f64> = (0..d).map(|i| 0.137 + 0.061 * i as f64).collect();
        if let Some(lo) = f.lower_bounds() {
            x.iter_mut().zip(lo).for_each(|(xi, l)| *xi = xi.max(l));
        }
        if let Some(hi) = f.upper_bounds() {
            x.iter_mut().zip(hi).for_each(|(xi, h)| *xi = xi.min(h));
        }
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(d, d);
        ws.hessian_into(&f, &x, &mut h);
        let constant_hessian = ws.has_constant_hessian();
        Self {
            f,
            constant_hessian,
            cached_hessian: constant_hessian.then_some(h),
            ws: Mutex::new(ws),
            spare: Mutex::new(Vec::new()),
        }
    }

    /// The recording, locked. A panic under the lock is an argument
    /// check, which fires before the workspace is written, or a panic of
    /// `f` itself while re-recording, which leaves no graph behind and so
    /// makes the next query record afresh; either way the workspace is
    /// sound, and a poisoned lock is taken over as is.
    fn workspace(&self) -> MutexGuard<'_, GraphWorkspace> {
        lock(&self.ws)
    }

    /// An evaluator's workspace: a spare one when an earlier evaluator
    /// handed one back, else a fork of the recording. Either way no
    /// point is primed and the sweep counter reads zero.
    fn lend(&self) -> GraphEval<'_, F> {
        let spare = lock(&self.spare).pop();
        GraphEval {
            owner: self,
            ws: spare.map_or_else(|| self.workspace().fork(), GraphWorkspace::reset),
        }
    }

    /// Immutable access to the wrapped function.
    pub fn inner(&self) -> &F {
        &self.f
    }

    /// Evaluate `f(x)` with plain `f64` arithmetic.
    pub fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.f.dim());
        self.f.call(x)
    }

    /// `(f(x), ∇f(x))` from one primal sweep of the recording: the
    /// output's value and the reverse adjoints of the inputs.
    pub fn grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let mut ws = self.workspace();
        ws.at(&self.f, x);
        let (v, g) = ws.gradient();
        (v, g.to_vec())
    }

    /// Hessian-vector product `H(x)·v` via forward-over-reverse: one
    /// primal sweep, then one tangent lane seeded with `v`.
    pub fn hvp(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), v.len(), "hvp: dimension mismatch");
        let mut out = vec![0.0; v.len()];
        let mut ws = self.workspace();
        ws.at(&self.f, x);
        ws.apply(v, &mut out);
        out
    }

    /// The full symmetrized Hessian: one primal sweep, then all `d` unit
    /// tangent lanes side by side. Bit-identical to assembling `d`
    /// [`Self::hvp`] columns and symmetrizing.
    pub fn hessian(&self, x: &[f64]) -> Matrix {
        let d = self.f.dim();
        let mut h = Matrix::zeros(d, d);
        self.workspace().hessian_into(&self.f, x, &mut h);
        h
    }
}

impl<F: ScalarFn> DifferentiableFn for AutoDiffFn<F> {
    fn dim(&self) -> usize {
        self.f.dim()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        AutoDiffFn::eval(self, x)
    }

    fn eval_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.grad(x)
    }

    fn hvp(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
        AutoDiffFn::hvp(self, x, v)
    }

    fn hessian(&self, x: &[f64]) -> Matrix {
        AutoDiffFn::hessian(self, x)
    }

    fn lower_bounds(&self) -> Option<Vec<f64>> {
        self.f.lower_bounds()
    }

    fn upper_bounds(&self) -> Option<Vec<f64>> {
        self.f.upper_bounds()
    }

    fn has_constant_hessian(&self) -> bool {
        self.constant_hessian
    }

    fn constant_hessian(&self) -> Option<Matrix> {
        self.cached_hessian.clone()
    }

    fn hessian_eval(&self) -> Box<dyn HessianEvaluator + '_> {
        Box::new(self.lend())
    }

    fn hvp_eval(&self) -> Box<dyn HvpEvaluator + '_> {
        Box::new(self.lend())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff;
    use crate::oracle::{self, wrap};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Barrier};

    struct Quadratic;
    impl ScalarFn for Quadratic {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // f = x₀² + 3x₀x₁ - 2x₁²
            x[0] * x[0] + S::from_f64(3.0) * x[0] * x[1] - S::from_f64(2.0) * x[1] * x[1]
        }
    }

    struct SinProd;
    impl ScalarFn for SinProd {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].sin() * x[1].exp()
        }
    }

    #[test]
    fn eval_matches_direct() {
        let f = AutoDiffFn::new(Quadratic);
        assert_eq!(f.eval(&[1.0, 2.0]), 1.0 + 6.0 - 8.0);
    }

    #[test]
    fn grad_matches_closed_form() {
        let f = AutoDiffFn::new(Quadratic);
        let (v, g) = f.grad(&[1.0, 2.0]);
        assert_eq!(v, -1.0);
        assert_eq!(g, vec![2.0 + 6.0, 3.0 - 8.0]);
    }

    #[test]
    fn hessian_of_quadratic_is_constant_matrix() {
        let f = AutoDiffFn::new(Quadratic);
        let h = f.hessian(&[5.0, -3.0]);
        assert_eq!(h[(0, 0)], 2.0);
        assert_eq!(h[(0, 1)], 3.0);
        assert_eq!(h[(1, 0)], 3.0);
        assert_eq!(h[(1, 1)], -4.0);
        assert!(f.has_constant_hessian());
    }

    #[test]
    fn nonquadratic_detected_as_varying() {
        let f = AutoDiffFn::new(SinProd);
        assert!(!f.has_constant_hessian());
    }

    #[test]
    fn grad_and_hessian_match_finite_differences() {
        let f = AutoDiffFn::new(SinProd);
        let x = [0.4, -0.7];
        let (_, g) = f.grad(&x);
        let g_fd = finite_diff::gradient(|y| f.eval(y), &x, 1e-6);
        for (a, b) in g.iter().zip(&g_fd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        let h = f.hessian(&x);
        let h_fd = finite_diff::hessian(|y| f.eval(y), &x, 1e-4);
        assert!(h.approx_eq(&h_fd, 1e-4));
    }

    #[test]
    fn hvp_matches_hessian_column() {
        let f = AutoDiffFn::new(SinProd);
        let x = [0.3, 0.9];
        let h = f.hessian(&x);
        let hv = f.hvp(&x, &[1.0, 2.0]);
        assert!((hv[0] - (h[(0, 0)] + 2.0 * h[(0, 1)])).abs() < 1e-12);
        assert!((hv[1] - (h[(1, 0)] + 2.0 * h[(1, 1)])).abs() < 1e-12);
    }

    /// Forwards only the required methods, so `hvp_eval` is the trait's
    /// default: the evaluator every hand-written `DifferentiableFn` gets.
    struct Plain(AutoDiffFn<SinProd>);
    impl DifferentiableFn for Plain {
        fn dim(&self) -> usize {
            2
        }
        fn eval(&self, x: &[f64]) -> f64 {
            self.0.eval(x)
        }
        fn eval_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            self.0.grad(x)
        }
        fn hvp(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
            self.0.hvp(x, v)
        }
        fn has_constant_hessian(&self) -> bool {
            false
        }
    }

    #[test]
    fn hvp_evaluators_apply_at_the_last_fixed_point() {
        let graph = AutoDiffFn::new(SinProd);
        let plain = Plain(AutoDiffFn::new(SinProd));
        let (a, b) = ([0.3, 0.9], [-1.1, 0.2]);
        let (v1, v2) = ([1.0, 2.0], [-0.5, 0.25]);
        for mut he in [graph.hvp_eval(), plain.hvp_eval()] {
            let mut out = [0.0; 2];
            for (x, v) in [(a, v1), (a, v2), (b, v1), (a, v2)] {
                he.at(&x);
                he.apply(&v, &mut out);
                assert_eq!(out.to_vec(), oracle::hvp(&SinProd, &x, &v));
                // A second product needs no second `at`.
                he.apply(&v1, &mut out);
                assert_eq!(out.to_vec(), oracle::hvp(&SinProd, &x, &v1));
            }
            assert_eq!(he.point_sweeps(), 4);
        }
    }

    /// A dropped evaluator's workspace serves the next evaluator, of
    /// either kind, as a fresh one would: no point primed, the sweep
    /// counter at zero, the oracle's bits.
    #[test]
    fn a_dropped_evaluators_workspace_serves_the_next() {
        let f = AutoDiffFn::new(SinProd);
        let spares = || f.spare.lock().unwrap().len();
        let x = [0.3, 0.9];
        let mut hv = f.hvp_eval();
        hv.at(&x);
        drop(hv);
        assert_eq!(spares(), 1);
        let mut he = f.hessian_eval();
        assert_eq!(spares(), 0);
        let mut h = Matrix::zeros(2, 2);
        he.hessian_into(&x, &mut h);
        let reference = oracle::hessian(&SinProd, &x);
        assert_eq!(
            oracle::bits(h.as_slice()),
            oracle::bits(reference.as_slice())
        );
        drop(he);
        let mut hv = f.hvp_eval();
        assert_eq!(hv.point_sweeps(), 0);
        let early = catch_unwind(AssertUnwindSafe(|| hv.apply(&[1.0, 0.0], &mut [0.0; 2])));
        assert!(early.is_err(), "apply before at");
        // Evaluators alive at once hold a workspace each.
        let other = f.hvp_eval();
        drop((hv, other));
        assert_eq!(spares(), 2);
    }

    #[test]
    #[should_panic(expected = "no point fixed")]
    fn fallback_hvp_evaluator_panics_before_at() {
        let plain = Plain(AutoDiffFn::new(SinProd));
        plain.hvp_eval().apply(&[1.0, 0.0], &mut [0.0; 2]);
    }

    /// `has_constant_hessian()` of a 2-input function with body `$body`.
    macro_rules! constant {
        (|$x:ident| $body:expr) => {
            wrap!(2, |$x| $body).has_constant_hessian()
        };
    }

    #[test]
    fn nearly_quadratic_and_piecewise_functions_are_not_constant() {
        // H₀₀ = 2 + 6e-12·x₀: indistinguishable from 2 near the origin.
        assert!(!constant!(|x| x[0] * x[0]
            + x[1] * x[1]
            + S::from_f64(1e-12) * x[0].powi(3)));
        // Zero curvature on x₀ < 5, where the wrap point sits; 2 beyond.
        assert!(!constant!(
            |x| (x[0] - S::from_f64(5.0)).relu().powi(2) + x[1]
        ));
        // A true quadratic, but the body reads a primal: the recording
        // could differ at another point, so nothing is claimed.
        assert!(!constant!(|x| if x[0].value() > 100.0 {
            x[0] * x[1]
        } else {
            x[1] * x[0]
        }));
    }

    #[test]
    fn polynomials_of_degree_two_are_constant() {
        assert!(constant!(
            |x| S::from_f64(2.0) * x[0] - x[1] + S::from_f64(1.0)
        ));
        assert!(constant!(|x| x[0] * x[1] / S::from_f64(3.0)));
        assert!(constant!(|x| x[0].powi(2) + x[1]));
    }

    #[test]
    fn domain_bounds_pass_through() {
        struct Bounded;
        impl ScalarFn for Bounded {
            fn dim(&self) -> usize {
                2
            }
            fn call<S: Scalar>(&self, x: &[S]) -> S {
                x[0].ln() + x[1].ln()
            }
            fn lower_bounds(&self) -> Option<Vec<f64>> {
                Some(vec![1e-6; 2])
            }
        }
        let f = AutoDiffFn::new(Bounded);
        assert_eq!(DifferentiableFn::lower_bounds(&f), Some(vec![1e-6; 2]));
        assert_eq!(DifferentiableFn::upper_bounds(&f), None);
        // ln has a varying Hessian; the wrap point stayed in the domain.
        assert!(!f.has_constant_hessian());
    }

    /// Both functions are wrapped at x₀ = 0.137, where the branch they
    /// take at x₀ = 7 is inactive: a recording reused there would hand
    /// out the other branch's derivatives.
    #[test]
    fn point_dependent_recordings_are_redone_at_every_query() {
        let x = [7.0, 0.0];
        let relu = wrap!(2, |x| (x[0] - S::from_f64(5.0)).relu().powi(2) + x[1]);
        assert_eq!(relu.grad(&x).1, vec![4.0, 1.0]);
        assert_eq!(relu.hvp(&x, &[1.0, 0.0]), vec![2.0, 0.0]);
        assert_eq!(relu.hessian(&x)[(0, 0)], 2.0);
        let branch = wrap!(2, |x| if x[0].value() > 5.0 {
            x[0] * x[0] + x[1]
        } else {
            x[1]
        });
        assert_eq!(branch.grad(&x).1, vec![14.0, 1.0]);
        assert_eq!(branch.hvp(&x, &[1.0, 0.0]), vec![2.0, 0.0]);
        assert_eq!(branch.hessian(&x)[(0, 0)], 2.0);
        // And back across the kink.
        assert_eq!(relu.grad(&[0.5, 0.0]).1, vec![0.0, 1.0]);
        assert_eq!(branch.hessian(&[0.5, 0.0])[(0, 0)], 0.0);
    }

    /// Query `kind` (gradient and value, product, Hessian) at `x`, as bits.
    fn query<F: ScalarFn>(f: &AutoDiffFn<F>, kind: usize, x: &[f64]) -> Vec<u64> {
        match kind {
            0 => {
                let (v, mut g) = f.grad(x);
                g.push(v);
                oracle::bits(&g)
            }
            1 => oracle::bits(&f.hvp(x, &[0.5, -1.0, 0.25])),
            _ => oracle::bits(f.hessian(x).as_slice()),
        }
    }

    /// Thread `t`'s interleaving of query kinds and points.
    fn schedule(t: usize) -> impl Iterator<Item = (usize, [f64; 3])> {
        (0..60).map(move |k| {
            let p = ((3 * t + k) % 8) as f64;
            ((t + k) % 3, [0.3 * p - 1.0, 0.7 - 0.2 * p, 0.1 * p])
        })
    }

    /// Four threads, released together, interleave queries on one
    /// wrapper and read the bits one thread reads alone; a query that
    /// panics under the lock poisons it, and the next query still answers
    /// with the oracle's bits.
    fn serves_threads_and_survives_a_panic<F: ScalarFn>(f: AutoDiffFn<F>) {
        let alone: Vec<Vec<_>> = (0..4)
            .map(|t| schedule(t).map(|(q, x)| query(&f, q, &x)).collect())
            .collect();
        let f = Arc::new(f);
        let start = Arc::new(Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (f, start) = (Arc::clone(&f), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    schedule(t)
                        .map(|(q, x)| query(&f, q, &x))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let shared: Vec<_> = threads.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(shared, alone);

        assert!(catch_unwind(AssertUnwindSafe(|| f.grad(&[1.0, 2.0]))).is_err());
        assert!(f.ws.is_poisoned());
        let x = [0.4, -0.3, 0.8];
        let (v, mut g) = oracle::grad(f.inner(), &x);
        g.push(v);
        assert_eq!(query(&f, 0, &x), oracle::bits(&g));
        let hv = oracle::hvp(f.inner(), &x, &[0.5, -1.0, 0.25]);
        assert_eq!(query(&f, 1, &x), oracle::bits(&hv));
        let h = oracle::hessian(f.inner(), &x);
        assert_eq!(query(&f, 2, &x), oracle::bits(h.as_slice()));
    }

    #[test]
    fn one_wrapper_serves_threads_and_survives_a_panicking_query() {
        // One recording for the whole run, and one redone per query.
        serves_threads_and_survives_a_panic(wrap!(3, |x| x[0].sin() * x[2].exp()
            + x[1] / (x[2] * x[2] + S::from_f64(1.0))));
        serves_threads_and_survives_a_panic(wrap!(3, |x| (x[0] * x[1]).relu()
            + x[0].sin() * x[2].exp()
            + Scalar::max(x[1], x[2]) * x[0]));
    }
}
