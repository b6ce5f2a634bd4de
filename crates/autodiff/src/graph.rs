//! The recorded computation graph every derivative of
//! [`crate::AutoDiffFn`] is read from: gradients, matrix-free
//! Hessian-vector products and batched Hessians.
//!
//! A [`GraphWorkspace`] splits forward-over-reverse by what each part
//! depends on, and runs each part only when its input changes:
//!
//! 1. **Structure** (`record`) — the op sequence of `f`, the row every
//!    node's tangents occupy, and the list of reverse accumulations
//!    ("edges"). Recorded once per workspace, or once per point for
//!    point-dependent graphs (below).
//! 2. **Point** (`prime`, behind [`GraphWorkspace::at`]) — everything
//!    that is a function of `x` alone: forward primal values, the primal
//!    of every local partial, each op's reciprocals, transcendentals and
//!    powers, and the whole reverse sweep of adjoint *primals*. One
//!    primal-only sweep per point; no tangent is touched. Its result
//!    already holds `f(x)` and `∇f(x)` ([`GraphWorkspace::gradient`]).
//! 3. **Direction** (`tangents`, behind [`GraphWorkspace::apply`]) — the
//!    tangent lanes: value tangents and local-partial tangents forward,
//!    adjoint tangents backward, reading the frozen point state. This is
//!    the only work a further product at the same point pays, which is
//!    what the Lanczos eigen search needs: it applies `H(x)·v` several
//!    times per probe point and only `v` changes. The sweep is pure
//!    arithmetic over two flat buffers: lane `l` of row `r` sits at
//!    `r·d + l`, so a node or an edge costs its operations and a few
//!    index multiplications, nothing else.
//!
//! The split is exact because tangents never feed back into primals:
//! the one-pass forward-over-reverse sweep interleaves two computations
//! of which the first (primals) is independent of the second (tangents),
//! so it can run ahead once and be reused. A full Hessian
//! ([`GraphWorkspace::hessian_into`]) is the same two phases with all
//! `d` unit seed tangents carried side by side ("lanes") through one
//! tangent sweep, written straight into a caller-owned matrix; primal
//! values, op dispatch and the point scalars are shared across lanes. No
//! allocation happens after the workspace has warmed up.
//!
//! The caller says when the point changes (`at`); nothing here compares
//! points. A `hessian_into` moves the workspace to its own point, so it
//! un-primes it: `apply` and `gradient` panic until the next `at`.
//!
//! # Bit-identity contract
//!
//! The sweeps reproduce a reverse-mode tape **bit for bit**. The tape
//! (`tape.rs` over `f64` and over the dual numbers of `dual.rs`) is
//! compiled into the tests only, as the oracle. The primal sweep performs
//! exactly the scalar arithmetic of a tape over `f64`, so the gradient is
//! its reverse sweep; lane `j` of the tangent sweep performs that of a
//! tape over dual numbers seeded with tangent `e_j` (or `v`), expanded
//! from the tape's token sequences (e.g. division computes `a * (1/b)`
//! with the reciprocal materialized first, because that is what the tape
//! records; a subtraction's right partial carries the `-0.0` tangent of
//! `-one`), and the reverse sweep accumulates adjoints in the tape's
//! operand order. Phasing changes *when* a scalar is computed, never
//! which operation computes it or in what order a lane's operations run.
//! The tests at the bottom of this file and in `oracle.rs` assert exact
//! `f64::to_bits` equality against the oracle across op coverage, probe
//! points, numerical edges and `at`/`apply`/`hessian_into`
//! interleavings.
//!
//! Functions whose recorded structure depends on the evaluation point —
//! `abs`/`max` branches (and thus `relu`/`min`) or data-dependent
//! control flow through [`Scalar::value`] — are detected during
//! recording and re-recorded at every `at`/`hessian_into`; everything
//! else is recorded exactly once, and a workspace can start from
//! another's recording ([`GraphWorkspace::fork`]).
//!
//! The recording is also where Hessian constancy (ADCD-E vs ADCD-X) is
//! decided: one polynomial-degree pass over the recorded ops, see
//! `GraphWorkspace::has_constant_hessian`.

use crate::{Scalar, ScalarFn};
use automon_linalg::Matrix;
use std::cell::{Cell, RefCell};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A graph operand: another node's output or an inline constant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// Index of the producing node.
    Var(u32),
    /// A free constant (never differentiated).
    Const(f64),
}

/// One recorded operation. Branches (`abs`, `max`) are resolved at
/// record time: the chosen side is baked into the opcode, which is valid
/// because the sweeps run at the same evaluation point.
#[derive(Debug, Clone, Copy)]
enum GOp {
    /// An independent input variable.
    Input,
    Add(Operand, Operand),
    Sub(Operand, Operand),
    Mul(Operand, Operand),
    Div(Operand, Operand),
    Neg(Operand),
    Exp(Operand),
    Ln(Operand),
    Tanh(Operand),
    Sin(Operand),
    Cos(Operand),
    Sqrt(Operand),
    Powi(Operand, i32),
    /// `abs` that took the non-negative branch.
    AbsPos(Operand),
    /// `abs` that took the negative branch.
    AbsNeg(Operand),
    /// `max` won by the left operand (ties go left, as [`Scalar::max`]
    /// documents).
    MaxLeft(Operand, Operand),
    /// `max` won by the right operand.
    MaxRight(Operand, Operand),
}

impl GOp {
    /// The op's operands in parent order (`self`, then `other`).
    fn operands(&self) -> (Option<Operand>, Option<Operand>) {
        match *self {
            GOp::Input => (None, None),
            GOp::Add(a, b)
            | GOp::Sub(a, b)
            | GOp::Mul(a, b)
            | GOp::Div(a, b)
            | GOp::MaxLeft(a, b)
            | GOp::MaxRight(a, b) => (Some(a), Some(b)),
            GOp::Neg(a)
            | GOp::Exp(a)
            | GOp::Ln(a)
            | GOp::Tanh(a)
            | GOp::Sin(a)
            | GOp::Cos(a)
            | GOp::Sqrt(a)
            | GOp::Powi(a, _)
            | GOp::AbsPos(a)
            | GOp::AbsNeg(a) => (Some(a), None),
        }
    }

    /// Local partials whose tangent is a freshly materialized expression
    /// rather than a constant or a row that exists anyway.
    fn slots(&self) -> u32 {
        match self {
            GOp::Div(..) => 2,
            GOp::Ln(_)
            | GOp::Tanh(_)
            | GOp::Sin(_)
            | GOp::Cos(_)
            | GOp::Sqrt(_)
            | GOp::Powi(..) => 1,
            _ => 0,
        }
    }

    /// Whether this op's opcode depends on the evaluation point.
    fn is_branch(&self) -> bool {
        matches!(
            self,
            GOp::AbsPos(_) | GOp::AbsNeg(_) | GOp::MaxLeft(..) | GOp::MaxRight(..)
        )
    }
}

/// Recording arena handed to the generic function body via [`GVar`]s.
struct GraphArena {
    nodes: RefCell<Vec<GOp>>,
    /// Set when user code observed a variable's primal through
    /// [`Scalar::value`] — the graph may then depend on the point through
    /// control flow we cannot see, so it must be re-recorded per point.
    value_observed: Cell<bool>,
}

impl GraphArena {
    fn push(&self, op: GOp) -> u32 {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(op);
        (nodes.len() - 1) as u32
    }

    fn var(&self, v: f64) -> GVar<'_> {
        GVar {
            arena: Some(self),
            idx: self.push(GOp::Input),
            v,
        }
    }
}

/// The recording scalar: carries the `f64` primal and appends opcodes to
/// the arena.
struct GVar<'t> {
    arena: Option<&'t GraphArena>,
    idx: u32,
    v: f64,
}

impl Clone for GVar<'_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for GVar<'_> {}

impl std::fmt::Debug for GVar<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GVar")
            .field("idx", &self.idx)
            .field("v", &self.v)
            .field("const", &self.arena.is_none())
            .finish()
    }
}

impl<'t> GVar<'t> {
    fn operand(&self) -> Operand {
        match self.arena {
            Some(_) => Operand::Var(self.idx),
            None => Operand::Const(self.v),
        }
    }

    /// Record a binary op, or fold to a constant when both operands are
    /// constants. `v` must already follow the primal token sequence.
    fn binary(self, other: Self, v: f64, op: fn(Operand, Operand) -> GOp) -> Self {
        let arena = self.arena.or(other.arena);
        match arena {
            None => GVar {
                arena: None,
                idx: 0,
                v,
            },
            Some(t) => GVar {
                arena: Some(t),
                idx: t.push(op(self.operand(), other.operand())),
                v,
            },
        }
    }

    fn unary(self, v: f64, op: fn(Operand) -> GOp) -> Self {
        match self.arena {
            None => GVar {
                arena: None,
                idx: 0,
                v,
            },
            Some(t) => GVar {
                arena: Some(t),
                idx: t.push(op(Operand::Var(self.idx))),
                v,
            },
        }
    }
}

impl<'t> Add for GVar<'t> {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        self.binary(o, self.v + o.v, GOp::Add)
    }
}

impl<'t> Sub for GVar<'t> {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        self.binary(o, self.v - o.v, GOp::Sub)
    }
}

impl<'t> Mul for GVar<'t> {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        self.binary(o, self.v * o.v, GOp::Mul)
    }
}

impl<'t> Div for GVar<'t> {
    type Output = Self;
    fn div(self, o: Self) -> Self {
        // Division materializes the reciprocal and multiplies —
        // `a * (1/b)` differs from `a / b` in the last ulp, and the
        // partials reuse the reciprocal.
        let inv = 1.0 / o.v;
        self.binary(o, self.v * inv, GOp::Div)
    }
}

impl<'t> Neg for GVar<'t> {
    type Output = Self;
    fn neg(self) -> Self {
        self.unary(-self.v, GOp::Neg)
    }
}

impl<'t> Scalar for GVar<'t> {
    fn from_f64(c: f64) -> Self {
        GVar {
            arena: None,
            idx: 0,
            v: c,
        }
    }

    fn value(&self) -> f64 {
        if let Some(t) = self.arena {
            t.value_observed.set(true);
        }
        self.v
    }

    fn exp(self) -> Self {
        self.unary(self.v.exp(), GOp::Exp)
    }

    fn ln(self) -> Self {
        self.unary(self.v.ln(), GOp::Ln)
    }

    fn tanh(self) -> Self {
        self.unary(self.v.tanh(), GOp::Tanh)
    }

    fn sin(self) -> Self {
        self.unary(self.v.sin(), GOp::Sin)
    }

    fn cos(self) -> Self {
        self.unary(self.v.cos(), GOp::Cos)
    }

    fn sqrt(self) -> Self {
        self.unary(self.v.sqrt(), GOp::Sqrt)
    }

    fn powi(self, n: i32) -> Self {
        match self.arena {
            None => GVar {
                arena: None,
                idx: 0,
                v: self.v.powi(n),
            },
            Some(t) => GVar {
                arena: Some(t),
                idx: t.push(GOp::Powi(Operand::Var(self.idx), n)),
                v: self.v.powi(n),
            },
        }
    }

    fn abs(self) -> Self {
        // NaN takes the negative branch.
        if self.v >= 0.0 {
            self.unary(self.v, GOp::AbsPos)
        } else {
            self.unary(-self.v, GOp::AbsNeg)
        }
    }

    fn max(self, other: Self) -> Self {
        if self.v >= other.v {
            self.binary(other, self.v, GOp::MaxLeft)
        } else {
            self.binary(other, other.v, GOp::MaxRight)
        }
    }
}

/// Rows `0` and `1` of every tangent buffer hold the two constants a
/// local partial's tangent can be: `Add`'s `one` has tangent `0.0`,
/// `Sub`'s `-one` has `-0.0` (the sign matters for bit-identity). Row
/// `ZERO` doubles as the value tangent of every constant operand. From
/// row `2` on, each node owns its value-tangent row and, right behind
/// it, one row per local partial that needs materializing
/// ([`GOp::slots`]); the other partials' tangents are rows that exist
/// anyway (`Mul` partials are the operand values, `Exp`'s is its own
/// output, the rest are constants).
const ZERO: u32 = 0;
const NEG_ZERO: u32 = 1;
const FIRST_NODE_ROW: u32 = 2;

/// Tangent-buffer rows of one node: its operands' value tangents (`ZERO`
/// for a constant or absent operand) and its own.
#[derive(Debug, Clone, Copy)]
struct Rows {
    a: u32,
    b: u32,
    own: u32,
}

/// One accumulation of the reverse sweep, `adj[dst] += partial *
/// adj[from]` in dual-number arithmetic. The rows are graph structure,
/// fixed at record time; the primal sweep does the primal half and freezes the partial's primal `pv` and
/// the consumer's adjoint primal `a_v`, and the tangent sweep runs the
/// tangent half `adj_d[dst] += t[src] * a_v + pv * adj_d[from]` per lane.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// Row of the operand the adjoint flows to.
    dst: u32,
    /// Row of the local partial's tangent.
    src: u32,
    /// Row of the consuming node.
    from: u32,
    /// Index of the local partial's primal in `parts`.
    part: u32,
    pv: f64,
    a_v: f64,
}

/// Reusable arena for Hessians and Hessian-vector products. Work is
/// split by what it depends on: the op structure is recorded once (per
/// point only for point-dependent graphs), the primal state is swept
/// once per point, and a tangent sweep runs per query — `d` unit lanes
/// for a Hessian, one lane per direction for a product.
pub(crate) struct GraphWorkspace {
    // Structure: written by `record`.
    nodes: Vec<GOp>,
    /// Index of the output node.
    out: usize,
    /// Row of the output node.
    out_row: usize,
    n_inputs: usize,
    /// Recording captured point-dependent structure (resolved branches or
    /// `value()` observations) and must be redone at each new point.
    point_dependent: bool,
    /// Per-node tangent-buffer rows.
    rows: Vec<Rows>,
    /// The reverse sweep in order: consumers descending, the `self`
    /// partial before `other`, constants skipped.
    rev: Vec<Edge>,
    /// Rows of a tangent buffer: the two constants, then every node's.
    n_rows: usize,

    // Point state: written by `prime` (which also fills `rev`'s `pv` and
    // `a_v`), read-only to `tangents`.
    /// Per-node forward primal values.
    vals: Vec<f64>,
    /// Per-node local partial primals `∂/∂a, ∂/∂b`, flattened.
    parts: Vec<f64>,
    /// Per-node scalars of the point that the tangent sweep would
    /// otherwise re-evaluate per lane and per direction: `Mul [a, b]`,
    /// `Div [a, b, 1/b]`, `Exp [eᵃ]`, `Ln [a, a·a]`, `Tanh [t, 1 − t·t]`,
    /// `Sin`/`Cos [sin a, cos a]`, `Sqrt [s, s·s]`, `Powi [aᵖ⁻¹, aᵖ⁻²]`.
    point: Vec<[f64; 3]>,
    /// Reverse adjoint primals, by row.
    adj_v: Vec<f64>,
    /// `apply` and `gradient` may run: `at` primed a point and no
    /// `hessian_into` has moved the workspace since.
    primed: bool,
    point_sweeps: u64,

    // Direction state, rewritten by every tangent sweep: forward tangent
    // rows and reverse adjoint tangent rows, one value per lane.
    t: Vec<f64>,
    adj_d: Vec<f64>,
}

impl GraphWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            out: 0,
            out_row: 0,
            n_inputs: 0,
            point_dependent: true,
            rows: Vec::new(),
            rev: Vec::new(),
            n_rows: 0,
            vals: Vec::new(),
            parts: Vec::new(),
            point: Vec::new(),
            adj_v: Vec::new(),
            primed: false,
            point_sweeps: 0,
            t: Vec::new(),
            adj_d: Vec::new(),
        }
    }

    /// Primal sweeps run so far: one per [`Self::at`], one per
    /// [`Self::hessian_into`], none per [`Self::apply`]. Tests pin the
    /// eigen search's "one sweep per probe point" with it.
    pub fn point_sweeps(&self) -> u64 {
        self.point_sweeps
    }

    /// A workspace that starts from this one's recording: the structure
    /// (ops, rows, reverse edges) is copied, no point is primed and the
    /// sweep counter starts at zero, so its first `at` or `hessian_into`
    /// records nothing. A point-dependent recording would be redone at
    /// that first query anyway, so it forks into an empty workspace, as
    /// does one that has recorded nothing.
    pub(crate) fn fork(&self) -> Self {
        if self.point_dependent {
            return Self::new();
        }
        Self {
            nodes: self.nodes.clone(),
            out: self.out,
            out_row: self.out_row,
            n_inputs: self.n_inputs,
            point_dependent: false,
            rows: self.rows.clone(),
            rev: self.rev.clone(),
            n_rows: self.n_rows,
            ..Self::new()
        }
    }

    /// This workspace for a new user: recording and buffers kept, no
    /// point primed, the sweep counter back at zero.
    pub(crate) fn reset(mut self) -> Self {
        self.primed = false;
        self.point_sweeps = 0;
        self
    }

    /// Record the computation graph of `f` at `x` and lay out its
    /// tangent rows and reverse edges.
    ///
    /// # Panics
    /// Panics if the output does not depend on the inputs (constant
    /// output). The panic leaves no graph behind, so the next `prime`
    /// records afresh.
    fn record<F: ScalarFn + ?Sized>(&mut self, f: &F, x: &[f64]) {
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let arena = GraphArena {
            nodes: RefCell::new(nodes),
            value_observed: Cell::new(false),
        };
        let vars: Vec<GVar<'_>> = x.iter().map(|&xi| arena.var(xi)).collect();
        let out = f.call(&vars);
        assert!(
            out.arena.is_some(),
            "gradient: output is a constant"
        );
        let out = out.idx as usize;
        self.out = out;
        self.n_inputs = x.len();
        self.nodes = arena.nodes.into_inner();
        self.point_dependent =
            arena.value_observed.get() || self.nodes.iter().any(GOp::is_branch);

        let Self {
            nodes, rows, rev, ..
        } = self;
        rows.clear();
        let mut next = FIRST_NODE_ROW;
        for op in nodes.iter() {
            // Operands precede their consumers, so their rows are known.
            let value_tangent = |o| match o {
                Some(Operand::Var(k)) => rows[k as usize].own,
                _ => ZERO,
            };
            let (a, b) = op.operands();
            let (a, b) = (value_tangent(a), value_tangent(b));
            rows.push(Rows { a, b, own: next });
            next += 1 + op.slots();
        }
        self.n_rows = next as usize;
        self.out_row = rows[out].own as usize;

        rev.clear();
        for i in (0..=out).rev() {
            let Rows { a, b, own } = rows[i];
            // Rows of the tangents of the two local partials.
            let src = match nodes[i] {
                GOp::Sub(..) => [ZERO, NEG_ZERO],
                GOp::Mul(..) => [b, a],
                GOp::Div(..) => [own + 1, own + 2],
                GOp::Exp(_) => [own, ZERO],
                op if op.slots() == 1 => [own + 1, ZERO],
                _ => [ZERO, ZERO],
            };
            let (oa, ob) = nodes[i].operands();
            for (which, (o, dst)) in [(oa, a), (ob, b)].into_iter().enumerate() {
                if let Some(Operand::Var(_)) = o {
                    rev.push(Edge {
                        dst,
                        src: src[which],
                        from: own,
                        part: (2 * i + which) as u32,
                        pv: 0.0,
                        a_v: 0.0,
                    });
                }
            }
        }
    }

    /// Whether the last recording has a Hessian that does not depend on
    /// the point, read off the op list by one degree pass: an input has
    /// degree 1 and a constant 0; `Add`/`Sub` take the larger operand
    /// degree, `Mul` the sum, `Neg` and division by a constant keep it,
    /// and `powi(n ≥ 0)` multiplies it by `n`. Every other op of a
    /// variable — division by one, a negative power, a transcendental —
    /// is not a polynomial. The Hessian is constant iff the output has
    /// degree ≤ 2 and the recording is not point-dependent (no resolved
    /// branch, no [`Scalar::value`] read).
    ///
    /// Exact in the direction that matters: "constant" is never claimed
    /// for a function whose Hessian varies. A quadratic in disguise
    /// (say `exp(ln(x)·2)`) reads as varying, which only costs it ADCD-X.
    pub(crate) fn has_constant_hessian(&self) -> bool {
        if self.point_dependent {
            return false;
        }
        const NOT_POLY: u32 = u32::MAX;
        let mut deg: Vec<u32> = Vec::with_capacity(self.out + 1);
        let of = |o: Operand, deg: &[u32]| match o {
            Operand::Var(k) => deg[k as usize],
            Operand::Const(_) => 0,
        };
        for op in &self.nodes[..=self.out] {
            let d = match *op {
                GOp::Input => 1,
                GOp::Add(a, b) | GOp::Sub(a, b) => of(a, &deg).max(of(b, &deg)),
                GOp::Mul(a, b) => of(a, &deg).saturating_add(of(b, &deg)),
                GOp::Neg(a) | GOp::Div(a, Operand::Const(_)) => of(a, &deg),
                GOp::Powi(a, n) if n >= 0 => match of(a, &deg) {
                    NOT_POLY => NOT_POLY,
                    d => d.saturating_mul(n.unsigned_abs()),
                },
                _ => NOT_POLY,
            };
            deg.push(d);
        }
        deg[self.out] <= 2
    }

    /// The full symmetrized Hessian of `f` at `x`, written into `h`.
    ///
    /// Bit-identical to assembling `d` Hessian-vector products and
    /// symmetrizing (the [`crate::DifferentiableFn::hessian`] default).
    /// Leaves no point primed: an [`Self::apply`] must follow a fresh
    /// [`Self::at`].
    pub fn hessian_into<F: ScalarFn + ?Sized>(&mut self, f: &F, x: &[f64], h: &mut Matrix) {
        let d = f.dim();
        assert_eq!(x.len(), d, "hessian_into: dimension mismatch");
        assert_eq!(h.rows(), d, "hessian_into: output rows");
        assert_eq!(h.cols(), d, "hessian_into: output cols");
        self.prime(f, x);
        self.primed = false;
        // One unit lane per input: lane `j` of input row `i` is `[i = j]`.
        let seeds = self.seed_rows(d);
        seeds.fill(0.0);
        for j in 0..d {
            seeds[j * d + j] = 1.0;
        }
        self.tangents(d, h.as_mut_slice());
        h.symmetrize();
    }

    /// Fix the point of the gradient and Hessian-vector products that
    /// follow: one primal sweep (forward values and local partials,
    /// reverse adjoint primals, every scalar that depends on `x` alone),
    /// no tangent work. The caller says when the point changes; nothing
    /// here compares points.
    pub fn at<F: ScalarFn + ?Sized>(&mut self, f: &F, x: &[f64]) {
        assert_eq!(x.len(), f.dim(), "at: dimension mismatch");
        self.prime(f, x);
        self.primed = true;
    }

    /// The Hessian-vector product `H(x)·v` at the point of the last
    /// [`Self::at`], written into `out` — one single-lane tangent sweep
    /// over the frozen point state, so a product costs O(graph) without
    /// the primal work and the Hessian is never materialized.
    ///
    /// # Panics
    /// Panics when no point is primed: before the first [`Self::at`], or
    /// after a [`Self::hessian_into`] moved the workspace.
    pub fn apply(&mut self, v: &[f64], out: &mut [f64]) {
        assert!(
            self.primed,
            "apply: no point primed — call `at` first (and again after `hessian_into`)"
        );
        assert_eq!(v.len(), self.n_inputs, "apply: direction length");
        assert_eq!(out.len(), self.n_inputs, "apply: output length");
        self.seed_rows(1).copy_from_slice(v);
        self.tangents(1, out);
    }

    /// `(f(x), ∇f(x))` at the point of the last [`Self::at`]: the output
    /// node's value and the adjoint primals of the input rows, both
    /// already computed by the primal sweep. No further work.
    ///
    /// # Panics
    /// Panics when no point is primed, like [`Self::apply`].
    pub(crate) fn gradient(&self) -> (f64, &[f64]) {
        assert!(self.primed, "gradient: no point primed — call `at` first");
        // Inputs are recorded first and own no slots.
        let inputs = &self.adj_v[FIRST_NODE_ROW as usize..][..self.n_inputs];
        (self.vals[self.out], inputs)
    }

    /// The point-dependent half of forward-over-reverse. Re-records first
    /// when the cached graph cannot serve `x` (never recorded, dimension
    /// change, or point-dependent structure — every call is a new point
    /// by contract), then sweeps forward for values, local partials and
    /// the `point` scalars, and backward for the adjoint primals.
    ///
    /// `adj_v[i]` is final once the backward sweep reaches node `i`:
    /// operands precede their consumers, so every contribution to it
    /// comes from a node `j > i`, visited earlier, and no later step
    /// writes it. The `a_v` frozen into node `i`'s edges is therefore the
    /// value a fused one-pass sweep reads at step `i`, and the tangent
    /// sweep can run against it later with no change in any lane's
    /// arithmetic.
    fn prime<F: ScalarFn + ?Sized>(&mut self, f: &F, x: &[f64]) {
        if self.nodes.is_empty() || self.n_inputs != x.len() || self.point_dependent {
            self.record(f, x);
        }
        self.point_sweeps += 1;
        let n = self.nodes.len();
        let Self {
            nodes,
            rev,
            vals,
            parts,
            point,
            adj_v,
            ..
        } = self;
        // Every entry a sweep reads is written first.
        vals.resize(n, 0.0);
        parts.resize(2 * n, 0.0);
        point.resize(n, [0.0; 3]);

        // Forward: primals in the exact token sequences of the tape.
        let val = |o: Operand, vals: &[f64]| match o {
            Operand::Var(k) => vals[k as usize],
            Operand::Const(c) => c,
        };
        let mut input = 0usize;
        for (i, &op) in nodes.iter().enumerate() {
            let (v, pa, pb) = match op {
                GOp::Input => {
                    input += 1;
                    (x[input - 1], 0.0, 0.0)
                }
                GOp::Add(a, b) => (val(a, vals) + val(b, vals), 1.0, 1.0),
                GOp::Sub(a, b) => (val(a, vals) - val(b, vals), 1.0, -1.0),
                GOp::Mul(a, b) => {
                    let (av, bv) = (val(a, vals), val(b, vals));
                    point[i] = [av, bv, 0.0];
                    (av * bv, bv, av)
                }
                GOp::Div(a, b) => {
                    let (av, bv) = (val(a, vals), val(b, vals));
                    // inv = one / bv; value = av * inv; pb = -av*inv*inv.
                    let inv_v = 1.0 / bv;
                    point[i] = [av, bv, inv_v];
                    (av * inv_v, inv_v, (-av) * inv_v * inv_v)
                }
                GOp::Neg(a) | GOp::AbsNeg(a) => (-val(a, vals), -1.0, 0.0),
                GOp::Exp(a) => {
                    let e_v = val(a, vals).exp();
                    point[i] = [e_v, 0.0, 0.0];
                    // pa is the output itself.
                    (e_v, e_v, 0.0)
                }
                GOp::Ln(a) => {
                    let av = val(a, vals);
                    point[i] = [av, av * av, 0.0];
                    // pa = one / av.
                    (av.ln(), 1.0 / av, 0.0)
                }
                GOp::Tanh(a) => {
                    let t_v = val(a, vals).tanh();
                    // pa = one - t*t.
                    let pa = 1.0 - t_v * t_v;
                    point[i] = [t_v, pa, 0.0];
                    (t_v, pa, 0.0)
                }
                GOp::Sin(a) => {
                    let av = val(a, vals);
                    let (sin_v, cos_v) = (av.sin(), av.cos());
                    point[i] = [sin_v, cos_v, 0.0];
                    (sin_v, cos_v, 0.0)
                }
                GOp::Cos(a) => {
                    let av = val(a, vals);
                    let (sin_v, cos_v) = (av.sin(), av.cos());
                    point[i] = [sin_v, cos_v, 0.0];
                    (cos_v, -sin_v, 0.0)
                }
                GOp::Sqrt(a) => {
                    let s_v = val(a, vals).sqrt();
                    point[i] = [s_v, s_v * s_v, 0.0];
                    // pa = 0.5 / s.
                    (s_v, 0.5 / s_v, 0.0)
                }
                GOp::Powi(a, p) => {
                    let av = val(a, vals);
                    let (q_v, r_v) = (av.powi(p - 1), av.powi(p - 2));
                    point[i] = [q_v, r_v, 0.0];
                    // pa = p * av.powi(p - 1).
                    (av.powi(p), f64::from(p) * q_v, 0.0)
                }
                GOp::AbsPos(a) | GOp::MaxLeft(a, _) => (val(a, vals), 1.0, 0.0),
                GOp::MaxRight(_, b) => (val(b, vals), 0.0, 1.0),
            };
            vals[i] = v;
            parts[2 * i] = pa;
            parts[2 * i + 1] = pb;
        }

        // Backward: the primal half of every edge.
        adj_v.clear();
        adj_v.resize(self.n_rows, 0.0);
        adj_v[self.out_row] = 1.0;
        for e in rev.iter_mut() {
            e.a_v = adj_v[e.from as usize];
            e.pv = parts[e.part as usize];
            adj_v[e.dst as usize] += e.pv * e.a_v;
        }
    }

    /// Size the tangent buffer for `d` lanes and hand out the input rows,
    /// `n_inputs × d` row-major, for the caller to seed before
    /// [`Self::tangents`].
    fn seed_rows(&mut self, d: usize) -> &mut [f64] {
        self.t.resize(self.n_rows * d, 0.0);
        // Inputs are recorded first and own no slots.
        &mut self.t[FIRST_NODE_ROW as usize * d..][..self.n_inputs * d]
    }

    /// The direction-dependent half of forward-over-reverse over the
    /// state [`Self::prime`] froze, `d` lanes wide from the seeds
    /// [`Self::seed_rows`] took: value tangents and partial slots
    /// forward, adjoint tangents backward, with `out` receiving the
    /// `n_inputs × d` adjoint-tangent block row-major. Lane `j` computes
    /// the exact tangent sequence of a dual-number replay seeded with
    /// that lane's seed — see the module docs for the contract.
    ///
    /// Both buffers are flat, `row·d + lane`. A row is located by its
    /// index and read or written through a `Cell` view of the buffer, one
    /// bounds check per row: nothing splits the buffer around a node or
    /// an edge, and the lane loops see length-`d` rows they can
    /// vectorize. Inlined into its two callers, so the single-lane
    /// product compiles with `d = 1` folded in.
    #[inline(always)]
    fn tangents(&mut self, d: usize, out: &mut [f64]) {
        let Self {
            nodes,
            rows,
            rev,
            point,
            t,
            adj_d,
            ..
        } = self;
        // The constant rows; every other row is written before it is read.
        t[ZERO as usize * d..][..d].fill(0.0);
        t[NEG_ZERO as usize * d..][..d].fill(-0.0);
        // Cells let a node read its operands' rows and write its own
        // without splitting the buffer around them.
        let t = Cell::from_mut(t.as_mut_slice()).as_slice_of_cells();
        let row = |r: u32| &t[r as usize * d..][..d];

        // Forward: tangents per lane, in the exact token sequences of the
        // tape. Operand rows always precede the node's own, and a node's
        // partial slots follow its value row.
        for ((op, &Rows { a, b, own }), &point) in nodes.iter().zip(rows.iter()).zip(point.iter()) {
            let (at, bt, val) = (row(a), row(b), row(own));
            match *op {
                // Seeded by the caller.
                GOp::Input => {}
                GOp::Add(..) => {
                    for l in 0..d {
                        val[l].set(at[l].get() + bt[l].get());
                    }
                }
                GOp::Sub(..) => {
                    for l in 0..d {
                        val[l].set(at[l].get() - bt[l].get());
                    }
                }
                GOp::Mul(..) => {
                    let [av, bv, _] = point;
                    for l in 0..d {
                        val[l].set(at[l].get() * bv + av * bt[l].get());
                    }
                }
                GOp::Div(..) => {
                    let [av, bv, inv_v] = point;
                    let m1_v = (-av) * inv_v;
                    let (inv, m1) = (row(own + 1), row(own + 2));
                    for l in 0..d {
                        let (at, bt) = (at[l].get(), bt[l].get());
                        let inv_d = (0.0 * bv - 1.0 * bt) / (bv * bv);
                        inv[l].set(inv_d);
                        val[l].set(at * inv_v + av * inv_d);
                        let m1_d = (-at) * inv_v + (-av) * inv_d;
                        m1[l].set(m1_d * inv_v + m1_v * inv_d);
                    }
                }
                GOp::Neg(_) | GOp::AbsNeg(_) => {
                    for l in 0..d {
                        val[l].set(-at[l].get());
                    }
                }
                GOp::Exp(_) => {
                    let [e_v, ..] = point;
                    for l in 0..d {
                        val[l].set(at[l].get() * e_v);
                    }
                }
                GOp::Ln(_) => {
                    let [av, aa, _] = point;
                    let slot = row(own + 1);
                    for l in 0..d {
                        let at = at[l].get();
                        val[l].set(at / av);
                        slot[l].set((0.0 * av - 1.0 * at) / aa);
                    }
                }
                GOp::Tanh(_) => {
                    let [t_v, pa, _] = point;
                    let slot = row(own + 1);
                    // The partial is `one - t*t`, with t's tangent `vt`.
                    for l in 0..d {
                        let vt = at[l].get() * pa;
                        val[l].set(vt);
                        slot[l].set(0.0 - (vt * t_v + t_v * vt));
                    }
                }
                GOp::Sin(_) => {
                    let [sin_v, cos_v, _] = point;
                    let slot = row(own + 1);
                    for l in 0..d {
                        let at = at[l].get();
                        val[l].set(at * cos_v);
                        slot[l].set(-at * sin_v);
                    }
                }
                GOp::Cos(_) => {
                    let [sin_v, cos_v, _] = point;
                    let slot = row(own + 1);
                    for l in 0..d {
                        let at = at[l].get();
                        val[l].set(-at * sin_v);
                        slot[l].set(-(at * cos_v));
                    }
                }
                GOp::Sqrt(_) => {
                    let [s_v, ss, _] = point;
                    let slot = row(own + 1);
                    // The partial is `0.5 / s`, with s's tangent `vt`.
                    for l in 0..d {
                        let vt = at[l].get() * 0.5 / s_v;
                        val[l].set(vt);
                        slot[l].set((0.0 * s_v - 0.5 * vt) / ss);
                    }
                }
                GOp::Powi(_, p) => {
                    let [q_v, r_v, _] = point;
                    let slot = row(own + 1);
                    for l in 0..d {
                        let at = at[l].get();
                        val[l].set(at * f64::from(p) * q_v);
                        let q_d = at * f64::from(p - 1) * r_v;
                        slot[l].set(0.0 * q_v + f64::from(p) * q_d);
                    }
                }
                GOp::AbsPos(_) | GOp::MaxLeft(..) => {
                    for l in 0..d {
                        val[l].set(at[l].get());
                    }
                }
                GOp::MaxRight(..) => {
                    for l in 0..d {
                        val[l].set(bt[l].get());
                    }
                }
            }
        }

        // Reverse: the tangent half of every edge. A consumer's row
        // always follows its operands'.
        adj_d.clear();
        adj_d.resize(self.n_rows * d, 0.0);
        let adj = Cell::from_mut(adj_d.as_mut_slice()).as_slice_of_cells();
        let adj_row = |r: u32| &adj[r as usize * d..][..d];
        for e in rev.iter() {
            let (dst, src, from) = (adj_row(e.dst), row(e.src), adj_row(e.from));
            for l in 0..d {
                dst[l].set(dst[l].get() + (src[l].get() * e.a_v + e.pv * from[l].get()));
            }
        }

        // Inputs are recorded first and own no slots.
        out.copy_from_slice(&adj_d[FIRST_NODE_ROW as usize * d..][..self.n_inputs * d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    /// Value, gradient and Hessian at each point against the oracle.
    fn assert_bit_identical<F: ScalarFn>(f: F, points: &[Vec<f64>]) {
        let d = f.dim();
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(d, d);
        for x in points {
            ws.at(&f, x);
            let (v, g) = ws.gradient();
            let (ov, og) = oracle::grad(&f, x);
            assert_eq!(v.to_bits(), ov.to_bits(), "f at {x:?}: {v} vs {ov}");
            assert_eq!(oracle::bits(g), oracle::bits(&og), "∇f at {x:?}");
            let reference = oracle::hessian(&f, x);
            ws.hessian_into(&f, x, &mut h);
            for i in 0..d {
                for jj in 0..d {
                    assert_eq!(
                        h[(i, jj)].to_bits(),
                        reference[(i, jj)].to_bits(),
                        "H[{i},{jj}] at {x:?}: graph {} vs tape {}",
                        h[(i, jj)],
                        reference[(i, jj)]
                    );
                }
            }
        }
    }

    struct Poly;
    impl ScalarFn for Poly {
        fn dim(&self) -> usize {
            3
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // Mixed products, constants on both sides, powi, neg.
            x[0] * x[0] * x[1] - S::from_f64(3.0) * x[2].powi(3)
                + x[1] * S::from_f64(0.7)
                + (-x[0]) * x[2]
        }
    }

    struct DivLog;
    impl ScalarFn for DivLog {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // KLD-style: division (the `a * (1/b)` token sequence) + ln.
            x[0] * (x[0] / x[1]).ln() + x[1] / S::from_f64(2.0) + S::from_f64(1.0) / x[0]
        }
    }

    struct Transcendental;
    impl ScalarFn for Transcendental {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].sin() * x[1].exp() + (x[0] * x[1]).cos() + x[1].tanh().sqrt()
                + x[0].sigmoid()
                + (x[0] * x[0] + S::from_f64(1.0)).powf_const(0.3)
        }
    }

    struct Branchy;
    impl ScalarFn for Branchy {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // relu/max/min/abs resolve branches at record time.
            (x[0] * x[1]).relu() + x[0].abs() * x[1] + Scalar::max(x[0], x[1]) * x[0]
                + Scalar::min(x[0] * x[0], x[1])
        }
    }

    struct ValueBranch;
    impl ScalarFn for ValueBranch {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            // Data-dependent control flow through `value()`.
            if x[0].value() > 0.5 {
                x[0] * x[0] * x[1]
            } else {
                x[1] * x[1].exp()
            }
        }
    }

    #[test]
    fn polynomial_bit_identical() {
        assert_bit_identical(
            Poly,
            &[
                vec![0.3, -0.8, 1.7],
                vec![1.0, 2.0, 3.0],
                vec![-0.137, 0.952, -2.5],
            ],
        );
    }

    #[test]
    fn division_and_log_bit_identical() {
        assert_bit_identical(DivLog, &[vec![0.3, 0.8], vec![1.7, 0.21], vec![2.9, 5.3]]);
    }

    #[test]
    fn transcendentals_bit_identical() {
        assert_bit_identical(
            Transcendental,
            &[vec![0.4, 0.9], vec![-1.3, 0.08], vec![2.2, 1.6]],
        );
    }

    #[test]
    fn branches_bit_identical_and_rerecorded() {
        // Points on both sides of every branch.
        assert_bit_identical(
            Branchy,
            &[
                vec![0.5, 0.25],
                vec![-0.5, 0.25],
                vec![0.5, -0.9],
                vec![-0.7, -0.2],
            ],
        );
    }

    #[test]
    fn value_observation_forces_rerecord() {
        assert_bit_identical(ValueBranch, &[vec![0.9, 0.4], vec![0.1, 0.4]]);
        // And the workspace marks itself point-dependent.
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(2, 2);
        ws.hessian_into(&ValueBranch, &[0.9, 0.4], &mut h);
        assert!(ws.point_dependent);
    }

    #[test]
    fn branch_free_graph_recorded_once() {
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(3, 3);
        ws.hessian_into(&Poly, &[0.1, 0.2, 0.3], &mut h);
        assert!(!ws.point_dependent);
        let ops = ws.nodes.len();
        assert!(ops > 0);
        // A second point must not re-record (same op count, same arena).
        ws.hessian_into(&Poly, &[0.9, -0.4, 0.5], &mut h);
        assert_eq!(ws.nodes.len(), ops);
    }

    /// Three fixed non-axis directions of length `d`.
    fn directions(d: usize) -> [Vec<f64>; 3] {
        [0.0, 1.0, 2.0].map(|k| (0..d).map(|i| 0.3 + 0.7 * i as f64 - 0.11 * k).collect())
    }

    /// `apply(v)` at the already-primed point `x` against the tape
    /// oracle, bit for bit.
    fn assert_apply_matches_tape<F: ScalarFn>(
        ws: &mut GraphWorkspace,
        f: &F,
        x: &[f64],
        v: &[f64],
    ) {
        let reference = oracle::hvp(f, x, v);
        let mut out = vec![f64::NAN; x.len()];
        ws.apply(v, &mut out);
        for i in 0..x.len() {
            assert_eq!(
                out[i].to_bits(),
                reference[i].to_bits(),
                "hvp[{i}] at {x:?} along {v:?}: graph {} vs tape {}",
                out[i],
                reference[i]
            );
        }
    }

    /// (A,v1) (A,v2) (B,v1) (A,v3) with one `at` per point change, then a
    /// `hessian_into` wedged between two products at one point: any state
    /// left over from another point, direction or lane count shows up as
    /// a bit difference against the tape.
    fn assert_interleavings_bit_identical<F: ScalarFn>(f: F, a: &[f64], b: &[f64]) {
        let d = f.dim();
        let [v1, v2, v3] = directions(d);
        let mut ws = GraphWorkspace::new();

        ws.at(&f, a);
        assert_apply_matches_tape(&mut ws, &f, a, &v1);
        assert_apply_matches_tape(&mut ws, &f, a, &v2);
        ws.at(&f, b);
        assert_apply_matches_tape(&mut ws, &f, b, &v1);
        ws.at(&f, a);
        assert_apply_matches_tape(&mut ws, &f, a, &v3);
        // One primal sweep per `at`, none per `apply`.
        assert_eq!(ws.point_sweeps(), 3);

        let mut h = Matrix::zeros(d, d);
        ws.hessian_into(&f, b, &mut h);
        let reference = oracle::hessian(&f, b);
        let (h, oh) = (h.as_slice(), reference.as_slice());
        assert_eq!(oracle::bits(h), oracle::bits(oh), "hessian_into at {b:?}");
        ws.at(&f, a);
        assert_apply_matches_tape(&mut ws, &f, a, &v2);
    }

    #[test]
    fn at_apply_bit_identical_across_op_coverage_and_interleavings() {
        assert_interleavings_bit_identical(Poly, &[0.3, -0.8, 1.7], &[-0.137, 0.952, -2.5]);
        assert_interleavings_bit_identical(DivLog, &[0.3, 0.8], &[1.7, 0.21]);
        assert_interleavings_bit_identical(Transcendental, &[0.4, 0.9], &[2.2, 1.6]);
        // Point-dependent graphs: A and B sit on opposite sides of every
        // `Branchy` kink and of `ValueBranch`'s `value()` test, so each
        // `at` must re-record before it re-primes.
        assert_interleavings_bit_identical(Branchy, &[0.5, 0.25], &[-0.7, -0.2]);
        assert_interleavings_bit_identical(Branchy, &[-0.5, 0.25], &[0.5, -0.9]);
        assert_interleavings_bit_identical(ValueBranch, &[0.9, 0.4], &[0.1, 0.4]);
    }

    #[test]
    fn products_and_hessians_share_one_recording() {
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(3, 3);
        let mut out = vec![0.0; 3];
        ws.hessian_into(&Poly, &[0.1, 0.2, 0.3], &mut h);
        let ops = ws.nodes.len();
        // Interleaved products at other points reuse the same graph.
        ws.at(&Poly, &[0.9, -0.4, 0.5]);
        ws.apply(&[1.0, 0.0, 2.0], &mut out);
        ws.at(&Poly, &[0.2, 0.2, 0.2]);
        ws.apply(&[0.5, -1.0, 0.0], &mut out);
        assert_eq!(ws.nodes.len(), ops);
        // And the product matches H·v from the full Hessian.
        ws.hessian_into(&Poly, &[0.2, 0.2, 0.2], &mut h);
        let hv = h.matvec(&[0.5, -1.0, 0.0]);
        for i in 0..3 {
            assert!((out[i] - hv[i]).abs() < 1e-12, "{} vs {}", out[i], hv[i]);
        }
    }

    #[test]
    #[should_panic(expected = "no point primed")]
    fn apply_before_any_at_panics() {
        let mut out = vec![0.0; 3];
        GraphWorkspace::new().apply(&[1.0, 0.0, 2.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "no point primed")]
    fn gradient_before_any_at_panics() {
        GraphWorkspace::new().gradient();
    }

    #[test]
    #[should_panic(expected = "no point primed")]
    fn hessian_into_invalidates_the_primed_point() {
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(3, 3);
        let mut out = vec![0.0; 3];
        ws.at(&Poly, &[0.1, 0.2, 0.3]);
        ws.apply(&[1.0, 0.0, 2.0], &mut out);
        ws.hessian_into(&Poly, &[0.1, 0.2, 0.3], &mut h);
        ws.apply(&[1.0, 0.0, 2.0], &mut out);
    }

    /// `F`'s body behind a recording counter: `call` runs on recording
    /// scalars only, so the count is the number of recordings.
    struct Counted<F>(F, std::sync::atomic::AtomicUsize);
    impl<F: ScalarFn> ScalarFn for Counted<F> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.call(x)
        }
    }

    /// A fork of a point-independent recording records nothing, counts
    /// its own sweeps from zero and matches the tape like the workspace
    /// it came from. A point-dependent recording, or none, forks into an
    /// empty workspace that records at every query as usual.
    #[test]
    fn forks_reuse_a_point_independent_recording() {
        let f = Counted(Poly, Default::default());
        let recordings = || f.1.load(std::sync::atomic::Ordering::Relaxed);
        let mut h = Matrix::zeros(3, 3);
        let mut parent = GraphWorkspace::new();
        parent.hessian_into(&f, &[0.1, 0.2, 0.3], &mut h);
        parent.at(&f, &[0.3, -0.8, 1.7]);
        assert_eq!(recordings(), 1);
        let mut fork = parent.fork();
        assert_eq!(fork.point_sweeps(), 0);
        for x in [[1.0, 2.0, 3.0], [-0.137, 0.952, -2.5]] {
            fork.at(&f, &x);
            for dir in directions(3) {
                assert_apply_matches_tape(&mut fork, &Poly, &x, &dir);
            }
            fork.hessian_into(&f, &x, &mut h);
            let reference = oracle::hessian(&Poly, &x);
            assert_eq!(
                oracle::bits(h.as_slice()),
                oracle::bits(reference.as_slice()),
                "H at {x:?}"
            );
        }
        assert_eq!(recordings(), 1);
        assert_eq!(fork.point_sweeps(), 4);

        let f = Counted(Branchy, Default::default());
        let mut parent = GraphWorkspace::new();
        parent.at(&f, &[0.5, 0.25]);
        let mut fork = parent.fork();
        assert!(fork.nodes.is_empty());
        for x in [[0.6, 0.3], [0.7, 0.35]] {
            fork.at(&f, &x);
            assert_apply_matches_tape(&mut fork, &Branchy, &x, &[1.0, -0.5]);
        }
        assert_eq!(f.1.load(std::sync::atomic::Ordering::Relaxed), 3);

        let mut empty = GraphWorkspace::new().fork();
        empty.hessian_into(&Poly, &[0.1, 0.2, 0.3], &mut Matrix::zeros(3, 3));
        assert!(!empty.nodes.is_empty());
    }

    #[test]
    #[should_panic(expected = "output is a constant")]
    fn constant_output_panics() {
        struct ConstOut;
        impl ScalarFn for ConstOut {
            fn dim(&self) -> usize {
                1
            }
            fn call<S: Scalar>(&self, _x: &[S]) -> S {
                S::from_f64(4.0)
            }
        }
        let mut ws = GraphWorkspace::new();
        let mut h = Matrix::zeros(1, 1);
        ws.hessian_into(&ConstOut, &[0.0], &mut h);
    }
}
