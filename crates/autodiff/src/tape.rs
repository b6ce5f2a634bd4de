//! Reverse-mode automatic differentiation on a Wengert tape.

use crate::Scalar;
use std::cell::RefCell;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// One recorded operation: up to two parents with their local partials.
#[derive(Clone, Copy)]
struct Node<V> {
    parents: [usize; 2],
    partials: [V; 2],
    arity: u8,
}

/// A reverse-mode tape, generic over the value type it carries.
///
/// `Tape<f64>` computes gradients; `Tape<Dual>` computes Hessian-vector
/// products (forward-over-reverse). Each arithmetic operation on a tape
/// [`Var`] appends a node recording its parents and local partial
/// derivatives; [`Tape::gradient`] then runs a single backward sweep.
///
/// A tape is cheap to create and intended to be used for one forward +
/// backward pass, which keeps the API free of explicit "reset" state.
pub struct Tape<V> {
    nodes: RefCell<Vec<Node<V>>>,
}

impl<V: Scalar> Default for Tape<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Scalar> Tape<V> {
    /// An empty tape with the default arena capacity.
    pub fn new() -> Self {
        Self::with_capacity(256)
    }

    /// An empty tape sized for `ops` nodes — callers that know the op
    /// count of the function they are about to trace (e.g. from a prior
    /// trace) avoid arena regrowth entirely.
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            nodes: RefCell::new(Vec::with_capacity(ops)),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Register an independent (input) variable.
    pub fn var(&self, v: V) -> Var<'_, V> {
        let idx = self.push(Node {
            parents: [0, 0],
            partials: [V::from_f64(0.0); 2],
            arity: 0,
        });
        Var {
            tape: Some(self),
            idx,
            v,
        }
    }

    fn push(&self, node: Node<V>) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(node);
        nodes.len() - 1
    }

    /// Reverse sweep: the gradient of `output` with respect to `inputs`.
    ///
    /// # Panics
    /// Panics if `output` or any input is a constant (not recorded on this
    /// tape), or belongs to a different tape (detected as out-of-range
    /// indices only; callers own tape discipline).
    pub fn gradient(&self, output: Var<'_, V>, inputs: &[Var<'_, V>]) -> Vec<V> {
        let out_idx = output.idx_checked("gradient: output is a constant");
        let nodes = self.nodes.borrow();
        let mut adjoint = vec![V::from_f64(0.0); nodes.len()];
        adjoint[out_idx] = V::from_f64(1.0);
        for i in (0..=out_idx).rev() {
            let node = &nodes[i];
            let a = adjoint[i];
            for k in 0..node.arity as usize {
                let p = node.parents[k];
                adjoint[p] = adjoint[p] + node.partials[k] * a;
            }
        }
        inputs
            .iter()
            .map(|x| adjoint[x.idx_checked("gradient: input is a constant")])
            .collect()
    }
}

/// A value recorded on a reverse-mode [`Tape`], or a free constant.
///
/// Constants (created with `Scalar::from_f64`) carry no tape reference and
/// contribute no derivative; mixing them with tape variables works
/// transparently, so generic function bodies need no special cases.
pub struct Var<'t, V: Scalar> {
    tape: Option<&'t Tape<V>>,
    idx: usize,
    v: V,
}

impl<V: Scalar> Clone for Var<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V: Scalar> Copy for Var<'_, V> {}

impl<V: Scalar> fmt::Debug for Var<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("idx", &self.idx)
            .field("v", &self.v)
            .field("const", &self.tape.is_none())
            .finish()
    }
}

impl<'t, V: Scalar> Var<'t, V> {
    /// The carried value.
    pub fn val(&self) -> V {
        self.v
    }

    fn idx_checked(&self, msg: &str) -> usize {
        assert!(self.tape.is_some(), "{msg}");
        self.idx
    }

    /// Record a unary operation with local partial `dv`.
    fn unary(self, v: V, dv: V) -> Self {
        match self.tape {
            None => Var {
                tape: None,
                idx: 0,
                v,
            },
            Some(tape) => {
                let idx = tape.push(Node {
                    parents: [self.idx, 0],
                    partials: [dv, V::from_f64(0.0)],
                    arity: 1,
                });
                Var {
                    tape: Some(tape),
                    idx,
                    v,
                }
            }
        }
    }

    /// Record a binary operation with partials `da` (w.r.t. self) and `db`.
    fn binary(self, other: Self, v: V, da: V, db: V) -> Self {
        let tape = self.tape.or(other.tape);
        let Some(tape) = tape else {
            return Var {
                tape: None,
                idx: 0,
                v,
            };
        };
        let mut parents = [0usize; 2];
        let mut partials = [V::from_f64(0.0); 2];
        let mut arity = 0u8;
        if self.tape.is_some() {
            parents[arity as usize] = self.idx;
            partials[arity as usize] = da;
            arity += 1;
        }
        if other.tape.is_some() {
            parents[arity as usize] = other.idx;
            partials[arity as usize] = db;
            arity += 1;
        }
        let idx = tape.push(Node {
            parents,
            partials,
            arity,
        });
        Var {
            tape: Some(tape),
            idx,
            v,
        }
    }
}

impl<'t, V: Scalar> Add for Var<'t, V> {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        let one = V::from_f64(1.0);
        self.binary(o, self.v + o.v, one, one)
    }
}

impl<'t, V: Scalar> Sub for Var<'t, V> {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        let one = V::from_f64(1.0);
        self.binary(o, self.v - o.v, one, -one)
    }
}

impl<'t, V: Scalar> Mul for Var<'t, V> {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        self.binary(o, self.v * o.v, o.v, self.v)
    }
}

impl<'t, V: Scalar> Div for Var<'t, V> {
    type Output = Self;
    fn div(self, o: Self) -> Self {
        let inv = V::from_f64(1.0) / o.v;
        self.binary(o, self.v * inv, inv, -self.v * inv * inv)
    }
}

impl<'t, V: Scalar> Neg for Var<'t, V> {
    type Output = Self;
    fn neg(self) -> Self {
        self.unary(-self.v, V::from_f64(-1.0))
    }
}

impl<'t, V: Scalar> Scalar for Var<'t, V> {
    fn from_f64(c: f64) -> Self {
        Var {
            tape: None,
            idx: 0,
            v: V::from_f64(c),
        }
    }

    fn value(&self) -> f64 {
        self.v.value()
    }

    fn exp(self) -> Self {
        let e = self.v.exp();
        self.unary(e, e)
    }

    fn ln(self) -> Self {
        self.unary(self.v.ln(), V::from_f64(1.0) / self.v)
    }

    fn tanh(self) -> Self {
        let t = self.v.tanh();
        self.unary(t, V::from_f64(1.0) - t * t)
    }

    fn sin(self) -> Self {
        self.unary(self.v.sin(), self.v.cos())
    }

    fn cos(self) -> Self {
        self.unary(self.v.cos(), -self.v.sin())
    }

    fn sqrt(self) -> Self {
        let s = self.v.sqrt();
        self.unary(s, V::from_f64(0.5) / s)
    }

    fn powi(self, n: i32) -> Self {
        self.unary(
            self.v.powi(n),
            V::from_f64(f64::from(n)) * self.v.powi(n - 1),
        )
    }

    fn abs(self) -> Self {
        if self.v.value() >= 0.0 {
            self.unary(self.v, V::from_f64(1.0))
        } else {
            self.unary(-self.v, V::from_f64(-1.0))
        }
    }

    fn max(self, other: Self) -> Self {
        // Branch on primal values; derivative follows the winner, exactly
        // like JAX's `maximum` under a single sub-gradient choice.
        if self.v.value() >= other.v.value() {
            self.binary(other, self.v, V::from_f64(1.0), V::from_f64(0.0))
        } else {
            self.binary(other, other.v, V::from_f64(0.0), V::from_f64(1.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::Dual;

    #[test]
    fn gradient_of_product() {
        let tape = Tape::<f64>::new();
        let x = tape.var(3.0);
        let y = tape.var(4.0);
        let z = x * y + x;
        assert_eq!(z.val(), 15.0);
        let g = tape.gradient(z, &[x, y]);
        assert_eq!(g, vec![5.0, 3.0]);
    }

    #[test]
    fn gradient_with_constants() {
        let tape = Tape::<f64>::new();
        let x = tape.var(2.0);
        let c = Var::<f64>::from_f64(10.0);
        let z = c * x * x + c; // 10x² + 10 → dz/dx = 40
        assert_eq!(z.val(), 50.0);
        let g = tape.gradient(z, &[x]);
        assert_eq!(g, vec![40.0]);
    }

    #[test]
    fn gradient_of_transcendentals() {
        let tape = Tape::<f64>::new();
        let x = tape.var(0.5);
        let z = x.exp() * x.sin() + x.ln();
        let g = tape.gradient(z, &[x])[0];
        let expected = 0.5f64.exp() * (0.5f64.sin() + 0.5f64.cos()) + 2.0;
        assert!((g - expected).abs() < 1e-12);
    }

    #[test]
    fn fan_out_accumulates() {
        // z = x·x uses x twice; adjoint must accumulate.
        let tape = Tape::<f64>::new();
        let x = tape.var(7.0);
        let z = x * x;
        assert_eq!(tape.gradient(z, &[x]), vec![14.0]);
    }

    #[test]
    fn division_partials() {
        let tape = Tape::<f64>::new();
        let x = tape.var(6.0);
        let y = tape.var(3.0);
        let z = x / y;
        let g = tape.gradient(z, &[x, y]);
        assert!((g[0] - 1.0 / 3.0).abs() < 1e-15);
        assert!((g[1] + 6.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn relu_and_max_branches() {
        let tape = Tape::<f64>::new();
        let x = tape.var(-2.0);
        let z = x.relu();
        assert_eq!(z.val(), 0.0);
        assert_eq!(tape.gradient(z, &[x]), vec![0.0]);

        let tape = Tape::<f64>::new();
        let x = tape.var(2.0);
        let z = x.relu() * Var::from_f64(3.0);
        assert_eq!(tape.gradient(z, &[x]), vec![3.0]);
    }

    #[test]
    fn forward_over_reverse_gives_hvp() {
        // f(x, y) = x²y. H = [[2y, 2x], [2x, 0]].
        // At (3, 5), direction (1, 0): H·v = (10, 6).
        let tape = Tape::<Dual>::new();
        let x = tape.var(Dual::new(3.0, 1.0));
        let y = tape.var(Dual::new(5.0, 0.0));
        let z = x * x * y;
        let g = tape.gradient(z, &[x, y]);
        assert_eq!(g[0].v, 30.0); // ∂f/∂x = 2xy
        assert_eq!(g[1].v, 9.0); // ∂f/∂y = x²
        assert_eq!(g[0].d, 10.0); // (H·v)₁ = 2y
        assert_eq!(g[1].d, 6.0); // (H·v)₂ = 2x
    }

    #[test]
    #[should_panic(expected = "output is a constant")]
    fn constant_output_panics() {
        let tape = Tape::<f64>::new();
        let x = tape.var(1.0);
        let c = Var::<f64>::from_f64(2.0);
        tape.gradient(c, &[x]);
    }

    #[test]
    fn tape_len_tracks_nodes() {
        let tape = Tape::<f64>::new();
        assert!(tape.is_empty());
        let x = tape.var(1.0);
        let _ = x + x;
        assert_eq!(tape.len(), 2);
    }
}
