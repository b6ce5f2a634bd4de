//! The generic scalar trait over which monitored functions are written.

use std::fmt::Debug;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A differentiable scalar.
///
/// Monitored functions are written once, generically over `S: Scalar`
/// (see [`crate::ScalarFn`]); the AD machinery then instantiates them with
/// `f64` (plain evaluation) and with the recording scalar that writes
/// the computation graph every derivative is read from. The primitive set mirrors what the paper's
/// evaluation functions need: arithmetic, `exp`/`ln`, `tanh`/`sigmoid`
/// (MLP, DNN), `sin`/`cos`, `sqrt`, integer powers, and the non-smooth
/// `abs`/`max` from which ReLU is built.
///
/// `value()` exposes the primal value so that *data-dependent control flow*
/// can branch on it; derivatives then follow the taken branch, which is the
/// standard AD semantics (and JAX's).
pub trait Scalar:
    Copy
    + Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Lift a constant into this scalar type (zero derivative).
    fn from_f64(c: f64) -> Self;

    /// The primal (undifferentiated) value.
    ///
    /// Reading it inside a function body lets control flow depend on the
    /// point in ways the recorded graph cannot see, so `AutoDiffFn` then
    /// never reports a constant Hessian: ADCD-E is unavailable for that
    /// function and it is monitored with ADCD-X.
    fn value(&self) -> f64;

    /// Natural exponential `eˣ`.
    fn exp(self) -> Self;

    /// Natural logarithm `ln x`.
    fn ln(self) -> Self;

    /// Hyperbolic tangent.
    fn tanh(self) -> Self;

    /// Sine.
    fn sin(self) -> Self;

    /// Cosine.
    fn cos(self) -> Self;

    /// Square root.
    fn sqrt(self) -> Self;

    /// Integer power `xⁿ` (supports negative exponents).
    fn powi(self, n: i32) -> Self;

    /// Absolute value. At 0 the derivative of the non-negative branch
    /// (i.e. `+1`) is propagated.
    fn abs(self) -> Self;

    /// Pairwise maximum. Ties propagate the left argument's derivative.
    fn max(self, other: Self) -> Self;

    /// Pairwise minimum. Ties propagate the left argument's derivative.
    fn min(self, other: Self) -> Self {
        -((-self).max(-other))
    }

    /// Rectified linear unit `max(x, 0)`.
    fn relu(self) -> Self {
        self.max(Self::from_f64(0.0))
    }

    /// Logistic sigmoid `1 / (1 + e⁻ˣ)`.
    fn sigmoid(self) -> Self {
        Self::from_f64(1.0) / (Self::from_f64(1.0) + (-self).exp())
    }

    /// Real power `x^p` for constant exponent, via `exp(p · ln x)`.
    ///
    /// Only defined for positive `x`, like `f64::powf` restricted to the
    /// differentiable domain.
    fn powf_const(self, p: f64) -> Self {
        (Self::from_f64(p) * self.ln()).exp()
    }
}

/// Lift a constant into any scalar type: `lit::<S>(2.0)`.
///
/// Sugar for `S::from_f64` at call sites inside generic function bodies.
pub fn lit<S: Scalar>(c: f64) -> S {
    S::from_f64(c)
}

impl Scalar for f64 {
    #[inline]
    fn from_f64(c: f64) -> Self {
        c
    }
    #[inline]
    fn value(&self) -> f64 {
        *self
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn sin(self) -> Self {
        f64::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        f64::cos(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        f64::powi(self, n)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_primitives() {
        assert_eq!(<f64 as Scalar>::from_f64(2.5), 2.5);
        assert_eq!(2.5f64.value(), 2.5);
        assert_eq!(Scalar::max(1.0, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0f64, 2.0), 1.0);
        assert_eq!((-3.0f64).relu(), 0.0);
        assert_eq!(3.0f64.relu(), 3.0);
        assert!((0.0f64.sigmoid() - 0.5).abs() < 1e-15);
        assert!((2.0f64.powf_const(3.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn lit_helper() {
        let x: f64 = lit(4.0);
        assert_eq!(x, 4.0);
    }
}
