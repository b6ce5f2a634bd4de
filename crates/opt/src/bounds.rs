//! Axis-aligned box constraints.

/// An axis-aligned box `[lo₁, hi₁] × … × [lo_d, hi_d]`.
///
/// AutoMon's neighborhood `B` around a reference point `x0` is exactly such
/// a box (paper §3.5): `B = [x0 - r, x0 + r] ∩ D`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    /// Per-coordinate lower bounds.
    pub lo: Vec<f64>,
    /// Per-coordinate upper bounds.
    pub hi: Vec<f64>,
}

impl Bounds {
    /// Create a box; every `lo[i] ≤ hi[i]` must hold.
    ///
    /// # Panics
    /// Panics on mismatched lengths or inverted bounds.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "Bounds: length mismatch");
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            assert!(l <= h, "Bounds: lo[{i}] = {l} > hi[{i}] = {h}");
        }
        Self { lo, hi }
    }

    /// The box `[c - r, c + r]` around a center point.
    pub fn centered(center: &[f64], r: f64) -> Self {
        assert!(r >= 0.0, "Bounds::centered: negative radius");
        Self {
            lo: center.iter().map(|&c| c - r).collect(),
            hi: center.iter().map(|&c| c + r).collect(),
        }
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// The box center.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| 0.5 * (l + h))
            .collect()
    }

    /// Project `x` onto the box (coordinate-wise clamp).
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        let mut p = x.to_vec();
        self.project_in_place(&mut p);
        p
    }

    /// [`Self::project`] without allocating: clamps `x` in place.
    pub(crate) fn project_in_place(&self, x: &mut [f64]) {
        for (xi, (&l, &h)) in x.iter_mut().zip(self.lo.iter().zip(&self.hi)) {
            *xi = xi.clamp(l, h);
        }
    }

    /// `true` when `x` lies inside the box (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&xi, (&l, &h))| xi >= l && xi <= h)
    }

    /// Intersect with another box of the same dimension.
    ///
    /// Returns `None` when the intersection is empty.
    pub fn intersect(&self, other: &Bounds) -> Option<Bounds> {
        assert_eq!(self.dim(), other.dim(), "intersect: dimension mismatch");
        let lo: Vec<f64> = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(&a, &b)| a.max(b))
            .collect();
        let hi: Vec<f64> = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(&a, &b)| a.min(b))
            .collect();
        if lo.iter().zip(&hi).all(|(&l, &h)| l <= h) {
            Some(Bounds { lo, hi })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_box() {
        let b = Bounds::centered(&[1.0, -1.0], 0.5);
        assert_eq!(b.lo, vec![0.5, -1.5]);
        assert_eq!(b.hi, vec![1.5, -0.5]);
        assert_eq!(b.center(), vec![1.0, -1.0]);
    }

    #[test]
    fn project_and_contains() {
        let b = Bounds::new(vec![0.0], vec![1.0]);
        assert_eq!(b.project(&[2.0]), vec![1.0]);
        assert_eq!(b.project(&[-2.0]), vec![0.0]);
        assert!(b.contains(&[0.5]));
        assert!(!b.contains(&[1.5]));
        assert!(!b.contains(&[0.5, 0.5])); // wrong dim
    }

    #[test]
    fn intersections() {
        let a = Bounds::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        let b = Bounds::new(vec![1.0, -1.0], vec![3.0, 1.0]);
        let c = a.intersect(&b).unwrap();
        assert_eq!(c.lo, vec![1.0, 0.0]);
        assert_eq!(c.hi, vec![2.0, 1.0]);
        let disjoint = Bounds::new(vec![5.0, 5.0], vec![6.0, 6.0]);
        assert!(a.intersect(&disjoint).is_none());
    }

    #[test]
    #[should_panic(expected = "lo[0]")]
    fn inverted_bounds_panic() {
        Bounds::new(vec![1.0], vec![0.0]);
    }
}
