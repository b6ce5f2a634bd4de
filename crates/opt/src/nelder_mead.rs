//! Box-projected Nelder–Mead simplex search.

use crate::{Bounds, OptimizeOptions, OptimizeResult};

/// Minimize `f` over `bounds` with a Nelder–Mead simplex whose candidate
/// points are projected onto the box.
///
/// The polishing stage of the ADCD-X eigen search, started from the best
/// probe: the objective `λ_min(H(x))` has kinks wherever the two smallest
/// eigenvalues cross, and simplex search is insensitive to them.
///
/// Stops at `opts.max_iters`, or earlier when the simplex diameter is at
/// most `opts.tol`, or when its values span at most `opts.value_tol` —
/// both tested once per iteration, before the iteration spends an
/// evaluation. The objective must not return NaN.
pub fn nelder_mead(
    f: &mut impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    bounds: &Bounds,
    opts: &OptimizeOptions,
) -> OptimizeResult {
    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    let d = bounds.dim();
    assert_eq!(x0.len(), d, "nelder_mead: start has wrong dimension");
    let mut evals = 0usize;
    let eval = |f: &mut dyn FnMut(&[f64]) -> f64, evals: &mut usize, x: &[f64]| {
        *evals += 1;
        f(x)
    };

    // Initial simplex: start point plus a per-axis offset scaled to the box.
    let x0 = bounds.project(x0);
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(d + 1);
    simplex.push(x0.clone());
    for i in 0..d {
        let span = (bounds.hi[i] - bounds.lo[i]).max(1e-12);
        let mut p = x0.clone();
        let delta = 0.05 * span;
        p[i] = if p[i] + delta <= bounds.hi[i] {
            p[i] + delta
        } else {
            p[i] - delta
        };
        simplex.push(bounds.project(&p));
    }
    let mut values: Vec<f64> = simplex
        .iter()
        .map(|p| eval(f, &mut evals, p))
        .collect();

    // Every buffer the iterations use, allocated once: each iteration
    // overwrites them whole, and an accepted candidate swaps places with
    // the vertex it replaces.
    let mut order: Vec<usize> = Vec::with_capacity(d + 1);
    let mut centroid = vec![0.0; d];
    let mut best_point = vec![0.0; d];
    let (mut reflected, mut expanded, mut contracted) = (vec![0.0; d], vec![0.0; d], vec![0.0; d]);

    let mut converged = false;
    for _ in 0..opts.max_iters {
        // Order ascending by value (a stable sort from index order).
        order.clear();
        order.extend(0..=d);
        order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN objective"));
        let best = order[0];
        let worst = order[d];
        let second_worst = order[d.saturating_sub(1)];

        // Convergence: the vertices' values no longer differ by anything
        // the caller's objective resolves.
        if values[worst] - values[best] <= opts.value_tol {
            converged = true;
            break;
        }

        // Convergence: simplex diameter below tolerance.
        let diameter = simplex
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&simplex[best])
                    .fold(0.0f64, |m, (&a, &b)| m.max((a - b).abs()))
            })
            .fold(0.0, f64::max);
        if diameter <= opts.tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        centroid.fill(0.0);
        for (k, p) in simplex.iter().enumerate() {
            if k == worst {
                continue;
            }
            for i in 0..d {
                centroid[i] += p[i];
            }
        }
        for c in &mut centroid {
            *c /= d as f64;
        }

        // `centroid + t·(centroid − worst)`, projected onto the box.
        let blend = |t: f64, out: &mut [f64]| {
            for (o, (&c, &w)) in out.iter_mut().zip(centroid.iter().zip(&simplex[worst])) {
                *o = c + t * (c - w);
            }
            bounds.project_in_place(out);
        };

        blend(ALPHA, &mut reflected);
        let fr = eval(f, &mut evals, &reflected);
        if fr < values[best] {
            blend(GAMMA, &mut expanded);
            let fe = eval(f, &mut evals, &expanded);
            if fe < fr {
                std::mem::swap(&mut simplex[worst], &mut expanded);
                values[worst] = fe;
            } else {
                std::mem::swap(&mut simplex[worst], &mut reflected);
                values[worst] = fr;
            }
        } else if fr < values[second_worst] {
            std::mem::swap(&mut simplex[worst], &mut reflected);
            values[worst] = fr;
        } else {
            blend(-RHO, &mut contracted);
            let fc = eval(f, &mut evals, &contracted);
            if fc < values[worst] {
                std::mem::swap(&mut simplex[worst], &mut contracted);
                values[worst] = fc;
            } else {
                // Shrink toward the best vertex.
                best_point.copy_from_slice(&simplex[best]);
                for k in 0..=d {
                    if k == best {
                        continue;
                    }
                    for (p, &b) in simplex[k].iter_mut().zip(&best_point) {
                        *p = b + SIGMA * (*p - b);
                    }
                    bounds.project_in_place(&mut simplex[k]);
                    values[k] = eval(f, &mut evals, &simplex[k]);
                }
            }
        }
    }

    let (bi, bv) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN objective"))
        .expect("non-empty simplex");
    OptimizeResult {
        x: simplex[bi].clone(),
        value: *bv,
        evals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_rosenbrock_in_box() {
        let b = Bounds::new(vec![-2.0, -2.0], vec![2.0, 2.0]);
        // FNV-1a over the bits of every point evaluated, in order.
        let mut seq: u64 = 0xcbf29ce484222325;
        let mut f = |x: &[f64]| {
            for v in x {
                seq = (seq ^ v.to_bits()).wrapping_mul(0x100000001b3);
            }
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        };
        // A negative `value_tol` turns the value stop off: the evaluation
        // sequence is the one the diameter-only search produced.
        let opts = OptimizeOptions {
            max_iters: 2000,
            tol: 1e-10,
            value_tol: -1.0,
        };
        let r = nelder_mead(&mut f, &[-1.0, 1.0], &b, &opts);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{:?}", r);
        assert!((r.x[1] - 1.0).abs() < 1e-3, "{:?}", r);
        assert!(r.converged);
        assert_eq!((r.evals, seq), (275, 0x0bf00877bf2d604e));
        assert_eq!(r.value.to_bits(), 0x3b74d4c260800000);
    }

    #[test]
    fn constant_objective_stops_after_the_initial_simplex() {
        for d in [1usize, 2, 7, 20] {
            let b = Bounds::new(vec![-1.0; d], vec![1.0; d]);
            let r = nelder_mead(&mut |_| 3.5, &vec![0.2; d], &b, &OptimizeOptions::default());
            assert_eq!(r.evals, d + 1, "d = {d}");
            assert!(r.converged);
            assert_eq!((r.value, &r.x), (3.5, &vec![0.2; d]));
        }
    }

    #[test]
    fn value_stop_ignores_differences_below_its_tolerance() {
        // Noise of amplitude 1e-15 on a plateau: with the value stop at
        // the noise level the search ends on the initial simplex; turned
        // off, it spends its whole budget shrinking.
        let b = Bounds::new(vec![-1.0; 4], vec![1.0; 4]);
        let noisy = |x: &[f64]| 1e-15 * (1e6 * x.iter().sum::<f64>()).sin();
        let run = |value_tol| {
            let opts = OptimizeOptions {
                max_iters: 30,
                tol: 1e-10,
                value_tol,
            };
            nelder_mead(&mut { noisy }, &[0.1; 4], &b, &opts)
        };
        assert_eq!(run(1e-12).evals, 5);
        assert!(run(-1.0).evals > 30);
    }

    #[test]
    fn handles_nonsmooth_objective() {
        let b = Bounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let mut f = |x: &[f64]| x[0].abs() + (x[1] - 0.5).abs();
        let r = nelder_mead(&mut f, &[0.9, -0.9], &b, &OptimizeOptions::default());
        assert!(r.x[0].abs() < 1e-3, "{:?}", r);
        assert!((r.x[1] - 0.5).abs() < 1e-3, "{:?}", r);
    }

    #[test]
    fn stays_inside_box() {
        let b = Bounds::new(vec![0.0], vec![1.0]);
        let mut f = |x: &[f64]| -x[0]; // pushes toward hi
        let r = nelder_mead(&mut f, &[0.1], &b, &OptimizeOptions::default());
        assert!(r.x[0] <= 1.0 + 1e-12);
        assert!((r.x[0] - 1.0).abs() < 1e-6);
    }
}
