//! The dense kernels against a per-row `vector::dot`.
//!
//! `Matrix::matvec` entry `i` must be the bits of `vector::dot(row_i, x)`,
//! and `PanelMatrix::form_and_dot` must give the bits of
//! `vector::dot(x, per-row dots)` and `vector::dot(g, x)` although it
//! reads eight rows column by column and sums `gᵀx` inside its first
//! panel: same start values, same products, same order. The reference
//! below calls no `Matrix` product. Shapes cover every size in `0..=19`
//! (every remainder modulo 8, rectangular and zero-sized mat-vecs
//! included), plus the 40×40 and 100×100 the benchmarks run; matrices are
//! not symmetric, and entries include NaN of both signs (with payloads),
//! ±inf, ±0.0, subnormals and ±MAX.
//!
//! A NaN entry must be a NaN on both sides, but its sign and payload are
//! not compared: Rust leaves them unspecified when two NaNs meet in one
//! operation, and `vector::dot` itself picks a different one in a debug
//! and a release build. Every other entry is compared with `to_bits`.

use automon_linalg::{vector, Matrix, PanelMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Every `rows × cols` with both in `0..=19`, then 40×40 and 100×100.
fn shapes() -> impl Iterator<Item = (usize, usize)> {
    (0..=19)
        .flat_map(|r| (0..=19).map(move |c| (r, c)))
        .chain([(40, 40), (100, 100)])
}

/// An entry near zero, or (at `special_rate`) a special value.
fn entry(rng: &mut SmallRng, special_rate: f64) -> f64 {
    const SPECIAL: [f64; 12] = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE / 7.0,
        f64::MAX,
        f64::MIN,
    ];
    if rng.gen_bool(special_rate) {
        if rng.gen_bool(0.25) {
            // A NaN of either sign with a random payload.
            let sign = rng.next_u64() & (1 << 63);
            f64::from_bits(sign | 0x7FF8_0000_0000_0000 | rng.gen_range(1..1u64 << 51))
        } else {
            SPECIAL[rng.gen_range(0..SPECIAL.len())]
        }
    } else {
        rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-8..8))
    }
}

/// `A·x` one row at a time: `vector::dot(row, x)` for each row.
fn reference(m: &Matrix, x: &[f64]) -> Vec<f64> {
    let c = m.cols();
    (0..m.rows())
        .map(|i| vector::dot(&m.as_slice()[i * c..(i + 1) * c], x))
        .collect()
}

/// The same bits, or both NaN.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(k) = (0..got.len()).find(|&k| !same(got[k], want[k])) {
        panic!(
            "{what}: [{k}] is {:e} ({:#018x}), the row's dot gives {:e} ({:#018x})",
            got[k],
            got[k].to_bits(),
            want[k],
            want[k].to_bits()
        );
    }
}

/// The special rate: none, sparse or dense.
fn special_rate(rng: &mut SmallRng) -> f64 {
    [0.0, 1.0 / 64.0, 1.0 / 8.0][rng.gen_range(0..3usize)]
}

/// One seed over every shape.
fn matvec_case(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let special_rate = special_rate(&mut rng);
    for (r, c) in shapes() {
        let m = Matrix::from_fn(r, c, |_, _| entry(&mut rng, special_rate));
        let x: Vec<f64> = (0..c).map(|_| entry(&mut rng, special_rate)).collect();
        assert_bits(&m.matvec(&x), &reference(&m, &x), &format!("{r}×{c} matvec"));
    }
}

/// One seed over every square shape: the packed penalty's `(xᵀMx, gᵀx)`
/// against the row-major formulas, and its entries against `M`'s.
fn panel_case(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let special_rate = special_rate(&mut rng);
    for d in (0..=19).chain([40, 100]) {
        let m = Matrix::from_fn(d, d, |_, _| entry(&mut rng, special_rate));
        let x: Vec<f64> = (0..d).map(|_| entry(&mut rng, special_rate)).collect();
        let g: Vec<f64> = (0..d).map(|_| entry(&mut rng, special_rate)).collect();
        let p = PanelMatrix::pack(&m);
        let unpacked = p.to_matrix();
        assert_eq!((unpacked.rows(), unpacked.cols()), (d, d));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&unpacked), bits(&m), "{d}×{d} pack");
        let (form, dot) = p.form_and_dot(&x, &g);
        let want = [vector::dot(&x, &reference(&m, &x)), vector::dot(&g, &x)];
        assert_bits(&[form, dot], &want, &format!("{d}×{d} form_and_dot"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matvec_equals_a_dot_per_row_bit_for_bit(seed in 0u64..u64::MAX) {
        matvec_case(seed);
    }

    #[test]
    fn the_panel_kernel_equals_the_row_major_formulas_bit_for_bit(seed in 0u64..u64::MAX) {
        panel_case(seed);
    }
}

#[test]
fn an_empty_row_is_the_empty_sum() {
    // `f64: Sum` folds from -0.0, so a row with no columns is -0.0.
    let out = Matrix::zeros(3, 0).matvec(&[]);
    assert_eq!(out.len(), 3);
    assert!(out.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
    // So is the form and the dot of a 0×0 penalty.
    let (form, dot) = PanelMatrix::pack(&Matrix::zeros(0, 0)).form_and_dot(&[], &[]);
    assert_eq!([form.to_bits(), dot.to_bits()], [(-0.0f64).to_bits(); 2]);
}

#[test]
fn every_chain_starts_at_negative_zero() {
    // Products that are all -0.0 sum to -0.0 only from a -0.0 start, for
    // the panels' row sums, the form and the tangent alike.
    for d in [1, 8, 9, 16, 17] {
        let p = PanelMatrix::pack(&Matrix::from_fn(d, d, |_, _| -0.0));
        let (form, dot) = p.form_and_dot(&vec![1.0; d], &vec![-0.0; d]);
        assert_eq!([form.to_bits(), dot.to_bits()], [(-0.0f64).to_bits(); 2], "d = {d}");
    }
}
