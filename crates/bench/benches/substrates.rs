//! Microbenchmarks of the substrates: primed Hessian-vector products,
//! the spectral kernels (QL default, Jacobi oracle, matrix-free Lanczos
//! extremes), and the wire codec.

use automon_autodiff::{AutoDiffFn, DifferentiableFn};
use automon_core::{CoordinatorMessage, Curvature, DcKind, NodeMessage, SafeZone, ViolationKind};
use automon_functions::KlDivergence;
use automon_linalg::{
    JacobiOptions, LanczosOptions, LanczosStats, LanczosWorkspace, Matrix, MatrixOperator,
    RitzSide, SymEigen,
};
use automon_net::wire;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The two costs of a matrix-free Hessian-vector product on the
/// `kld_fullsync` function: `kld_first` is the first product at a new
/// point (`at` + `apply`: primal sweep, then one tangent lane),
/// `kld_repeat` every further product there (`apply` alone). A Lanczos
/// run pays one of the former and ~5 of the latter per probe point;
/// `scripts/bench_snapshot.sh` fails when a repeat costs more than 0.7
/// of a first, i.e. when the primed path has fallen back to redoing the
/// primal sweep per product.
fn bench_hvp(c: &mut Criterion) {
    let mut group = c.benchmark_group("hvp");
    for d in [20usize, 40] {
        let f = AutoDiffFn::new(KlDivergence::with_paper_tau(d, 12, 200));
        let x: Vec<f64> = (0..d).map(|i| (1.0 + 0.01 * i as f64) / d as f64).collect();
        let v: Vec<f64> = (0..d).map(|i| 0.3 - 0.07 * i as f64).collect();
        let mut out = vec![0.0; d];
        let mut he = f.hvp_eval();
        group.bench_with_input(BenchmarkId::new("kld_first", d), &d, |b, _| {
            b.iter(|| {
                he.at(std::hint::black_box(&x));
                he.apply(std::hint::black_box(&v), &mut out);
                std::hint::black_box(out[0])
            })
        });
        he.at(&x);
        group.bench_with_input(BenchmarkId::new("kld_repeat", d), &d, |b, _| {
            b.iter(|| {
                he.apply(std::hint::black_box(&v), &mut out);
                std::hint::black_box(out[0])
            })
        });
    }
    group.finish();
}

fn random_sym(d: usize) -> Matrix {
    let mut seed = 1u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut m = Matrix::from_fn(d, d, |_, _| next());
    m.symmetrize();
    m
}

fn bench_eigen(c: &mut Criterion) {
    // The legacy Jacobi kernel, pinned explicitly so the group keeps
    // measuring Jacobi now that `SymEigen::new` defaults to QL.
    let mut group = c.benchmark_group("jacobi_eigen");
    for d in [10usize, 40, 100] {
        let m = random_sym(d);
        group.bench_with_input(BenchmarkId::new("decompose", d), &d, |b, _| {
            b.iter(|| {
                std::hint::black_box(SymEigen::with_options(
                    std::hint::black_box(&m),
                    JacobiOptions::default(),
                ))
            })
        });
    }
    group.finish();

    // The two-tier default: Householder + implicit-shift QL.
    let mut group = c.benchmark_group("ql_eigen");
    for d in [10usize, 40, 100] {
        let m = random_sym(d);
        group.bench_with_input(BenchmarkId::new("decompose", d), &d, |b, _| {
            b.iter(|| std::hint::black_box(SymEigen::new(std::hint::black_box(&m))))
        });
    }
    group.finish();

    // Matrix-free extremes (warm-started across iterations, like the
    // ADCD-X probe chain).
    let mut group = c.benchmark_group("lanczos_extremes");
    for d in [10usize, 40, 100] {
        let m = random_sym(d);
        let shift = 0.0;
        let scale = d as f64;
        let mut ws = LanczosWorkspace::new();
        let mut stats = LanczosStats::default();
        group.bench_with_input(BenchmarkId::new("extremes", d), &d, |b, _| {
            b.iter(|| {
                let mut op = MatrixOperator::new(std::hint::black_box(&m));
                std::hint::black_box(ws.extremes(
                    &mut op,
                    shift,
                    scale,
                    RitzSide::Smallest,
                    &LanczosOptions::default(),
                    &mut stats,
                ))
            })
        });
    }
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for d in [10usize, 100] {
        let msg = NodeMessage::Violation {
            node: 3,
            kind: ViolationKind::SafeZone,
            local_vector: vec![1.25; d],
            epoch: 1,
        };
        group.bench_with_input(BenchmarkId::new("encode_violation", d), &d, |b, _| {
            b.iter(|| std::hint::black_box(wire::encode_node_message(std::hint::black_box(&msg))))
        });
        let bytes = wire::encode_node_message(&msg);
        group.bench_with_input(BenchmarkId::new("decode_violation", d), &d, |b, _| {
            b.iter(|| std::hint::black_box(wire::decode_node_message(std::hint::black_box(&bytes))))
        });
        // The largest frame the protocol sends: a full constraint
        // update with its curvature matrix (d × d payload).
        let constraints = CoordinatorMessage::NewConstraints {
            zone: SafeZone {
                x0: vec![0.1; d],
                f0: 1.0,
                grad0: vec![0.2; d],
                l: 0.9,
                u: 1.1,
                dc: DcKind::ConvexDiff,
                curvature: Curvature::Quadratic(Matrix::identity(d)),
                neighborhood: None,
            },
            slack: vec![0.0; d],
            epoch: 1,
        };
        group.bench_with_input(BenchmarkId::new("encode_constraints", d), &d, |b, _| {
            b.iter(|| {
                std::hint::black_box(wire::encode_coordinator_message(std::hint::black_box(
                    &constraints,
                )))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hvp, bench_eigen, bench_wire);
criterion_main!(benches);
