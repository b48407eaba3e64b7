//! Criterion benchmarks of the data-movement kernels: 1-bit packing /
//! unpacking and the interleaved→planar transpose.

use ccglib::matrix::HostComplexMatrix;
use ccglib::{pack, transpose};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tcbf_types::Complex;

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack");
    for &k in &[4096usize, 65_536] {
        let host = HostComplexMatrix::from_fn(16, k, |r, col| {
            Complex::new(((r + col) % 7) as f32 - 3.0, (col % 5) as f32 - 2.0)
        });
        group.throughput(Throughput::Elements((16 * k) as u64));
        group.bench_with_input(BenchmarkId::new("pack_1bit", k), &k, |bench, _| {
            bench.iter(|| pack::pack(black_box(&host), 256))
        });
        let packed = pack::pack(&host, 256);
        group.bench_with_input(BenchmarkId::new("unpack_1bit", k), &k, |bench, _| {
            bench.iter(|| pack::unpack(black_box(&packed)))
        });
    }
    group.finish();
}

fn bench_transpose(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpose");
    // 2048 × 256 is the `fewbeam_int1` block: on a non-square power-of-two
    // shape the column stride of an untiled transpose aliases in the cache,
    // which the square cases hide.
    for &(rows, cols) in &[(128usize, 128usize), (512, 512), (2048, 256)] {
        let id = format!("{rows}x{cols}");
        let interleaved: Vec<f32> = (0..rows * cols * 2).map(|i| i as f32 * 1e-4).collect();
        group.throughput(Throughput::Elements((rows * cols) as u64));
        group.bench_with_input(
            BenchmarkId::new("interleaved_to_planar", &id),
            &id,
            |bench, _| {
                bench.iter(|| {
                    transpose::interleaved_to_planar(rows, cols, black_box(&interleaved)).unwrap()
                })
            },
        );
        let host = HostComplexMatrix::from_fn(rows, cols, |r, c| Complex::new(r as f32, c as f32));
        group.bench_with_input(
            BenchmarkId::new("matrix_transpose", &id),
            &id,
            |bench, _| bench.iter(|| black_box(&host).transposed()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_pack, bench_transpose
}
criterion_main!(benches);
