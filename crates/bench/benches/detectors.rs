//! Detector kernels: training and scoring throughput for each of the
//! four detector families (PERF experiment of DESIGN.md).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use detdiv_bench::small_corpus;
use detdiv_core::{LabeledCase, SequenceAnomalyDetector};
use detdiv_eval::DetectorKind;
use detdiv_sequence::StreamProfile;

fn kinds() -> Vec<DetectorKind> {
    vec![
        DetectorKind::Stide,
        DetectorKind::TStide,
        DetectorKind::Markov,
        DetectorKind::LaneBrodley,
        DetectorKind::neural_default(),
    ]
}

fn bench_training(c: &mut Criterion) {
    let corpus = small_corpus();
    let training = corpus.training();
    let mut group = c.benchmark_group("train");
    group.throughput(Throughput::Elements(training.len() as u64));
    group.sample_size(10);
    for kind in kinds() {
        group.bench_with_input(
            BenchmarkId::new(kind.name(), training.len()),
            &kind,
            |b, kind| {
                b.iter_batched(
                    || kind.build(6),
                    |mut det| det.train(&StreamProfile::new(training)),
                    BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let corpus = small_corpus();
    let case = corpus.case(4, 6).expect("case in grid");
    let test = case.test_stream();
    let mut group = c.benchmark_group("score");
    group.throughput(Throughput::Elements(test.len() as u64));
    group.sample_size(10);
    for kind in kinds() {
        let mut det = kind.build(6);
        det.train(&StreamProfile::new(corpus.training()));
        group.bench_function(BenchmarkId::new(kind.name(), test.len()), |b| {
            b.iter(|| det.scores(test));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_training, bench_scoring);
criterion_main!(benches);
