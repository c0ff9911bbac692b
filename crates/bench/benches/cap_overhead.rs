//! Per-capability processing cost: the microbenchmark behind the §5
//! "capability overhead is small" claim and `ohpc-bench overhead`.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ohpc_bench::overhead::standard_chains;
use ohpc_bench::setup::EXPERIMENT_KEY;
use ohpc_crypto::KeyStore;
use ohpc_orb::capability::{process_chain, unprocess_chain, CallInfo};
use ohpc_orb::{CapabilityRegistry, Direction, ObjectId, RequestId};

fn registry() -> Arc<CapabilityRegistry> {
    let reg = CapabilityRegistry::new();
    let mut keys = KeyStore::new();
    keys.add_key(EXPERIMENT_KEY, b"open-hpc++-experiment-psk");
    ohpc_caps::register_standard(&reg, keys);
    Arc::new(reg)
}

fn bench_caps(c: &mut Criterion) {
    let reg = registry();
    let call = CallInfo { object: ObjectId(1), method: 1, request_id: RequestId(1) };

    for (label, specs) in standard_chains() {
        let chain = reg.build_chain(&specs).unwrap();
        let mut group = c.benchmark_group(format!("cap_{label}"));
        for &n in &[1024usize, 65_536] {
            let body: Bytes = (0..n)
                .map(|i| if i % 4 == 3 { (i % 97) as u8 } else { 0 })
                .collect::<Vec<_>>()
                .into();
            group.throughput(Throughput::Bytes(n as u64));
            group.bench_with_input(BenchmarkId::from_parameter(n), &body, |b, body| {
                b.iter(|| {
                    let (wire, metas) =
                        process_chain(&chain, Direction::Request, &call, body.clone()).unwrap();
                    let back = unprocess_chain(&chain, Direction::Request, &call, &metas, wire)
                        .unwrap();
                    std::hint::black_box(back)
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_caps);
criterion_main!(benches);
