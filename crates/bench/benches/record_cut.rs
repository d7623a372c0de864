//! §2.1's cost claim: "the average cost of cutting a trace record is
//! fairly small (a small fraction of one micro second) for the first two
//! parts". This bench measures the *actual implementation* cost of the
//! buffer insertion path (enable test + encode in place) per record.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ute_core::event::EventCode;
use ute_core::time::LocalTime;
use ute_rawtrace::buffer::{TraceBuffer, TraceOptions};
use ute_rawtrace::record::DispatchPayload;

fn bench_cut(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_cut");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(1));
    let payload = DispatchPayload {
        thread: ute_core::ids::LogicalThreadId(3),
        cpu: ute_core::ids::CpuId(1),
    }
    .to_bytes();

    group.bench_function("cut_enabled", |b| {
        let mut buf = TraceBuffer::new(TraceOptions {
            buffer_size: 1 << 24,
            ..TraceOptions::default()
        });
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            buf.cut(EventCode::ThreadDispatch, LocalTime(t), &payload, false)
                .unwrap()
        })
    });

    group.bench_function("cut_disabled_class", |b| {
        let mut buf = TraceBuffer::new(
            TraceOptions::default().with_classes(&[ute_core::event::EventClass::Mpi]),
        );
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            buf.cut(EventCode::Syscall, LocalTime(t), &payload, false)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cut);
criterion_main!(benches);
