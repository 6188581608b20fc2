//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! QoE evaluation, the offline drop-tolerance analysis, the wire codec,
//! RangeSet ACK tracking, CUBIC, and a complete end-to-end streaming
//! trial. End-to-end and per-layer numbers that gate changes come from
//! `perfbench/` (see `BENCHMARK.json`).
//!
//! ```sh
//! cargo bench -p voxel-bench --bench micro
//! VOXEL_BENCH_FAST=1 cargo bench -p voxel-bench --bench micro   # CI smoke
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use voxel_media::content::VideoId;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::{LossMap, QoeModel};
use voxel_media::video::Video;
use voxel_prep::analysis::BytesQoeMap;
use voxel_prep::manifest::Manifest;
use voxel_prep::ordering::OrderingKind;

fn bench_qoe_eval(c: &mut Criterion) {
    let video = Video::generate(VideoId::Bbb);
    let model = QoeModel::default();
    let seg = &video.segments[10];
    let loss = LossMap::drop_frames(&[5, 17, 29, 41, 53, 65, 77, 89]);
    c.bench_function("qoe_eval_segment", |b| {
        b.iter(|| black_box(model.eval(seg, QualityLevel::MAX, &loss)))
    });
}

fn bench_prep_analysis(c: &mut Criterion) {
    let video = Video::generate(VideoId::Bbb);
    let model = QoeModel::default();
    let seg = &video.segments[10];
    c.bench_function("bytes_qoe_map_one_ordering", |b| {
        b.iter(|| {
            black_box(BytesQoeMap::compute(
                &model,
                seg,
                QualityLevel::MAX,
                OrderingKind::InboundRank,
            ))
        })
    });
}

fn bench_video_generation(c: &mut Criterion) {
    c.bench_function("video_generate", |b| {
        b.iter(|| black_box(Video::generate(VideoId::Tos)))
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    use voxel_quic::{Frame, Packet, StreamId};
    let pkt = Packet::new(
        123_456,
        vec![
            Frame::Ack {
                ranges: vec![(100, 200), (50, 80), (0, 20)],
                delay_us: 11_000,
            },
            Frame::Stream {
                id: StreamId(8),
                offset: 1 << 20,
                fin: false,
                unreliable: true,
                data: bytes::Bytes::from(vec![0xab; 1200]),
            },
        ],
    );
    c.bench_function("packet_encode", |b| b.iter(|| black_box(pkt.encode())));
    let encoded = pkt.encode();
    c.bench_function("packet_decode", |b| {
        b.iter(|| black_box(Packet::decode(encoded.clone()).expect("valid")))
    });
}

fn bench_rangeset(c: &mut Criterion) {
    use voxel_quic::range::RangeSet;
    // ACK tracking: 1024 scattered inserts over a 60 kB window, then 1024
    // membership probes and the covered/prefix/gap queries.
    c.bench_function("rangeset_ack_tracking", |b| {
        b.iter(|| {
            let mut rs = RangeSet::new();
            for i in 0..1024u64 {
                let start = (i * 7919) % 60_000;
                rs.insert(start, start + 1200);
            }
            let hits = (0..1024u64)
                .filter(|i| rs.contains((i * 104_729) % 60_000))
                .count() as u64;
            black_box(hits + rs.covered_len() + rs.prefix_len() + rs.gaps(60_000).len() as u64)
        })
    });
}

fn bench_cubic(c: &mut Criterion) {
    use voxel_quic::cubic::Cubic;
    use voxel_sim::{SimDuration, SimTime};
    c.bench_function("cubic_ack_step", |b| {
        let mut cubic = Cubic::new(1350);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            cubic.on_sent(1350);
            cubic.on_ack(
                SimTime::from_micros(t * 500),
                1350,
                SimDuration::from_millis(60),
            );
            black_box(cubic.cwnd())
        })
    });
}

fn bench_end_to_end_trial(c: &mut Criterion) {
    use voxel_core::client::{PlayerConfig, TransportMode};
    use voxel_core::session::Session;
    use voxel_netem::{BandwidthTrace, PathConfig};

    let video = Arc::new(Video::generate(VideoId::Bbb));
    let qoe = QoeModel::default();
    let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[QualityLevel::MAX]));
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("voxel_trial_constant_10mbps", |b| {
        b.iter(|| {
            let session = Session::new(
                PathConfig::new(BandwidthTrace::constant(10.0, 600), 32),
                manifest.clone(),
                video.clone(),
                qoe.clone(),
                Box::new(voxel_abr::AbrStar::default()),
                PlayerConfig::new(3, TransportMode::Split),
            );
            black_box(session.run())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_qoe_eval,
    bench_prep_analysis,
    bench_video_generation,
    bench_wire_codec,
    bench_rangeset,
    bench_cubic,
    bench_end_to_end_trial
);
criterion_main!(benches);
