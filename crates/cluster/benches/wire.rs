//! Criterion benches of the wire codec: the per-message cost every
//! internal RPC pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pls_cluster::proto::{Request, Response};
use pls_core::Message;
use std::hint::black_box;

fn bench_request_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("request_encode");
    let small = Request::Add { key: b"song/stairway".to_vec(), entry: b"peer1:6699".to_vec() };
    let internal = Request::Internal {
        from: 3,
        key: b"song/stairway".to_vec(),
        spec: None,
        msg: Message::RrStore { v: b"peer1:6699".to_vec(), pos: 42 },
    };
    let entries: Vec<Vec<u8>> = (0..100).map(|i| format!("peer{i}:6699").into_bytes()).collect();
    let place = Request::Place { key: b"song/stairway".to_vec(), entries, spec: None };
    for (name, req) in [("add", &small), ("internal_rr_store", &internal), ("place_100", &place)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), req, |b, req| {
            b.iter(|| black_box(req.encode()))
        });
    }
    group.finish();
}

fn bench_request_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("request_decode");
    let entries: Vec<Vec<u8>> = (0..100).map(|i| format!("peer{i}:6699").into_bytes()).collect();
    let reqs = [
        ("add", Request::Add { key: b"k".to_vec(), entry: b"peer1:6699".to_vec() }),
        ("place_100", Request::Place { key: b"k".to_vec(), entries, spec: None }),
    ];
    for (name, req) in reqs {
        let payload = req.encode();
        group.bench_with_input(BenchmarkId::from_parameter(name), &payload, |b, payload| {
            b.iter(|| black_box(Request::decode(payload).expect("valid")))
        });
    }
    group.finish();
}

fn bench_response_roundtrip(c: &mut Criterion) {
    let entries: Vec<Vec<u8>> = (0..50).map(|i| format!("peer{i}:6699").into_bytes()).collect();
    let resp = Response::Entries(entries);
    c.bench_function("response_entries_50_roundtrip", |b| {
        b.iter(|| {
            let payload = resp.encode();
            black_box(Response::decode(&payload).expect("valid"))
        })
    });
}

criterion_group!(benches, bench_request_encode, bench_request_decode, bench_response_roundtrip);
criterion_main!(benches);
