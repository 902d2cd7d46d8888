//! Store benches: WAL frame encode/decode, append throughput (with and
//! without segment rotation pressure), fsync'd sync cost, and full-store
//! replay/recovery throughput. Results land in `BENCH_report.json` with
//! every other bench.

use foundation::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use store::{decode_frame, encode_frame, replay, WalOptions, Writer};

/// A realistic record payload: the JSON rendering of one crawled offer
/// (~300 bytes — the store's payloads are opaque, so bytes are bytes).
fn sample_payload() -> Vec<u8> {
    let mut p = br#"{"marketplace":"FameSwap","offer_url":"http://fameswap.example/offer/"#
        .to_vec();
    p.extend_from_slice(b"123456");
    p.extend_from_slice(
        br#"","title":"IG fashion page, 27k real followers","seller":"igking","seller_country":"ID","price_usd":298.0,"platform":"Instagram","category":"fashion","claimed_followers":27431,"claims_verified":false,"monthly_revenue_usd":136.0,"income_source":"Google AdSense","description":"aged 2015, organic growth","collected_unix":1700000000,"iteration":2}"#,
    );
    p
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("acctrade-bench-store-{tag}-{}", std::process::id()))
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);

    let payload = sample_payload();
    eprintln!("[store] payload={} bytes/record", payload.len());

    // Frame codec micro-benches: the per-record floor of every append
    // and every replay.
    group.bench_function("frame_encode", |b| {
        let payload = payload.clone();
        b.iter(|| black_box(encode_frame(1, black_box(&payload))))
    });
    group.bench_function("frame_decode", |b| {
        let frame = encode_frame(1, &payload);
        b.iter(|| black_box(decode_frame(black_box(&frame))))
    });

    // Append throughput: 1,000 records per iteration, one fsync'd sync
    // at the end (the campaign's per-iteration pattern). The default
    // segment size never rotates at this volume; the 64 KiB variant
    // forces rotation every ~190 records to price the rotation path.
    const APPENDS: usize = 1_000;
    for (label, seg_bytes) in
        [("default_segment", WalOptions::default().segment_max_bytes), ("64k_segment", 64 << 10)]
    {
        group.bench_with_input(
            BenchmarkId::new("append_1k_then_sync", label),
            &seg_bytes,
            |b, &seg_bytes| {
                let dir = scratch(label);
                b.iter_with_setup(
                    // `Writer::create` wipes any previous chain, so each
                    // iteration starts from an empty store.
                    || Writer::create(&dir, WalOptions { segment_max_bytes: seg_bytes }).unwrap(),
                    |mut w| {
                        for _ in 0..APPENDS {
                            w.append(1, &payload).unwrap();
                        }
                        w.sync().unwrap();
                        black_box(w.total_records())
                    },
                );
                let _ = std::fs::remove_dir_all(&dir);
            },
        );
    }

    // Replay/recovery throughput: scan, CRC-check, and decode a 10,000
    // record chain (what `Study::resume_from_with_workers` pays before
    // continuing).
    const REPLAYED: usize = 10_000;
    let dir = scratch("replay");
    {
        let mut w = Writer::create(&dir, WalOptions { segment_max_bytes: 1 << 20 }).unwrap();
        for _ in 0..REPLAYED {
            w.append(1, &payload).unwrap();
        }
        w.sync().unwrap();
        let stats = w.stats();
        eprintln!(
            "[store] replay corpus: {} records, {} bytes, {} rotations",
            stats.records_appended, stats.bytes_appended, stats.segments_rotated
        );
    }
    group.bench_function("replay_10k_records", |b| {
        b.iter(|| {
            let (records, report) = replay(&dir).unwrap();
            assert_eq!(records.len(), REPLAYED);
            black_box(report.records_replayed)
        })
    });
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
