//! Parallel crawl-engine benches: campaign wall time at 1/2/4/8 workers
//! plus the deterministic schedule-speedup trajectory recorded into
//! `BENCH_report.json`.
//!
//! Wall time is hardware-dependent (a 1-core CI box cannot show an 8-way
//! speedup no matter how well the engine shards), so alongside the
//! measured wall stats this bench derives a machine-independent metric
//! from the engine's own shard lane durations: the makespan of greedy
//! longest-first list scheduling over the real per-shard virtual costs,
//! with the sequential discovery phase charged as the serial fraction.
//! That is the speedup an ideal scheduler (no worker idle while a shard
//! waits) extracts from this shard decomposition — the quantity the (marketplace, platform
//! chain) sharding was designed to maximise — and it is byte-stable
//! across runs, so the recorded trajectory is comparable over time.

use acctrade_bench::BENCH_SCALE;
use acctrade_crawler::schedule::CrawlCampaign;
use acctrade_crawler::steal;
use acctrade_net::client::Client;
use acctrade_net::sim::SimNet;
use acctrade_workload::world::{World, WorldParams};
use foundation::bench::{criterion_group, BenchmarkId, Criterion};
use foundation::json::Json;
use std::hint::black_box;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_crawl");
    group.sample_size(3);

    for workers in WORKER_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("campaign_wall", format!("workers={workers}")),
            &workers,
            |b, &workers| {
                b.iter_with_setup(
                    || {
                        let world = World::generate(WorldParams { seed: 41, scale: BENCH_SCALE });
                        let net = SimNet::new(41);
                        world.deploy(&net);
                        (world, net)
                    },
                    |(mut world, net)| {
                        let client = Client::new(&net, "acctrade-crawler/0.1")
                            .with_politeness(20.0, 8.0);
                        let mut campaign = CrawlCampaign::new(&client);
                        campaign.workers = workers;
                        black_box(campaign.run(&mut world, 2))
                    },
                )
            },
        );
    }
    group.finish();
}

/// Greedy longest-first list scheduling: the makespan `k` workers reach
/// over the given task durations.
fn lpt_makespan(durations: &[u64], k: usize) -> u64 {
    let mut sorted = durations.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut load = vec![0u64; k.max(1)];
    for d in sorted {
        let slot = load
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| **l)
            .map(|(i, _)| i)
            .unwrap_or(0);
        load[slot] += d;
    }
    load.into_iter().max().unwrap_or(0)
}

/// Measure the shard decomposition once and record the schedule-speedup
/// trajectory (serial discovery + LPT over real shard costs) into the
/// bench report, merging with the harness-written entries.
fn record_schedule_speedup() {
    let world = World::generate(WorldParams { seed: 41, scale: BENCH_SCALE });
    let net = SimNet::new(41);
    world.deploy(&net);
    let client = Client::new(&net, "acctrade-crawler/0.1").with_politeness(20.0, 8.0);
    let run = steal::run_iteration(&client, 0, 1, None);

    let discovery_us: u64 = run.discovery.iter().map(|(_, l)| l.clock().now_us() - l.start_us()).sum();
    let durations: Vec<u64> =
        run.outcomes.iter().map(|o| o.lane.clock().now_us() - o.lane.start_us()).collect();
    let total: u64 = durations.iter().sum();
    let serial = discovery_us + total;
    let largest = durations.iter().copied().max().unwrap_or(0);
    let ceiling = serial as f64 / (discovery_us + largest).max(1) as f64;

    let mut fields: Vec<(String, Json)> = vec![
        ("shards".into(), Json::Num(run.shards_total as f64)),
        ("serial_virtual_us".into(), Json::Num(serial as f64)),
        ("speedup_ceiling".into(), Json::Num(ceiling)),
    ];
    for k in WORKER_COUNTS {
        let makespan = discovery_us + lpt_makespan(&durations, k);
        let speedup = serial as f64 / makespan.max(1) as f64;
        eprintln!("[parallel_crawl] schedule speedup at {k} workers: {speedup:.2}x");
        fields.push((format!("schedule_speedup_{k}w"), Json::Num(speedup)));
    }

    let path = std::env::var("BENCH_REPORT_PATH")
        .unwrap_or_else(|_| "BENCH_report.json".to_string());
    let mut entries: Vec<(String, Json)> = match std::fs::read_to_string(&path) {
        Ok(existing) => match Json::parse(&existing) {
            Ok(Json::Obj(f)) => f,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    let id = "parallel_crawl/schedule_speedup".to_string();
    let value = Json::Obj(fields);
    match entries.iter_mut().find(|(k, _)| *k == id) {
        Some(slot) => slot.1 = value,
        None => entries.push((id, value)),
    }
    if let Err(err) = std::fs::write(&path, Json::Obj(entries).render_pretty() + "\n") {
        eprintln!("[bench] could not write {path}: {err}");
    }
}

criterion_group!(benches, bench_parallel_campaign);

fn main() {
    benches();
    // After the harness flushed its wall stats, merge in the
    // deterministic schedule-speedup trajectory.
    record_schedule_speedup();
}
