//! # e2ebench — the acctrade end-to-end study benchmark
//!
//! One command runs a named workload from a seed, checks the program's
//! outputs, and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-study --seed 7 --seconds 15 --trace 0
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics ([`END_TO_END`]) with
//!   no benchmark timing in the program's path (the loopback transport
//!   probe only counts sends and errors): the workload
//!   repeats until `--seconds` of pipeline time were measured. Every
//!   timed window is divided by the calibration gauges around it
//!   ([`calib`]), and medians are reported.
//! * `--trace 1` runs the workload once plainly and once traced, then
//!   splits wall time across the layers ([`PER_LAYER`]) from outside:
//!   by timing calls into each layer's public functions from this
//!   crate, and by reading the stage table each run already writes
//!   (`telemetry::manifest::StageReport`). It fails when the layers do
//!   not account for the measured time within [`CLOSURE_BOUND`].
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

pub mod calib;
mod layers;
mod loopback;
mod paper;
mod resume;
pub mod sys;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Study::run_on`, the whole paper pipeline, on the sim fabric.
    PaperStudy,
    /// The crawl campaign alone over loopback TCP against `acctrade-httpd`.
    LoopbackCrawl,
    /// A persisted economy study killed mid-campaign, then resumed.
    ResumeEconomy,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperStudy,
        Workload::LoopbackCrawl,
        Workload::ResumeEconomy,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStudy => "paper-study",
            Workload::LoopbackCrawl => "loopback-crawl",
            Workload::ResumeEconomy => "resume-economy",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sizes a workload runs at.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// World scale (1.0 = the paper's 38,253 listings).
    pub scale: f64,
    /// Crawl-campaign iterations.
    pub iterations: usize,
    /// Crawl-engine workers (and loopback server workers).
    pub workers: usize,
    /// Iterations after which `resume-economy` kills its first run.
    pub kill_after: usize,
    /// Set-up batches per run (`setup_s` is the median of their means).
    pub setups: usize,
    /// Upper bound on pipeline repetitions in one `--trace 0` run.
    pub max_reps: usize,
    /// Offer pages replayed through the fabric for the per-layer
    /// dispatch, HTML-parse and extraction timings.
    pub replay_offers: usize,
    /// Rounds of each repeated per-layer timing (the telemetry-cost
    /// crawls and the text steps); the fastest round counts.
    pub rounds: usize,
    /// Run every thread of the process on one CPU. On `loopback-crawl`
    /// each request wakes a thread on the other side of a socket; on a
    /// shared VM, waking an idle virtual CPU waits for the host, and that
    /// wait grows and shrinks with the host's load. On one CPU a wake-up
    /// is a local switch, and wall time is the request path's own work.
    pub one_cpu: bool,
}

impl Plan {
    /// The plan a workload runs at; `quick` shrinks every workload to a
    /// tiny scale for the benchmark's own tests.
    pub fn new(workload: Workload, quick: bool) -> Plan {
        let base = Plan {
            scale: 1.0,
            iterations: 10,
            workers: 2,
            kill_after: 5,
            setups: 9,
            max_reps: 64,
            replay_offers: 2000,
            rounds: 3,
            one_cpu: false,
        };
        let plan = match workload {
            Workload::PaperStudy => Plan { scale: 0.1, ..base },
            Workload::LoopbackCrawl => Plan {
                scale: 0.1,
                one_cpu: true,
                ..base
            },
            Workload::ResumeEconomy => Plan { scale: 0.05, ..base },
        };
        if quick {
            Plan {
                scale: 0.01,
                iterations: 2,
                kill_after: 1,
                setups: 2,
                max_reps: 2,
                replay_offers: 40,
                rounds: 1,
                ..plan
            }
        } else {
            plan
        }
    }
}

/// Everything one benchmark run needs.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Pipeline seconds to measure (`--trace 0`).
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end measurement.
    pub trace: bool,
    /// Sizes.
    pub plan: Plan,
    /// Scratch directory for stores and cached references.
    pub work_dir: PathBuf,
}

/// How far the per-layer attribution may miss the measured time, as a
/// share of it, before the traced run fails.
pub const CLOSURE_BOUND: f64 = 0.15;

/// Unit and direction of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics (`--trace 0`), every workload.
pub const END_TO_END: &[MetricSpec] = &[
    spec("setup_s", "s", "lower"),
    spec("study_s", "s", "lower"),
    spec("cpu_s", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (`--trace 1`), every workload. A layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    spec("workload.generate_s", "s", "lower"),
    spec("market.deploy_s", "s", "lower"),
    spec("stage.deploy_s", "s", "lower"),
    spec("stage.crawl_campaign_s", "s", "lower"),
    spec("stage.resolve_profiles_s", "s", "lower"),
    spec("stage.underground_collection_s", "s", "lower"),
    spec("stage.moderation_s", "s", "lower"),
    spec("stage.efficacy_requery_s", "s", "lower"),
    spec("stage.analysis_s", "s", "lower"),
    spec("unattributed_s", "s", "lower"),
    spec("crawler.pages", "count", "lower"),
    spec("crawler.offers", "count", "higher"),
    spec("crawler.fetch_errors", "count", "lower"),
    spec("crawler.offers_per_page", "ratio", "higher"),
    spec("crawler.pages_per_s", "1/s", "higher"),
    spec("crawler.extract_us_p50", "us", "lower"),
    spec("net.requests", "count", "lower"),
    spec("net.retries", "count", "lower"),
    spec("net.captcha", "count", "lower"),
    spec("net.robots_denied", "count", "lower"),
    spec("net.dispatch_us_p50", "us", "lower"),
    spec("net.dispatch_us_p99", "us", "lower"),
    spec("html.parse_us_p50", "us", "lower"),
    spec("social.api_calls", "count", "lower"),
    spec("social.api_nonok", "count", "lower"),
    spec("text.docs_distinct", "count", "lower"),
    spec("text.docs_english", "count", "lower"),
    spec("text.dedup_s", "s", "lower"),
    spec("text.langdetect_s", "s", "lower"),
    spec("text.embed_s", "s", "lower"),
    spec("text.reduce_s", "s", "lower"),
    spec("text.cluster_s", "s", "lower"),
    spec("text.keywords_s", "s", "lower"),
    spec("core.scamposts_s", "s", "lower"),
    spec("core.network_s", "s", "lower"),
    spec("core.tables_s", "s", "lower"),
    spec("core.economy_s", "s", "lower"),
    spec("store.replay_s", "s", "lower"),
    spec("store.records_replayed", "count", "lower"),
    spec("store.bytes_replayed", "bytes", "lower"),
    spec("store.append_s", "s", "lower"),
    spec("store.sync_s", "s", "lower"),
    spec("store.records", "count", "lower"),
    spec("store.bytes", "bytes", "lower"),
    spec("store.segments_rotated", "count", "lower"),
    spec("economy.events", "count", "lower"),
    spec("httpd.requests", "count", "lower"),
    spec("httpd.accepted", "count", "lower"),
    spec("httpd.keepalive_reuse_ratio", "ratio", "higher"),
    spec("httpd.parse_rejects", "count", "lower"),
    spec("httpd.timeouts", "count", "lower"),
    spec("httpd.queue_rejected", "count", "lower"),
    spec("httpd.queue_high_water", "count", "lower"),
    spec("transport.send_us_p50", "us", "lower"),
    spec("transport.send_us_p99", "us", "lower"),
    spec("transport.busy_share", "ratio", "lower"),
    spec("telemetry.snapshot_ms", "ms", "lower"),
    spec("telemetry.manifest_ms", "ms", "lower"),
    spec("telemetry.cost_pct", "%", "lower"),
    spec("telemetry.sink_cost_pct", "%", "lower"),
    spec("foundation.dataset_json_s", "s", "lower"),
    spec("foundation.dataset_json_mb", "MB", "lower"),
    spec("trace.overhead_pct", "%", "lower"),
];

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Operations attempted and failed (the `error_ratio` numerator and
/// denominator).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Page fetches, API calls and (on loopback) transport sends.
    pub attempted: u64,
    /// Fetch and transport errors, httpd rejects, timeouts and queue
    /// rejections.
    pub failed: u64,
}

/// A named output digest a run must reproduce.
pub(crate) type Digest = (&'static str, String);

/// One execution of a workload's pipeline.
pub(crate) struct Rep {
    /// Wall seconds from the first pipeline call to the finished output.
    pub study_s: f64,
    /// CPU seconds over the same window.
    pub cpu_s: f64,
    /// Operations inside the window.
    pub ops: Ops,
    /// Output digests, compared against the seed's reference.
    pub digests: Vec<Digest>,
    /// Structural check failures.
    pub problems: Vec<String>,
    /// Per-layer values (traced reps only).
    pub layers: layers::Layers,
}

/// What a benchmark run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (all of a run's operations when its check failed).
    pub failed: u64,
    /// The metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// The samples each timing median was taken over, in run order.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
}

/// Run one workload as `opts` says.
pub fn run(opts: &Opts) -> Outcome {
    std::fs::create_dir_all(&opts.work_dir).ok();
    let mut problems = Vec::new();
    if opts.plan.one_cpu && sys::pin_to_one_cpu().is_none() {
        eprintln!("e2ebench: could not pin the run to one CPU; its wall times will be noisier");
    }
    let mut reps = Vec::new();
    let (metrics, samples) = if opts.trace {
        let plain = execute(opts, false);
        let mut traced = execute(opts, true);
        let mut layers = std::mem::take(&mut traced.layers);
        layers.set(
            "trace.overhead_pct",
            100.0 * (traced.study_s / plain.study_s - 1.0),
        );
        problems.extend(layers.closure_problems(traced.study_s));
        let samples = vec![("study_s", vec![plain.study_s, traced.study_s])];
        reps.push(plain);
        reps.push(traced);
        (layers.into_metrics(), samples)
    } else {
        // Every timed window sits between two gauges of the host's speed;
        // each window is divided by the mean of its two gauges.
        let cpus = if opts.plan.one_cpu { 1 } else { opts.plan.workers };
        let calibrator = calib::Calibrator::new(cpus);
        let mut gauges = vec![calibrator.gauge()];
        let mut setups = Vec::new();
        let mut setup_gauges = Vec::new();
        while setups.len() < opts.plan.setups {
            setups.push(setup_batch(opts));
            let after = calibrator.gauge();
            setup_gauges.push(calib::Gauge::mean(gauges[gauges.len() - 1], after));
            gauges.push(after);
        }
        let mut rep_gauges = Vec::new();
        let mut measured = 0.0;
        while reps.is_empty() || (measured < opts.seconds && reps.len() < opts.plan.max_reps) {
            let rep = execute(opts, false);
            let after = calibrator.gauge();
            rep_gauges.push(calib::Gauge::mean(gauges[gauges.len() - 1], after));
            gauges.push(after);
            measured += rep.study_s;
            reps.push(rep);
        }
        let peak_rss_mb = sys::usage().peak_rss_mb;
        let study: Vec<f64> = reps.iter().map(|r| r.study_s).collect();
        let cpu: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
        let norm = |xs: &[f64], gs: &[calib::Gauge], cpu: bool| -> f64 {
            let ratios: Vec<f64> = xs
                .iter()
                .zip(gs)
                .map(|(x, g)| x / if cpu { g.cpu_s } else { g.wall_s })
                .collect();
            median(&ratios) * calib::REFERENCE_S
        };
        let metrics = vec![
            metric("setup_s", norm(&setups, &setup_gauges, false)),
            metric("study_s", norm(&study, &rep_gauges, false)),
            metric("cpu_s", norm(&cpu, &rep_gauges, true)),
            metric("peak_rss_mb", peak_rss_mb),
        ];
        (
            metrics,
            vec![
                ("setup_s", setups),
                ("study_s", study),
                ("cpu_s", cpu),
                ("gauge_wall_s", gauges.iter().map(|g| g.wall_s).collect()),
                ("gauge_cpu_s", gauges.iter().map(|g| g.cpu_s).collect()),
            ],
        )
    };

    let reference = reference_digests(opts, &reps[0].digests);
    let mut attempted = 0;
    let mut failed = 0;
    for (i, rep) in reps.iter_mut().enumerate() {
        for (key, value) in &rep.digests {
            match reference.iter().find(|(k, _)| k == key) {
                Some((_, want)) if want == value => {}
                Some((_, want)) => rep.problems.push(format!(
                    "{key} digest {value} differs from the seed's reference {want}"
                )),
                None => rep.problems.push(format!("{key} digest has no reference")),
            }
        }
        attempted += rep.ops.attempted;
        failed += if rep.problems.is_empty() {
            rep.ops.failed
        } else {
            rep.ops.attempted
        };
        problems.extend(rep.problems.iter().map(|p| format!("run {i}: {p}")));
    }
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not a finite number", m.name));
    }
    if !problems.is_empty() {
        failed = attempted;
    }
    Outcome {
        correct: problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        samples,
        problems,
    }
}

fn execute(opts: &Opts, traced: bool) -> Rep {
    match opts.workload {
        Workload::PaperStudy => paper::execute(opts, traced),
        Workload::LoopbackCrawl => loopback::execute(opts, traced),
        Workload::ResumeEconomy => resume::execute(opts, traced),
    }
}

fn setup_sample(opts: &Opts) -> f64 {
    match opts.workload {
        Workload::PaperStudy | Workload::ResumeEconomy => layers::fresh_world(opts).setup_s(),
        Workload::LoopbackCrawl => loopback::setup_sample(opts),
    }
}

/// Wall seconds of set-ups one batch runs: many set-ups at the small
/// scales, so the batch mean is steady, and about as long as the gauges
/// around it.
const SETUP_BATCH_S: f64 = 0.5;

/// Mean seconds of the set-ups run back to back in one batch.
fn setup_batch(opts: &Opts) -> f64 {
    let start = Instant::now();
    let mut total = 0.0;
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
        total += setup_sample(opts);
        n += 1;
    }
    total / n as f64
}

/// The digests every run of this seed must reproduce. They are computed
/// once per seed and build, outside any timed window, and cached in the
/// work directory; `paper-study` adopts its first run's digests, so
/// later runs of the seed must repeat them.
fn reference_digests(opts: &Opts, first: &[Digest]) -> Vec<(String, String)> {
    let plan = &opts.plan;
    let file = opts.work_dir.join("refs").join(format!(
        "{}-seed{}-scale{}-it{}-w{}-{}.txt",
        opts.workload.name(),
        opts.seed,
        plan.scale,
        plan.iterations,
        plan.workers,
        build_id()
    ));
    if let Ok(text) = std::fs::read_to_string(&file) {
        let cached: Vec<(String, String)> = text
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if !cached.is_empty() {
            return cached;
        }
    }
    let computed = match opts.workload {
        Workload::PaperStudy => first.to_vec(),
        Workload::LoopbackCrawl => loopback::reference(opts),
        Workload::ResumeEconomy => resume::reference(opts),
    };
    let computed: Vec<(String, String)> = computed
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let text: String = computed.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    // Write-then-rename so concurrent runs never read a torn file.
    let tmp = file.with_extension(format!("tmp{}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() {
        std::fs::rename(&tmp, &file).ok();
    }
    computed
}

/// A digest of the running executable, so cached references never
/// outlive the build that produced them.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| format!("{:016x}", fnv1a(&bytes)))
        .unwrap_or_else(|_| "nobuild".into())
}

/// 64-bit FNV-1a.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of a text artifact.
pub(crate) fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

pub(crate) fn metric(name: &'static str, value: f64) -> Metric {
    let spec = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
    Metric {
        name,
        value,
        unit: spec.unit,
    }
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` in [0, 1]; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Seconds `f` took, with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// The run's provenance, one JSON object.
pub fn provenance(opts: &Opts, root: &Path) -> String {
    let p = &opts.plan;
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"scale\": {}, \"iterations\": {}, \"workers\": {}, \
         \"kill_after\": {}, \"one_cpu\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"commit\": \"{}\"}}",
        opts.workload.name(),
        opts.seed,
        p.scale,
        p.iterations,
        p.workers,
        p.kill_after,
        p.one_cpu,
        opts.seconds,
        u8::from(opts.trace),
        sys::nproc(),
        sys::available_parallelism(),
        sys::git_commit(root),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
}
