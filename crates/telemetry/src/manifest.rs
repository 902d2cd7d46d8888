//! The exportable run manifest (`TELEMETRY_report.json`).
//!
//! A [`RunManifest`] is the auditable record of one pipeline run: the
//! seed, a digest of the configuration, per-stage timings on both clocks,
//! every counter/gauge/histogram, the crawl-provenance table (pages and
//! offers per marketplace), the per-platform API outcome tallies, and the
//! retained events.
//!
//! **Determinism contract:** every field except the `wall_*` ones is a
//! pure function of the seed. [`RunManifest::deterministic_json`] strips
//! the wall fields, and the determinism suite asserts two same-seed runs
//! render that view byte-identically.

use crate::journal::Event;
use crate::metrics::{fnv1a64, Histogram, Key};
use crate::recorder::Recorder;
use foundation::json::{Json, JsonCodec};
use foundation::json_codec_struct;

/// Manifest schema identifier.
pub(crate) const SCHEMA: &str = "acctrade-telemetry/v1";

/// Default manifest file name.
pub const REPORT_FILE: &str = "TELEMETRY_report.json";

/// One pipeline stage (a finished top-level or nested span).
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Slash-joined span path.
    pub path: String,
    /// Nesting depth.
    pub depth: usize,
    /// Virtual time at stage start (µs since epoch).
    pub virtual_start_us: u64,
    /// Virtual duration (µs).
    pub virtual_us: u64,
    /// Wall-clock duration (ms) — excluded from the deterministic view.
    pub wall_ms: f64,
}

/// One counter entry (canonical key → value).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEntry {
    /// Canonical key (`net.requests{host=x.com,status=200}`).
    pub key: String,
    /// Count.
    pub value: u64,
}

/// One gauge entry.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeEntry {
    /// Canonical key.
    pub key: String,
    /// Last value set.
    pub value: f64,
}

/// Summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramReport {
    /// Canonical key.
    pub key: String,
    /// Samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Median (log-bucket resolution).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Crawl provenance for one marketplace.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlStat {
    /// Marketplace name.
    pub marketplace: String,
    /// Pages fetched.
    pub pages: u64,
    /// Offers collected.
    pub offers: u64,
    /// Fetch errors.
    pub fetch_errors: u64,
    /// Offers that answered 410 Gone.
    pub gone_offers: u64,
}

/// API outcome tally for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiStat {
    /// Platform name.
    pub platform: String,
    /// Outcome label (`ok`, `forbidden`, `not_found`, `bad_request`).
    pub outcome: String,
    /// Calls with this outcome.
    pub calls: u64,
}

/// The run manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Run label (`study`, `quickstart`).
    pub run: String,
    /// Seed the run derives from.
    pub seed: u64,
    /// FNV-1a digest of the rendered configuration.
    pub config_digest: String,
    /// Virtual time when the earliest stage started (µs since epoch).
    pub virtual_start_us: u64,
    /// Virtual time at export (µs since epoch).
    pub virtual_end_us: u64,
    /// Wall-clock ms since the recorder was created — excluded from the
    /// deterministic view.
    pub wall_ms: f64,
    /// Stage timing table.
    pub stages: Vec<StageReport>,
    /// All counters, sorted by key.
    pub counters: Vec<CounterEntry>,
    /// All gauges, sorted by key.
    pub gauges: Vec<GaugeEntry>,
    /// All histogram summaries, sorted by key.
    pub histograms: Vec<HistogramReport>,
    /// Per-marketplace crawl provenance.
    pub crawl: Vec<CrawlStat>,
    /// Per-platform × outcome API tallies.
    pub api: Vec<ApiStat>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

json_codec_struct! {
    StageReport { name, path, depth, virtual_start_us, virtual_us, wall_ms }
    CounterEntry { key, value }
    GaugeEntry { key, value }
    HistogramReport { key, count, sum, min, max, p50, p90, p99 }
    CrawlStat { marketplace, pages, offers, fetch_errors, gone_offers }
    ApiStat { platform, outcome, calls }
    RunManifest {
        schema, run, seed, config_digest, virtual_start_us, virtual_end_us,
        wall_ms, stages, counters, gauges, histograms, crawl, api, events,
    }
}

/// 16-hex-digit FNV-1a digest of a string (config fingerprints).
pub fn digest64(s: &str) -> String {
    format!("{:016x}", fnv1a64(s.as_bytes()))
}

fn histogram_report(key: &Key, h: &Histogram) -> HistogramReport {
    // An empty histogram (possible after a checkpoint restore inserts a
    // merged-but-never-observed key) has no defined min or quantiles;
    // export an explicit all-zero row rather than sentinel garbage.
    if h.count() == 0 {
        return HistogramReport {
            key: key.render(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p99: 0,
        };
    }
    HistogramReport {
        key: key.render(),
        count: h.count(),
        sum: h.sum(),
        min: h.min(),
        max: h.max(),
        p50: h.quantile(0.50),
        p90: h.quantile(0.90),
        p99: h.quantile(0.99),
    }
}

impl Recorder {
    /// Export everything this recorder saw as a [`RunManifest`].
    pub fn manifest(&self, run: &str, seed: u64, config_digest: &str) -> RunManifest {
        let counters = self.counters();
        let stages: Vec<StageReport> = self
            .finished_spans()
            .into_iter()
            .map(|s| StageReport {
                name: s.name.clone(),
                path: s.path.clone(),
                depth: s.depth,
                virtual_start_us: s.virtual_start_us,
                virtual_us: s.virtual_us(),
                wall_ms: s.wall_ns as f64 / 1e6,
            })
            .collect();
        let virtual_start_us = stages
            .iter()
            .map(|s| s.virtual_start_us)
            .min()
            .unwrap_or_else(|| self.virtual_now());

        // Crawl provenance, keyed by the `marketplace` label on the
        // crawler's counters.
        let mut marketplaces: Vec<String> = counters
            .keys()
            .filter(|k| k.name.starts_with("crawl."))
            .filter_map(|k| k.label("marketplace"))
            .map(str::to_string)
            .collect();
        marketplaces.sort();
        marketplaces.dedup();
        let mlabel = |name: &str, m: &str| {
            self.counter(name, &[("marketplace", m)])
        };
        let crawl: Vec<CrawlStat> = marketplaces
            .iter()
            .map(|m| CrawlStat {
                marketplace: m.clone(),
                pages: mlabel("crawl.pages", m),
                offers: mlabel("crawl.offers", m),
                fetch_errors: mlabel("crawl.fetch_errors", m),
                gone_offers: mlabel("crawl.gone_offers", m),
            })
            .collect();

        // API outcome tallies, keyed off `api.calls{platform,outcome}`.
        let api: Vec<ApiStat> = counters
            .iter()
            .filter(|(k, _)| k.name == "api.calls")
            .filter_map(|(k, &v)| {
                Some(ApiStat {
                    platform: k.label("platform")?.to_string(),
                    outcome: k.label("outcome")?.to_string(),
                    calls: v,
                })
            })
            .collect();

        RunManifest {
            schema: SCHEMA.to_string(),
            run: run.to_string(),
            seed,
            config_digest: config_digest.to_string(),
            virtual_start_us,
            virtual_end_us: self.virtual_now(),
            wall_ms: self.wall_elapsed_ms(),
            stages,
            counters: counters
                .iter()
                .map(|(k, &v)| CounterEntry { key: k.render(), value: v })
                .collect(),
            gauges: self
                .gauges()
                .iter()
                .map(|(k, &v)| GaugeEntry { key: k.render(), value: v })
                .collect(),
            histograms: self
                .histograms()
                .iter()
                .map(|(k, h)| histogram_report(k, h))
                .collect(),
            crawl,
            api,
            events: self.events(),
        }
    }
}

/// Strip every `wall_*` key from a JSON tree (recursively) — the one
/// normalization every deterministic comparison in the workspace uses.
///
/// The determinism contract names wall-clock fields with a `wall_`
/// prefix precisely so this pass can erase them mechanically; anything
/// left after normalization must be a pure function of the seed.
/// [`RunManifest::deterministic_json`], the determinism/parity test
/// suites, and the `validate_manifest` stability checks all route
/// through here rather than re-implementing the filter.
pub fn normalize_for_determinism(v: &Json) -> Json {
    match v {
        Json::Obj(entries) => Json::Obj(
            entries
                .iter()
                .filter(|(k, _)| !k.starts_with("wall_"))
                .map(|(k, val)| (k.clone(), normalize_for_determinism(val)))
                .collect(),
        ),
        Json::Arr(items) => {
            Json::Arr(items.iter().map(normalize_for_determinism).collect())
        }
        other => other.clone(),
    }
}

impl RunManifest {
    /// Compact JSON.
    pub fn to_json_string(&self) -> String {
        foundation::json::to_string(self)
    }

    /// Pretty JSON (the on-disk `TELEMETRY_report.json` format).
    pub fn to_json_pretty(&self) -> String {
        foundation::json::to_string_pretty(self)
    }

    /// Parse a manifest back from JSON text.
    pub fn parse(text: &str) -> Result<RunManifest, foundation::json::JsonError> {
        foundation::json::from_str(text)
    }

    /// The manifest minus every `wall_*` field — byte-identical across
    /// same-seed runs.
    pub fn deterministic_json(&self) -> Json {
        normalize_for_determinism(&self.to_json())
    }

    /// Pretty rendering of [`RunManifest::deterministic_json`].
    pub fn deterministic_string(&self) -> String {
        self.deterministic_json().render_pretty()
    }

    /// Structural sanity checks (the CI validator gate).
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("unknown schema {:?}", self.schema));
        }
        if self.run.is_empty() {
            return Err("empty run label".into());
        }
        if self.config_digest.len() != 16
            || !self.config_digest.bytes().all(|b| b.is_ascii_hexdigit())
        {
            return Err(format!("malformed config digest {:?}", self.config_digest));
        }
        if self.virtual_end_us < self.virtual_start_us {
            return Err("virtual_end_us precedes virtual_start_us".into());
        }
        if self.stages.is_empty() {
            return Err("no stages recorded".into());
        }
        if self.counters.is_empty() {
            return Err("no counters recorded".into());
        }
        Ok(())
    }

    /// Render the per-stage timing table (virtual + wall columns).
    pub fn render_stage_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>14} {:>12}\n",
            "stage", "virtual", "wall"
        ));
        out.push_str(&format!("{}\n", "-".repeat(68)));
        for s in &self.stages {
            let label = format!("{}{}", "  ".repeat(s.depth), s.name);
            out.push_str(&format!(
                "{:<40} {:>14} {:>12}\n",
                label,
                format_virtual(s.virtual_us),
                format!("{:.1} ms", s.wall_ms),
            ));
        }
        out.push_str(&format!(
            "{:<40} {:>14} {:>12}\n",
            "total",
            format_virtual(self.virtual_end_us.saturating_sub(self.virtual_start_us)),
            format!("{:.1} ms", self.wall_ms),
        ));
        out
    }
}

/// Human-format a virtual duration in microseconds.
pub(crate) fn format_virtual(us: u64) -> String {
    const SECOND: u64 = 1_000_000;
    const MINUTE: u64 = 60 * SECOND;
    const HOUR: u64 = 60 * MINUTE;
    const DAY: u64 = 24 * HOUR;
    if us >= DAY {
        format!("{:.1} d", us as f64 / DAY as f64)
    } else if us >= HOUR {
        format!("{:.1} h", us as f64 / HOUR as f64)
    } else if us >= MINUTE {
        format!("{:.1} min", us as f64 / MINUTE as f64)
    } else if us >= SECOND {
        format!("{:.2} s", us as f64 / SECOND as f64)
    } else {
        format!("{us} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::VirtualClock;
    use std::sync::Arc;

    struct FixedClock(u64);
    impl VirtualClock for FixedClock {
        fn now_us(&self) -> u64 {
            self.0
        }
    }

    fn sample_recorder() -> Recorder {
        let rec = Recorder::new();
        rec.set_virtual_clock(Arc::new(FixedClock(5_000)));
        {
            let _s = rec.span("stage_one");
        }
        rec.incr("crawl.pages", &[("marketplace", "Accsmarket")], 12);
        rec.incr("crawl.offers", &[("marketplace", "Accsmarket")], 9);
        rec.incr("api.calls", &[("platform", "X"), ("outcome", "ok")], 4);
        rec.incr("api.calls", &[("platform", "X"), ("outcome", "not_found")], 1);
        rec.observe("net.latency_us", &[], 300);
        rec.gauge_set("crawl.frontier_peak", &[], 17.0);
        rec.event("unit", "sample event");
        rec
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let rec = sample_recorder();
        let m = rec.manifest("unit", 42, &digest64("cfg"));
        assert!(m.validate().is_ok(), "{:?}", m.validate());
        let text = m.to_json_pretty();
        let back = RunManifest::parse(&text).expect("parses");
        assert_eq!(back, m);
        assert_eq!(back.to_json_pretty(), text, "stable re-encode");
    }

    #[test]
    fn crawl_and_api_sections_extracted_from_counters() {
        let rec = sample_recorder();
        let m = rec.manifest("unit", 7, &digest64("cfg"));
        assert_eq!(m.crawl.len(), 1);
        assert_eq!(m.crawl[0].marketplace, "Accsmarket");
        assert_eq!(m.crawl[0].pages, 12);
        assert_eq!(m.crawl[0].offers, 9);
        assert_eq!(m.crawl[0].fetch_errors, 0);
        let ok = m.api.iter().find(|a| a.outcome == "ok").unwrap();
        assert_eq!((ok.platform.as_str(), ok.calls), ("X", 4));
        assert_eq!(m.api.len(), 2);
    }

    #[test]
    fn deterministic_view_strips_wall_fields() {
        let rec = sample_recorder();
        let m = rec.manifest("unit", 7, &digest64("cfg"));
        let full = m.to_json_string();
        let det = m.deterministic_string();
        assert!(full.contains("wall_ms"));
        assert!(!det.contains("wall_ms"));
        assert!(det.contains("virtual_us"), "virtual fields stay");
        // Two exports of the same recorder agree on the deterministic view
        // even though wall_ms keeps ticking between them.
        let m2 = rec.manifest("unit", 7, &digest64("cfg"));
        assert_eq!(m2.deterministic_string(), det);
    }

    #[test]
    fn stage_table_lists_stages_and_total() {
        let rec = sample_recorder();
        let m = rec.manifest("unit", 7, &digest64("cfg"));
        let table = m.render_stage_table();
        assert!(table.contains("stage_one"));
        assert!(table.contains("total"));
        assert!(table.contains("ms"));
    }

    #[test]
    fn validate_rejects_broken_manifests() {
        let rec = sample_recorder();
        let mut m = rec.manifest("unit", 7, &digest64("cfg"));
        m.schema = "bogus".into();
        assert!(m.validate().is_err());
        let mut m2 = rec.manifest("unit", 7, &digest64("cfg"));
        m2.config_digest = "xyz".into();
        assert!(m2.validate().is_err());
        let mut m3 = rec.manifest("unit", 7, &digest64("cfg"));
        m3.stages.clear();
        assert!(m3.validate().is_err());
    }

    #[test]
    fn empty_histogram_exports_zeros_not_sentinels() {
        let rec = sample_recorder();
        // A restore-style insert of a histogram that never saw a sample.
        rec.registry_ref()
            .insert_histogram(crate::metrics::Key::new("restored.empty", &[]), Histogram::default());
        let m = rec.manifest("unit", 7, &digest64("cfg"));
        let row = m
            .histograms
            .iter()
            .find(|h| h.key == "restored.empty")
            .expect("empty histogram is exported");
        assert_eq!(
            (row.count, row.sum, row.min, row.max, row.p50, row.p90, row.p99),
            (0, 0, 0, 0, 0, 0, 0),
            "empty histogram must export zeros, not u64::MAX sentinels"
        );
    }

    #[test]
    fn normalize_for_determinism_matches_deterministic_json() {
        let rec = sample_recorder();
        let m = rec.manifest("unit", 7, &digest64("cfg"));
        let normalized = normalize_for_determinism(&m.to_json());
        assert_eq!(normalized.render_pretty(), m.deterministic_string());
        assert!(!normalized.render().contains("wall_"));
    }

    #[test]
    fn digest_is_stable_and_hex() {
        assert_eq!(digest64("abc"), digest64("abc"));
        assert_ne!(digest64("abc"), digest64("abd"));
        assert_eq!(digest64("x").len(), 16);
    }

    #[test]
    fn virtual_formatting_scales() {
        assert_eq!(format_virtual(12), "12 µs");
        assert_eq!(format_virtual(2_500_000), "2.50 s");
        assert_eq!(format_virtual(90_000_000), "1.5 min");
        assert!(format_virtual(7_200_000_000).ends_with(" h"));
        assert!(format_virtual(86_400_000_000 * 3 / 2).ends_with(" d"));
    }
}
