//! Prometheus text exposition over the live [`Registry`] state.
//!
//! The ops virtual host's `/metrics` endpoint renders one or more
//! recorders into the Prometheus text format (`# TYPE` headers, sorted
//! sample lines, a `source` label distinguishing the campaign registry
//! from the server-side one). Rendering the same registry state twice
//! yields byte-identical text — the exposition golden test and
//! [`reconcile_metrics`] both rest on that.
//!
//! Histograms are exported summary-style: `_count`/`_sum`/`_min`/`_max`
//! plus `quantile`-labelled sample lines at the registry's log-bucket
//! resolution.
//!
//! [`Registry`]: crate::metrics::Registry

use crate::manifest::RunManifest;
use crate::metrics::Key;
use crate::recorder::Recorder;
use std::collections::BTreeMap;

/// Sanitize a metric name into the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other separators become
/// underscores.
pub(crate) fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render a label set (plus optional extra pairs) as `{k="v",...}`.
fn render_labels(key: &Key, extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(String, String)> = key
        .labels
        .iter()
        .map(|(k, v)| (sanitize_name(k), escape_label_value(v)))
        .collect();
    for (k, v) in extra {
        pairs.push((sanitize_name(k), escape_label_value(v)));
    }
    pairs.sort();
    if pairs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", body.join(","))
}

/// Format a sample value the way Prometheus expects: integral values
/// without a fraction, everything else in shortest-roundtrip form.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One metric family accumulated across sources.
#[derive(Default)]
struct Family {
    kind: &'static str,
    /// Fully rendered sample lines, collected then sorted.
    lines: Vec<String>,
}

/// Render one or more recorders as one Prometheus text exposition.
///
/// Each `(source, recorder)` pair contributes its counters, gauges, and
/// histograms with a `source="<name>"` label, so the campaign registry
/// and the server-side registry stay distinguishable in one scrape.
/// Families and samples are emitted in sorted order: same registry
/// state, same bytes.
pub fn render_prometheus(sources: &[(&str, &Recorder)]) -> String {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut add = |name: String, kind: &'static str, line: String| {
        let fam = families.entry(name).or_default();
        fam.kind = kind;
        fam.lines.push(line);
    };

    for (source, rec) in sources {
        let extra = [("source", *source)];
        for (key, value) in rec.counters() {
            let name = sanitize_name(&key.name);
            let labels = render_labels(&key, &extra);
            add(name.clone(), "counter", format!("{name}{labels} {}", format_value(value as f64)));
        }
        for (key, value) in rec.gauges() {
            let name = sanitize_name(&key.name);
            let labels = render_labels(&key, &extra);
            add(name.clone(), "gauge", format!("{name}{labels} {}", format_value(value)));
        }
        for (key, hist) in rec.histograms() {
            let name = sanitize_name(&key.name);
            let fam = name.clone();
            for (suffix, value) in [
                ("_count", hist.count()),
                ("_sum", hist.sum()),
                ("_min", hist.min()),
                ("_max", hist.max()),
            ] {
                let labels = render_labels(&key, &extra);
                add(
                    fam.clone(),
                    "summary",
                    format!("{name}{suffix}{labels} {}", format_value(value as f64)),
                );
            }
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let value = if hist.count() == 0 { 0 } else { hist.quantile(q) };
                let labels = render_labels(&key, &[("source", source), ("quantile", label)]);
                add(fam.clone(), "summary", format!("{name}{labels} {}", format_value(value as f64)));
            }
        }
    }

    let mut out = String::new();
    for (name, mut family) in families {
        out.push_str(&format!("# TYPE {name} {}\n", family.kind));
        family.lines.sort();
        for line in family.lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Parse an exposition back into `sample line prefix → value` — the
/// reconciliation side of the `/metrics` contract. Keys are the full
/// `name{labels}` prefix exactly as rendered; `# `-comment lines are
/// skipped.
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The value is everything after the last space; label values
        // may contain spaces, so split from the right.
        let Some(split) = line.rfind(' ') else { continue };
        let (key, value) = line.split_at(split);
        if let Ok(v) = value.trim().parse::<f64>() {
            out.insert(key.to_string(), v);
        }
    }
    out
}

/// Reconcile a scraped `/metrics` exposition against a run's manifest:
/// every manifest counter must appear under `source="campaign"` with
/// exactly the manifest's value — except `store.*` counters, which may
/// run ahead (a persisted run exports its manifest before its final
/// sync and checkpoint write). Returns one line per mismatch; empty
/// means reconciled.
pub fn reconcile_metrics(scraped: &str, manifest: &RunManifest) -> Vec<String> {
    let parsed = parse_exposition(scraped);
    let mut mismatches = Vec::new();
    for entry in &manifest.counters {
        let key = parse_rendered_key(&entry.key);
        let want = entry.value as f64;
        match parsed.get(&counter_sample_key(&key, "campaign")) {
            None => mismatches.push(format!("{}: missing from /metrics scrape", entry.key)),
            Some(&v) if v == want || (key.name.starts_with("store.") && v > want) => {}
            Some(&v) => mismatches.push(format!("{}: scraped {v}, manifest {want}", entry.key)),
        }
    }
    mismatches
}

/// The sample-line prefix [`render_prometheus`] emits for one counter
/// key under `source` — the join key for manifest reconciliation.
fn counter_sample_key(key: &Key, source: &str) -> String {
    let name = sanitize_name(&key.name);
    let labels = render_labels(key, &[("source", source)]);
    format!("{name}{labels}")
}

/// Parse a manifest-rendered key (`Key::render` form, i.e.
/// `name{label=value,...}` or a bare `name`) back into a [`Key`] so a
/// scraped exposition can be joined against `TELEMETRY_report.json`
/// counter entries. Label values in this workspace never contain `,`,
/// `=`, or `}` — the renderer's grammar is unambiguous for them.
fn parse_rendered_key(rendered: &str) -> Key {
    let Some((name, rest)) = rendered.split_once('{') else {
        return Key { name: rendered.to_string(), labels: Vec::new() };
    };
    let body = rest.strip_suffix('}').unwrap_or(rest);
    let mut labels: Vec<(String, String)> = body
        .split(',')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    labels.sort();
    Key { name: name.to_string(), labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> Recorder {
        let rec = Recorder::new();
        rec.incr("crawl.pages", &[("marketplace", "Accsmarket")], 12);
        rec.incr("net.requests", &[], 70);
        rec.gauge_set("crawl.frontier_peak", &[], 17.5);
        rec.observe("net.latency_us", &[], 300);
        rec.observe("net.latency_us", &[], 700);
        rec
    }

    #[test]
    fn exposition_is_sorted_and_byte_stable() {
        let rec = sample_recorder();
        let a = render_prometheus(&[("campaign", &rec)]);
        let b = render_prometheus(&[("campaign", &rec)]);
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].starts_with("# TYPE "));
        // Families arrive in sorted order.
        let families: Vec<&str> = lines
            .iter()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        let mut sorted = families.clone();
        sorted.sort();
        assert_eq!(families, sorted);
    }

    #[test]
    fn counter_lines_round_trip_through_parse() {
        let rec = sample_recorder();
        let text = render_prometheus(&[("campaign", &rec)]);
        let parsed = parse_exposition(&text);
        let key = Key::new("crawl.pages", &[("marketplace", "Accsmarket")]);
        assert_eq!(parsed.get(&counter_sample_key(&key, "campaign")), Some(&12.0));
        let key = Key::new("net.requests", &[]);
        assert_eq!(parsed.get(&counter_sample_key(&key, "campaign")), Some(&70.0));
    }

    #[test]
    fn histograms_export_summary_style() {
        let rec = sample_recorder();
        let text = render_prometheus(&[("campaign", &rec)]);
        assert!(text.contains("# TYPE net_latency_us summary"));
        assert!(text.contains("net_latency_us_count{source=\"campaign\"} 2"));
        assert!(text.contains("net_latency_us_sum{source=\"campaign\"} 1000"));
        assert!(text.contains("quantile=\"0.5\""));
    }

    #[test]
    fn two_sources_stay_distinguishable() {
        let campaign = Recorder::new();
        campaign.incr("net.requests", &[], 3);
        let server = Recorder::new();
        server.incr("net.requests", &[], 9);
        let text = render_prometheus(&[("campaign", &campaign), ("server", &server)]);
        let parsed = parse_exposition(&text);
        let key = Key::new("net.requests", &[]);
        assert_eq!(parsed.get(&counter_sample_key(&key, "campaign")), Some(&3.0));
        assert_eq!(parsed.get(&counter_sample_key(&key, "server")), Some(&9.0));
    }

    #[test]
    fn rendered_keys_round_trip_through_parse() {
        for key in [
            Key::new("net.requests", &[]),
            Key::new("crawl.pages", &[("marketplace", "Accsmarket")]),
            Key::new("api.calls", &[("platform", "x"), ("outcome", "ok")]),
        ] {
            assert_eq!(parse_rendered_key(&key.render()), key);
        }
    }

    #[test]
    fn reconciliation_lets_only_store_counters_run_ahead() {
        let rec = Recorder::new();
        rec.incr("net.requests", &[("host", "x.com")], 3);
        rec.incr("store.records", &[], 5);
        let manifest = rec.manifest("t", 1, "d");
        let scrape = |requests: u64, records: u64| {
            let live = Recorder::new();
            live.incr("net.requests", &[("host", "x.com")], requests);
            live.incr("store.records", &[], records);
            render_prometheus(&[("campaign", &live)])
        };
        assert!(reconcile_metrics(&scrape(3, 5), &manifest).is_empty());
        assert!(reconcile_metrics(&scrape(3, 9), &manifest).is_empty(), "store.* may run ahead");
        assert_eq!(reconcile_metrics(&scrape(4, 5), &manifest).len(), 1);
        assert_eq!(reconcile_metrics(&scrape(3, 4), &manifest).len(), 1, "but never behind");
        let server_only = render_prometheus(&[("server", &rec)]);
        assert_eq!(reconcile_metrics(&server_only, &manifest).len(), 2, "missing samples");
    }

    #[test]
    fn sanitization_and_escaping() {
        assert_eq!(sanitize_name("crawl.pages"), "crawl_pages");
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
