//! The full paper pipeline, end to end: generate the world, run the crawl
//! campaign over the Feb–Jun window, resolve all visible profiles, collect
//! the underground forums over Tor, run platform moderation, audit
//! efficacy, and print **every table and figure** of the paper.
//!
//! Scale is configurable: pass a scale factor (default 0.1; `1.0`
//! reproduces the paper's 38,253 listings and ~205K posts). At `1.0` on a
//! 2-CPU Linux VM the stage table it prints read:
//!
//! ```text
//! stage                     virtual         wall
//! crawl_campaign            136.9 d   12579.0 ms
//! resolve_profiles          6.4 min    1231.9 ms
//! underground_collection    8.3 min       6.2 ms
//! moderation                 20.0 d      17.1 ms
//! efficacy_requery          3.2 min     161.1 ms
//! analysis                     0 µs    1500.7 ms
//! total                     157.0 d   15496.6 ms
//! ```
//!
//! ```sh
//! cargo run --release --example full_study           # 10% scale
//! cargo run --release --example full_study -- 1.0    # paper scale
//! ```

use acctrade::core::{Study, StudyConfig};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.1);
    let config = StudyConfig {
        seed: 0xACC7,
        scale,
        iterations: 10,
        scam: Default::default(),
    };
    eprintln!("running study at scale {scale} (seed {:#x}) ...", config.seed);
    let report = Study::new(config).run();
    let rendered = report.render_all();
    println!("{rendered}");
    eprintln!(
        "campaign: {} requests over {:.0} virtual days",
        report.requests_issued, report.campaign_days
    );

    // Stage-timing table (virtual vs wall time per pipeline stage).
    eprintln!("\n{}", report.telemetry.render_stage_table());

    // Persist the artefacts under target/ (kept out of the repo), via the
    // shared output-dir helper every example uses.
    let report_path = acctrade::output::artifact("full_scale_report.txt");
    std::fs::write(&report_path, &rendered).expect("write full report");
    let manifest_path = acctrade::output::artifact(acctrade::telemetry::REPORT_FILE);
    report.telemetry.validate().expect("study manifest must validate");
    std::fs::write(&manifest_path, report.telemetry.to_json_pretty())
        .expect("write telemetry manifest");
    eprintln!(
        "report written to {}; telemetry manifest to {}",
        report_path.display(),
        manifest_path.display()
    );
}
