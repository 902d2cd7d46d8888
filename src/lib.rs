//! # acctrade
//!
//! Facade crate for the `acctrade` workspace — a full-system Rust
//! reproduction of *"Exploration of the Dynamics of Buy and Sale of Social
//! Media Accounts"* (IMC 2025).
//!
//! The paper is a measurement study of marketplaces that sell social media
//! accounts. This workspace rebuilds the entire measured ecosystem as a
//! deterministic simulation (marketplaces, underground Tor forums, five
//! social platforms, the network between them) plus the paper's measurement
//! pipeline (crawler, profile resolver, NLP scam-post clustering, network
//! analysis, efficacy audit) from scratch in Rust.
//!
//! Start with [`study`] ([`acctrade_core::study`]) to run the end-to-end
//! pipeline, or see the `examples/` directory:
//!
//! * `quickstart` — small world, one marketplace, first numbers in seconds;
//! * `full_study` — every table and figure from the paper;
//! * `scam_pipeline` — the post-clustering NLP pipeline in isolation;
//! * `underground_recon` — Tor-forum manual collection and listing
//!   similarity;
//! * `efficacy_audit` — platform moderation and blocking efficacy;
//! * `indicator_eval` — §9's proposed detection indicators, deployed and
//!   scored against ground truth.

pub use ::conformance;
pub use acctrade_core as core;
pub use acctrade_crawler as crawler;
pub use ::economy;
pub use acctrade_html as html;
pub use acctrade_httpd as httpd;
pub use acctrade_market as market;
pub use acctrade_net as net;
pub use acctrade_social as social;
pub use ::store;
pub use ::telemetry;
pub use acctrade_text as text;
pub use acctrade_workload as workload;

pub use acctrade_core::study;

/// Shared output-directory helper: every example writes its artifacts
/// under `target/` (kept out of the repo by `.gitignore`), and
/// durable campaign stores under `target/store/<tag>`.
pub mod output {
    use std::path::PathBuf;

    /// The artifact root (`target/`), created on demand.
    pub fn dir() -> PathBuf {
        let dir = PathBuf::from("target");
        std::fs::create_dir_all(&dir).expect("create target/"); // conformance: allow(panic-policy) — artifact helper: an unwritable target/ should abort examples and CI
        dir
    }

    /// The path of a named artifact under [`dir`].
    pub fn artifact(name: &str) -> PathBuf {
        dir().join(name)
    }

    /// A durable campaign-store directory under `target/store/<tag>`.
    /// The parent is created on demand; the store itself owns `<tag>`.
    pub fn store_dir(tag: &str) -> PathBuf {
        let parent = dir().join("store");
        std::fs::create_dir_all(&parent).expect("create target/store/"); // conformance: allow(panic-policy) — artifact helper: an unwritable target/ should abort examples and CI
        parent.join(tag)
    }
}
