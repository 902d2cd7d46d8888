//! # acctrade-foundation
//!
//! The workspace's zero-dependency substrate. Every capability the
//! measurement pipeline used to pull from crates.io lives here as a
//! small, deterministic, auditable in-tree implementation:
//!
//! * [`rng`] — a seedable ChaCha8 stream-cipher RNG (replaces `rand` +
//!   `rand_chacha`). Same seed ⇒ same stream, forever.
//! * [`json`] — a JSON value model, parser, serializer, and the
//!   [`json::JsonCodec`] trait (replaces `serde` + `serde_json`).
//! * [`sync`] — non-poisoning `Mutex`/`RwLock` wrappers and scoped
//!   threads (replaces `parking_lot` + `crossbeam::scope`).
//! * [`check`] — a property-testing harness with seeded generators and
//!   shrinking (replaces `proptest`).
//! * [`bench`] — a criterion-style benchmarking harness with JSON
//!   reports (replaces `criterion`).
//!
//! The design rule (DESIGN.md "substitution rule"): the study must be
//! reproducible from a seed alone, offline, with no registry access.
//! Everything here is `std`-only.

#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod json;
pub mod rng;
pub mod sync;
