#![warn(missing_docs)]

//! # acctrade-store
//!
//! Durable crawl dataset store for the `acctrade` workspace — an
//! append-only, segmented, CRC-framed write-ahead log with checkpoints
//! and crash recovery. Zero-dependency (std + `foundation`).
//!
//! The reproduced paper's core contribution is its *dataset*: 38k
//! listings and 205k posts accumulated over a five-month crawl campaign
//! (§3.2) — a campaign that, in reality, survives crashes, restarts, and
//! re-crawls. This crate is the persistence backbone that makes the
//! reproduction behave the same way:
//!
//! * [`frame`] — length-prefixed, CRC-32-checksummed binary framing for
//!   opaque record payloads (`foundation::json` renderings upstairs);
//! * [`crc`] — the CRC-32/ISO-HDLC checksum itself;
//! * [`segment`] — numbered segment files and directory scanning;
//! * [`wal`] — the [`Writer`]: lazy segment rotation, fsync + atomic
//!   manifest on [`Writer::sync`], and the recovery path
//!   ([`Writer::open_resume`]) that replays segments, truncates torn
//!   tails instead of failing, rolls back uncommitted records, and
//!   reports exactly what was salvaged;
//! * [`manifest`] — the advisory `store_manifest.json`;
//! * [`checkpoint`] — atomic small-file replace for the checkpoints the
//!   pipeline layers on top.
//!
//! ## Determinism
//!
//! The on-disk layout is a pure function of the record stream and the
//! [`WalOptions`]: lazy rotation means a resumed writer re-produces
//! byte-identical segments at identical offsets, which is what lets the
//! study pipeline prove that an interrupted-and-resumed campaign yields
//! a byte-identical dataset and telemetry manifest versus an
//! uninterrupted same-seed run.

pub mod checkpoint;
pub mod crc;
pub mod frame;
pub mod manifest;
pub mod segment;
pub mod wal;

pub use crc::crc32;
pub use frame::{decode_frame, encode_frame, Decoded};
pub use manifest::{SegmentEntry, StoreManifest, MANIFEST_FILE};
pub use wal::{
    replay, AppendReceipt, Record, RecoveryReport, StoreError, WalOptions, Writer, WriterStats,
    DEFAULT_SEGMENT_MAX_BYTES,
};
