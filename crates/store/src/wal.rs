//! The append-only, segmented write-ahead log.
//!
//! A [`Writer`] owns a directory of numbered segment files and appends
//! CRC-framed records ([`crate::frame`]) to the highest one, rotating to
//! a fresh segment *lazily* — the rotation happens on the first append
//! after a segment crosses [`WalOptions::segment_max_bytes`]. Lazy
//! rotation makes the on-disk layout a **pure function of the record
//! stream and the options**: a writer that re-appends the same records
//! after a crash produces byte-identical segments at identical offsets,
//! which is what lets resumed crawl campaigns reconcile their telemetry
//! counters (bytes appended, segments rotated) exactly with an
//! uninterrupted run.
//!
//! ## Durability contract
//!
//! * [`Writer::append`] buffers through the OS; [`Writer::sync`] fsyncs
//!   the active segment and atomically replaces the advisory manifest.
//! * Recovery ([`Writer::open_resume`]) never trusts the manifest: it
//!   re-scans every segment frame by frame, keeps the longest valid
//!   prefix, **truncates a torn tail instead of failing**, rolls back any
//!   valid-but-uncommitted records beyond the caller's checkpoint cursor,
//!   and reports exactly what was salvaged in a [`RecoveryReport`].
//! * A bad frame *inside* the committed prefix is unrecoverable by
//!   truncation and surfaces as [`StoreError::CommittedDataLost`] — again
//!   carrying the salvage report, so the operator knows precisely how
//!   many records survive.

use crate::checkpoint::write_atomic;
use crate::frame::{decode_frame, encode_frame, Decoded};
use crate::manifest::{SegmentEntry, StoreManifest, MANIFEST_FILE, SCHEMA};
use crate::segment::{list_segments, segment_file_name};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_MAX_BYTES: u64 = 256 * 1024;

/// Writer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// A segment that has reached this many bytes is closed and a new one
    /// opened on the next append (lazy rotation; segments may overshoot
    /// by up to one frame).
    pub segment_max_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES }
    }
}

/// One replayed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Zero-based position in the log.
    pub seq: u64,
    /// Record-type tag (assigned by the typed layer above).
    pub kind: u8,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// What one append did (drives the persist layer's telemetry deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Sequence number assigned to the record.
    pub seq: u64,
    /// Framed bytes written (header + body).
    pub bytes: u64,
    /// Whether this append opened a new segment.
    pub rotated: bool,
}

/// Cumulative writer-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Records appended by this writer instance.
    pub records_appended: u64,
    /// Framed bytes appended by this writer instance.
    pub bytes_appended: u64,
    /// Segment rotations performed by this writer instance.
    pub segments_rotated: u64,
}

/// Exactly what recovery salvaged (and discarded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Valid records replayed into the committed prefix.
    pub records_replayed: u64,
    /// Framed bytes in the replayed prefix.
    pub bytes_replayed: u64,
    /// 1 when a torn/corrupt tail terminated the scan and was truncated.
    pub torn_tails_truncated: u64,
    /// Bytes discarded by the tail truncation.
    pub torn_tail_bytes: u64,
    /// Valid records found beyond the committed cursor and rolled back.
    pub uncommitted_records_dropped: u64,
    /// Whole segment files beyond the committed boundary that were removed.
    pub trailing_segments_removed: u64,
    /// Whether the advisory manifest (if present and well-formed) agreed
    /// with the recovered record count.
    pub manifest_agrees: bool,
}

impl RecoveryReport {
    /// One-line human summary ("reports exactly what was salvaged").
    pub fn describe(&self) -> String {
        format!(
            "salvaged {} records ({} bytes) from {} segments; \
             dropped {} uncommitted records, truncated {} torn tail(s) ({} bytes), \
             removed {} trailing segment file(s); manifest {}",
            self.records_replayed,
            self.bytes_replayed,
            self.segments_scanned,
            self.uncommitted_records_dropped,
            self.torn_tails_truncated,
            self.torn_tail_bytes,
            self.trailing_segments_removed,
            if self.manifest_agrees { "agrees" } else { "disagrees (rescanned)" },
        )
    }
}

/// Store-level failure.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The requested operation is not valid for the store's current
    /// state (e.g. resuming a store whose checkpoint marks the study
    /// complete).
    Invalid(String),
    /// Recovery could not reconstruct every committed record: corruption
    /// struck *inside* the committed prefix. The report says exactly how
    /// far the salvage got.
    CommittedDataLost {
        /// Records the checkpoint claims were durable.
        committed: u64,
        /// Records actually recovered.
        salvaged: u64,
        /// Full salvage report.
        report: RecoveryReport,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Invalid(msg) => write!(f, "invalid store operation: {msg}"),
            StoreError::CommittedDataLost { committed, salvaged, report } => write!(
                f,
                "committed data lost: checkpoint claims {committed} records, \
                 only {salvaged} recoverable ({})",
                report.describe()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One scanned segment: the valid frames, where they end, and what (if
/// anything) trails them.
struct ScannedSeg {
    index: u64,
    path: PathBuf,
    /// (offset, kind, payload, framed length) per valid frame, in order.
    frames: Vec<(u64, u8, Vec<u8>, u64)>,
    /// Offset just past the last valid frame.
    clean_end: u64,
    /// Total file length.
    total_len: u64,
    /// Whether a bad (torn or corrupt) frame terminated this segment.
    bad_tail: bool,
}

/// Scan every segment in order, stopping at the first bad frame. Returns
/// the scanned segments up to and including the one with the bad frame
/// (if any) plus the number of unscanned trailing segment files.
fn scan_segments(dir: &Path) -> io::Result<(Vec<ScannedSeg>, u64)> {
    let listed = list_segments(dir)?;
    let mut out = Vec::new();
    let mut stopped = false;
    let mut unscanned = 0u64;
    for (index, path) in listed {
        if stopped {
            unscanned += 1;
            continue;
        }
        let bytes = std::fs::read(&path)?;
        let mut frames = Vec::new();
        let mut offset = 0usize;
        let mut bad_tail = false;
        while offset < bytes.len() {
            match decode_frame(&bytes[offset..]) {
                Decoded::Frame { kind, payload, consumed } => {
                    frames.push((offset as u64, kind, payload.to_vec(), consumed as u64));
                    offset += consumed;
                }
                Decoded::Incomplete | Decoded::Corrupt => {
                    bad_tail = true;
                    stopped = true;
                    break;
                }
            }
        }
        out.push(ScannedSeg {
            index,
            path,
            frames,
            clean_end: offset as u64,
            total_len: bytes.len() as u64,
            bad_tail,
        });
    }
    Ok((out, unscanned))
}

fn read_manifest(dir: &Path) -> Option<StoreManifest> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).ok()?;
    let m = StoreManifest::parse(&text).ok()?;
    m.validate().ok().map(|_| m)
}

/// The WAL writer. See the module docs for the durability contract.
pub struct Writer {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    seg_index: u64,
    seg_bytes: u64,
    seg_records: u64,
    completed: Vec<SegmentEntry>,
    next_seq: u64,
    stats: WriterStats,
}

impl std::fmt::Debug for Writer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Writer(dir={:?}, seg={}, records={})",
            self.dir, self.seg_index, self.next_seq
        )
    }
}

impl Writer {
    /// Start a **fresh** store in `dir`, creating the directory if needed
    /// and removing any existing segment chain and manifest. (Resumable
    /// pipelines call [`Writer::open_resume`] instead; `create` is the
    /// "new campaign" path and is explicitly destructive to prior WAL
    /// state in the same directory.)
    pub fn create(dir: &Path, opts: WalOptions) -> io::Result<Writer> {
        std::fs::create_dir_all(dir)?;
        for (_, path) in list_segments(dir)? {
            std::fs::remove_file(path)?;
        }
        let manifest = dir.join(MANIFEST_FILE);
        if manifest.exists() {
            std::fs::remove_file(&manifest)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join(segment_file_name(0)))?;
        Ok(Writer {
            dir: dir.to_path_buf(),
            opts,
            file,
            seg_index: 0,
            seg_bytes: 0,
            seg_records: 0,
            completed: Vec::new(),
            next_seq: 0,
            stats: WriterStats::default(),
        })
    }

    /// Append one record; returns the assigned sequence number, the bytes
    /// written, and whether the append rotated to a new segment.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<AppendReceipt> {
        let mut rotated = false;
        if self.seg_bytes >= self.opts.segment_max_bytes && self.seg_records > 0 {
            self.rotate()?;
            rotated = true;
        }
        let frame = encode_frame(kind, payload);
        self.file.write_all(&frame)?;
        self.seg_bytes += frame.len() as u64;
        self.seg_records += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += frame.len() as u64;
        if rotated {
            self.stats.segments_rotated += 1;
        }
        Ok(AppendReceipt { seq, bytes: frame.len() as u64, rotated })
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.completed.push(SegmentEntry {
            file: segment_file_name(self.seg_index),
            records: self.seg_records,
            bytes: self.seg_bytes,
        });
        self.seg_index += 1;
        self.file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.dir.join(segment_file_name(self.seg_index)))?;
        self.seg_bytes = 0;
        self.seg_records = 0;
        Ok(())
    }

    /// Make everything appended so far durable: fsync the active segment
    /// and atomically replace the advisory manifest.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        let manifest = self.manifest();
        write_atomic(&self.dir.join(MANIFEST_FILE), manifest.to_json_pretty().as_bytes())
    }

    /// The manifest describing the current segment chain.
    fn manifest(&self) -> StoreManifest {
        let mut segments = self.completed.clone();
        segments.push(SegmentEntry {
            file: segment_file_name(self.seg_index),
            records: self.seg_records,
            bytes: self.seg_bytes,
        });
        StoreManifest {
            schema: SCHEMA.to_string(),
            segment_max_bytes: self.opts.segment_max_bytes,
            total_records: self.next_seq,
            segments,
        }
    }

    /// Cumulative counters for this writer instance.
    pub fn stats(&self) -> WriterStats {
        self.stats
    }

    /// Total records in the log (next sequence number).
    pub fn total_records(&self) -> u64 {
        self.next_seq
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options this writer was opened with.
    pub fn options(&self) -> WalOptions {
        self.opts
    }

    /// Reopen a store after a crash, trusting only `committed` — the
    /// record count the caller's last durable checkpoint vouches for.
    ///
    /// Returns the positioned writer, the committed records (for state
    /// reconstruction), and the salvage report. See the module docs for
    /// the exact semantics; in short: torn tails are truncated, valid
    /// records beyond `committed` are rolled back (physically truncated)
    /// so the resumed run re-derives them deterministically, and
    /// corruption inside the committed prefix is a hard
    /// [`StoreError::CommittedDataLost`].
    pub fn open_resume(
        dir: &Path,
        opts: WalOptions,
        committed: u64,
    ) -> Result<(Writer, Vec<Record>, RecoveryReport), StoreError> {
        std::fs::create_dir_all(dir)?;
        let prior_manifest = read_manifest(dir);
        let (scanned, unscanned_trailing) = scan_segments(dir)?;
        let mut report = RecoveryReport {
            segments_scanned: scanned.len() as u64,
            manifest_agrees: false,
            ..RecoveryReport::default()
        };

        if scanned.is_empty() {
            if committed == 0 {
                let mut w = Writer::create(dir, opts)?;
                w.sync()?;
                report.manifest_agrees = prior_manifest
                    .as_ref()
                    .map(|m| m.total_records == 0)
                    .unwrap_or(false);
                return Ok((w, Vec::new(), report));
            }
            return Err(StoreError::CommittedDataLost { committed, salvaged: 0, report });
        }

        let _ = unscanned_trailing;
        // Walk the scan, splitting at the committed boundary.
        let mut records = Vec::new();
        let mut kept_layout: Vec<SegmentEntry> = Vec::new();
        // (position in `scanned`, truncate-to offset within that segment)
        let mut boundary: Option<(usize, u64)> = None;
        for (pos, seg) in scanned.iter().enumerate() {
            let before_boundary = boundary.is_none();
            let mut seg_records = 0u64;
            let mut seg_bytes = 0u64;
            for (offset, kind, payload, flen) in &seg.frames {
                if boundary.is_none() && (records.len() as u64) < committed {
                    records.push(Record {
                        seq: records.len() as u64,
                        kind: *kind,
                        payload: payload.clone(),
                    });
                    seg_records += 1;
                    seg_bytes += flen;
                    report.records_replayed += 1;
                    report.bytes_replayed += flen;
                    if records.len() as u64 == committed {
                        boundary = Some((pos, offset + flen));
                    }
                } else {
                    report.uncommitted_records_dropped += 1;
                }
            }
            if committed == 0 && boundary.is_none() {
                boundary = Some((pos, 0));
            }
            if before_boundary {
                // This segment holds (part of) the committed prefix.
                kept_layout.push(SegmentEntry {
                    file: segment_file_name(seg.index),
                    records: seg_records,
                    bytes: seg_bytes,
                });
            }
        }

        // A bad tail anywhere in the scan is about to be discarded —
        // either truncated in place or removed with its whole file.
        if let Some(bad) = scanned.iter().find(|s| s.bad_tail) {
            report.torn_tails_truncated = 1;
            report.torn_tail_bytes = bad.total_len - bad.clean_end;
        }

        if (records.len() as u64) < committed {
            return Err(StoreError::CommittedDataLost {
                committed,
                salvaged: records.len() as u64,
                report,
            });
        }
        let (bpos, boffset) =
            boundary.expect("boundary set once committed records are gathered"); // conformance: allow(panic-policy) — boundary is set whenever committed records were gathered
        let bseg = &scanned[bpos];

        // Everything past the boundary is discarded: first the tail of
        // the boundary segment, then every later segment file.
        if bseg.total_len > boffset {
            let f = OpenOptions::new().write(true).open(&bseg.path)?;
            f.set_len(boffset)?;
            f.sync_all()?;
        }
        for (index, path) in list_segments(dir)? {
            if index > bseg.index {
                std::fs::remove_file(path)?;
                report.trailing_segments_removed += 1;
            }
        }

        report.manifest_agrees = prior_manifest
            .as_ref()
            .map(|m| m.total_records == committed)
            .unwrap_or(false);

        // Position the writer at the boundary.
        let mut file = OpenOptions::new().write(true).open(&bseg.path)?;
        file.seek(SeekFrom::End(0))?;
        let current = kept_layout.pop().unwrap_or(SegmentEntry {
            file: segment_file_name(bseg.index),
            records: 0,
            bytes: 0,
        });
        let mut writer = Writer {
            dir: dir.to_path_buf(),
            opts,
            file,
            seg_index: bseg.index,
            seg_bytes: current.bytes,
            seg_records: current.records,
            completed: kept_layout,
            next_seq: committed,
            stats: WriterStats::default(),
        };
        // Re-sync the manifest to the recovered truth immediately, so a
        // second crash before the first append still finds a consistent
        // store.
        writer.sync()?;
        Ok((writer, records, report))
    }
}

/// Read-only replay of a complete store: every valid record in order,
/// plus a report noting any torn tail (which is *not* truncated — replay
/// never writes).
pub fn replay(dir: &Path) -> Result<(Vec<Record>, RecoveryReport), StoreError> {
    let prior_manifest = read_manifest(dir);
    let (scanned, _unscanned) = scan_segments(dir)?;
    let mut report =
        RecoveryReport { segments_scanned: scanned.len() as u64, ..RecoveryReport::default() };
    let mut records = Vec::new();
    for seg in &scanned {
        for (_, kind, payload, flen) in &seg.frames {
            records.push(Record { seq: records.len() as u64, kind: *kind, payload: payload.clone() });
            report.records_replayed += 1;
            report.bytes_replayed += flen;
        }
        if seg.bad_tail {
            report.torn_tails_truncated = 1;
            report.torn_tail_bytes = seg.total_len - seg.clean_end;
            break;
        }
    }
    report.manifest_agrees = prior_manifest
        .as_ref()
        .map(|m| m.total_records == records.len() as u64)
        .unwrap_or(false);
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("acctrade-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> WalOptions {
        WalOptions { segment_max_bytes: 128 }
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("{{\"record\":{i},\"pad\":\"{}\"}}", "x".repeat((i % 7) as usize * 5)).into_bytes()
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let dir = scratch("roundtrip");
        let mut w = Writer::create(&dir, small_opts()).unwrap();
        for i in 0..40 {
            let r = w.append((i % 4) as u8, &payload(i)).unwrap();
            assert_eq!(r.seq, i);
        }
        w.sync().unwrap();
        let segments = w.manifest().segments.len() as u64;
        assert!(segments > 1, "small cap must force rotation");
        assert_eq!(w.stats().segments_rotated, segments - 1);
        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 40);
        assert_eq!(report.torn_tails_truncated, 0);
        assert!(report.manifest_agrees);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.kind, (i % 4) as u8);
            assert_eq!(r.payload, payload(i as u64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_reflects_layout() {
        let dir = scratch("manifest");
        let mut w = Writer::create(&dir, small_opts()).unwrap();
        for i in 0..20 {
            w.append(0, &payload(i)).unwrap();
        }
        w.sync().unwrap();
        let m = w.manifest();
        assert!(m.validate().is_ok());
        assert_eq!(m.total_records, 20);
        let on_disk =
            StoreManifest::parse(&std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap())
                .unwrap();
        assert_eq!(on_disk, m);
        // Segment files on disk match the manifest byte counts.
        for entry in &m.segments {
            let len = std::fs::metadata(dir.join(&entry.file)).unwrap().len();
            assert_eq!(len, entry.bytes, "{}", entry.file);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = scratch("torn");
        let mut w = Writer::create(&dir, small_opts()).unwrap();
        for i in 0..10 {
            w.append(1, &payload(i)).unwrap();
        }
        w.sync().unwrap();
        // Simulate a crash mid-append: garbage half-frame at the tail of
        // the last segment.
        let last = list_segments(&dir).unwrap().pop().unwrap().1;
        let mut f = OpenOptions::new().append(true).open(&last).unwrap();
        f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xAA, 0xBB]).unwrap(); // truncated header+crc
        drop(f);

        let (w2, records, report) = Writer::open_resume(&dir, small_opts(), 10).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(report.torn_tails_truncated, 1);
        assert_eq!(report.torn_tail_bytes, 6);
        assert_eq!(w2.total_records(), 10);
        drop(w2);
        // The tail is physically gone: a plain replay is now clean.
        let (_, clean) = replay(&dir).unwrap();
        assert_eq!(clean.torn_tails_truncated, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_records_roll_back() {
        let dir = scratch("rollback");
        let mut w = Writer::create(&dir, small_opts()).unwrap();
        for i in 0..30 {
            w.append(0, &payload(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Checkpoint only vouches for 12 records; the rest must vanish.
        let (w2, records, report) = Writer::open_resume(&dir, small_opts(), 12).unwrap();
        assert_eq!(records.len(), 12);
        assert_eq!(report.uncommitted_records_dropped, 18);
        assert_eq!(w2.total_records(), 12);
        drop(w2);
        let (after, _) = replay(&dir).unwrap();
        assert_eq!(after.len(), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The invariant byte-identical resume rests on: append the same
    /// record stream with a crash + rollback in the middle, and the final
    /// segment chain is byte-identical to an uninterrupted writer's.
    #[test]
    fn resumed_layout_is_byte_identical() {
        let dir_a = scratch("layout-clean");
        let dir_b = scratch("layout-resumed");
        let mut a = Writer::create(&dir_a, small_opts()).unwrap();
        for i in 0..50 {
            a.append((i % 3) as u8, &payload(i)).unwrap();
        }
        a.sync().unwrap();

        let mut b = Writer::create(&dir_b, small_opts()).unwrap();
        for i in 0..23 {
            b.append((i % 3) as u8, &payload(i)).unwrap();
        }
        b.sync().unwrap();
        // Crash: 4 more records appended but only 23 committed, plus a
        // torn half-frame.
        for i in 23..27 {
            b.append((i % 3) as u8, &payload(i)).unwrap();
        }
        drop(b);
        let last = list_segments(&dir_b).unwrap().pop().unwrap().1;
        let mut f = OpenOptions::new().append(true).open(&last).unwrap();
        f.write_all(&[9, 9, 9]).unwrap();
        drop(f);

        let (mut b2, records, _) = Writer::open_resume(&dir_b, small_opts(), 23).unwrap();
        assert_eq!(records.len(), 23);
        for i in 23..50 {
            b2.append((i % 3) as u8, &payload(i)).unwrap();
        }
        b2.sync().unwrap();

        let segs_a = list_segments(&dir_a).unwrap();
        let segs_b = list_segments(&dir_b).unwrap();
        assert_eq!(segs_a.len(), segs_b.len());
        for ((ia, pa), (ib, pb)) in segs_a.iter().zip(segs_b.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(
                std::fs::read(pa).unwrap(),
                std::fs::read(pb).unwrap(),
                "segment {ia} differs"
            );
        }
        assert_eq!(
            std::fs::read_to_string(dir_a.join(MANIFEST_FILE)).unwrap(),
            std::fs::read_to_string(dir_b.join(MANIFEST_FILE)).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn committed_data_lost_is_a_hard_error() {
        let dir = scratch("lost");
        let mut w = Writer::create(&dir, small_opts()).unwrap();
        for i in 0..8 {
            w.append(0, &payload(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Corrupt a byte inside the *first* record of the first segment.
        let first = list_segments(&dir).unwrap().remove(0).1;
        let mut bytes = std::fs::read(&first).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&first, &bytes).unwrap();
        match Writer::open_resume(&dir, small_opts(), 8) {
            Err(StoreError::CommittedDataLost { committed, salvaged, report }) => {
                assert_eq!(committed, 8);
                assert_eq!(salvaged, 0);
                assert!(report.describe().contains("salvaged 0 records"));
            }
            other => panic!("expected CommittedDataLost, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_empty_dir_with_zero_committed() {
        let dir = scratch("empty");
        let (w, records, report) = Writer::open_resume(&dir, small_opts(), 0).unwrap();
        assert_eq!(records.len(), 0);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(w.total_records(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_missing_data_errors() {
        let dir = scratch("missing");
        match Writer::open_resume(&dir, small_opts(), 5) {
            Err(StoreError::CommittedDataLost { salvaged: 0, .. }) => {}
            other => panic!("expected CommittedDataLost, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
