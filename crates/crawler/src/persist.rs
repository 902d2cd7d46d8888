//! Durable campaign persistence — the crawler's binding to
//! [`acctrade-store`](store).
//!
//! A five-month crawl campaign survives crashes by writing every dataset
//! record into an append-only WAL ([`CampaignStore`]) and, at each
//! iteration boundary, an atomic [`CampaignCheckpoint`] capturing
//! everything needed to rebuild the run mid-flight: the seed and config
//! digest, the virtual clock, the fabric RNG position, the campaign
//! cursor, and a full telemetry snapshot. Resume replays the WAL into a
//! [`Dataset`], rolls back anything the checkpoint never committed, and
//! continues — producing byte-identical artifacts versus an
//! uninterrupted same-seed run.
//!
//! Telemetry: appends increment `store.records_appended`,
//! `store.bytes_appended` and `store.segments_rotated`; recovery
//! increments `store.records_replayed` and `store.torn_tails_truncated`
//! on whatever recorder is current at [`CampaignStore::open_resume`]
//! time (the *ambient* recorder — deliberately not the restored study
//! recorder, so a resumed run's manifest stays byte-identical to an
//! uninterrupted one). Checkpoint writes are not instrumented for the
//! same reason.

use crate::record::{
    Dataset, FetchStatus, OfferRecord, PostRecord, PriceObservationRecord, ProfileRecord,
    UndergroundRecord,
};
use economy::EconomyEvent;
use crate::schedule::{IterationSnapshot, DAYS_BETWEEN};
use foundation::json;
use foundation::json_codec_struct;
use std::io;
use std::path::Path;
use store::checkpoint::{read_if_exists, tmp_path, write_atomic};
use store::{Record, RecoveryReport, StoreError, WalOptions, Writer, WriterStats};
use telemetry::TelemetrySnapshot;

/// WAL record kind: a marketplace offer ([`OfferRecord`]).
pub(crate) const KIND_OFFER: u8 = 1;
/// WAL record kind: a resolved profile ([`ProfileRecord`]).
pub(crate) const KIND_PROFILE: u8 = 2;
/// WAL record kind: a collected post ([`PostRecord`]).
pub(crate) const KIND_POST: u8 = 3;
/// WAL record kind: an underground posting ([`UndergroundRecord`]).
pub(crate) const KIND_UNDERGROUND: u8 = 4;
/// WAL record kind: a §8 efficacy re-query outcome ([`ApiOutcomeRecord`]).
pub(crate) const KIND_API_OUTCOME: u8 = 5;
/// WAL record kind: one economy event ([`EconomyEvent`]) — escrow order
/// transitions, repricing ticks, bot activity.
pub(crate) const KIND_ECONOMY_EVENT: u8 = 6;
/// WAL record kind: a crawler-observed repricing of an already-collected
/// offer ([`PriceObservationRecord`]).
pub(crate) const KIND_PRICE_OBS: u8 = 7;

/// Checkpoint file name inside a store directory.
pub(crate) const CHECKPOINT_FILE: &str = "checkpoint.json";

/// Checkpoint schema identifier. v2 added `shard_cursors` (per-shard
/// lane provenance from the parallel crawl engine); v3 added
/// `economy_scenario` (the economy scenario pack a campaign runs with —
/// empty when the subsystem is disabled). Resume refuses a seed or
/// config mismatch, but adopts the checkpoint's scenario: it rebuilds
/// whatever economy the interrupted run was simulating.
pub const CHECKPOINT_SCHEMA: &str = "acctrade-campaign-checkpoint/v3";

/// Per-shard lane provenance from the last completed iteration: where
/// each (marketplace, chain) shard's private clock and RNG substream
/// ended. Chain 0 is the marketplace's discovery pseudo-shard (the
/// storefront fetch); chains ≥ 1 are platform listing chains in
/// storefront order. Recorded so a resumed campaign can prove its
/// parallel phase replayed identically (the cursors of a clean run and
/// a killed-and-resumed run must match byte-for-byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCursor {
    /// Marketplace display name.
    pub marketplace: String,
    /// Chain index (0 = discovery, ≥ 1 = listing chains).
    pub chain: usize,
    /// Lane virtual-time cursor at shard end (µs since epoch).
    pub lane_end_us: u64,
    /// Words consumed from the lane's RNG substream.
    pub lane_rng_words: u64,
    /// Records the shard collected (pre-dedup).
    pub records: u64,
}

/// One §8 efficacy re-query outcome, persisted compactly (the full
/// profile is not needed — the audit only consumes platform/handle/
/// status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiOutcomeRecord {
    /// Platform name.
    pub platform: String,
    /// Account handle.
    pub handle: String,
    /// Lookup outcome.
    pub status: FetchStatus,
    /// Virtual time of the re-query (unix seconds).
    pub at_unix: i64,
}

/// The per-iteration campaign checkpoint: everything a cold process
/// needs to continue the run as if never interrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Schema identifier ([`CHECKPOINT_SCHEMA`]).
    pub schema: String,
    /// Study seed.
    pub seed: u64,
    /// Digest of the study configuration (resume refuses a mismatch).
    pub config_digest: String,
    /// Total iterations the campaign will run.
    pub iterations_total: usize,
    /// Next iteration to execute on resume.
    pub next_iteration: usize,
    /// Virtual days between iterations. Always
    /// [`DAYS_BETWEEN`](crate::schedule::DAYS_BETWEEN); the field stays so
    /// the on-disk format is unchanged, and [`CampaignCheckpoint::validate`]
    /// rejects any other value.
    pub days_between: u64,
    /// Virtual unix time when the study started (campaign_days basis).
    pub t0_unix: i64,
    /// Virtual µs when the `crawl_campaign` span opened.
    pub campaign_started_us: u64,
    /// Virtual clock (µs) at checkpoint time.
    pub clock_us: u64,
    /// Fabric RNG stream position (words consumed) at checkpoint time.
    pub net_rng_words: u64,
    /// Requests issued on the fabric at checkpoint time.
    pub requests_issued: usize,
    /// Records durably synced into the WAL at checkpoint time; recovery
    /// rolls back anything beyond this.
    pub committed_records: u64,
    /// Segment rotation threshold the writer was configured with.
    pub segment_max_bytes: u64,
    /// Virtual timestamps at which `world.step_iteration` already ran.
    pub step_unixes: Vec<i64>,
    /// Per-iteration snapshots so far.
    pub snapshots: Vec<IterationSnapshot>,
    /// Per-shard lane cursors from the last completed iteration
    /// (empty before the first iteration finishes).
    pub shard_cursors: Vec<ShardCursor>,
    /// Economy scenario pack the campaign runs with (empty string when
    /// the economy subsystem is disabled). Resume adopts it: the resumed
    /// run rebuilds this scenario's economy.
    pub economy_scenario: String,
    /// Full telemetry snapshot at checkpoint time.
    pub telemetry: TelemetrySnapshot,
    /// True once the study finished; a complete checkpoint cannot be
    /// resumed (there is nothing left to do).
    pub complete: bool,
}

json_codec_struct! {
    ApiOutcomeRecord { platform, handle, status, at_unix }
    ShardCursor { marketplace, chain, lane_end_us, lane_rng_words, records }
    CampaignCheckpoint {
        schema, seed, config_digest, iterations_total, next_iteration,
        days_between, t0_unix, campaign_started_us, clock_us, net_rng_words,
        requests_issued, committed_records, segment_max_bytes, step_unixes,
        snapshots, shard_cursors, economy_scenario, telemetry, complete,
    }
}

impl CampaignCheckpoint {
    /// Pretty JSON (the on-disk format).
    pub fn to_json_pretty(&self) -> String {
        json::to_string_pretty(self)
    }

    /// Parse a checkpoint back from JSON text.
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, json::JsonError> {
        json::from_str(text)
    }

    /// Structural sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != CHECKPOINT_SCHEMA {
            return Err(format!("unknown checkpoint schema {:?}", self.schema));
        }
        if self.next_iteration > self.iterations_total {
            return Err(format!(
                "next_iteration {} beyond iterations_total {}",
                self.next_iteration, self.iterations_total
            ));
        }
        if self.snapshots.len() != self.next_iteration {
            return Err(format!(
                "{} snapshots but next_iteration {}",
                self.snapshots.len(),
                self.next_iteration
            ));
        }
        if self.days_between != DAYS_BETWEEN {
            return Err(format!(
                "days_between {} is not the campaign spacing {DAYS_BETWEEN}",
                self.days_between
            ));
        }
        if self.config_digest.len() != 16 {
            return Err("config_digest is not a 16-hex-char digest".into());
        }
        let mut cursor_keys: Vec<(&str, usize)> = self
            .shard_cursors
            .iter()
            .map(|c| (c.marketplace.as_str(), c.chain))
            .collect();
        cursor_keys.sort_unstable();
        let before = cursor_keys.len();
        cursor_keys.dedup();
        if cursor_keys.len() != before {
            return Err("duplicate (marketplace, chain) shard cursor".into());
        }
        self.telemetry.validate()?;
        Ok(())
    }
}

/// Everything a WAL replay yields, separated by stream: the released
/// dataset, the crawler's price-observation series, and the economy's
/// event stream. The latter two are empty on every pre-economy store
/// (the kinds simply never occur).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalReplay {
    /// The released campaign dataset (kinds 1–4).
    pub dataset: Dataset,
    /// Crawler-observed repricings (kind [`KIND_PRICE_OBS`]).
    pub price_obs: Vec<PriceObservationRecord>,
    /// Economy events (kind [`KIND_ECONOMY_EVENT`]), in append order —
    /// which is emission order, so the stream replays directly through
    /// `economy::Ledger::replay`.
    pub economy_events: Vec<EconomyEvent>,
}

/// A durable campaign dataset store: a [`store::Writer`] plus the
/// record-kind vocabulary and checkpoint protocol of the crawl pipeline.
pub struct CampaignStore {
    writer: Writer,
}

impl CampaignStore {
    /// Create a fresh store at `dir`, wiping any previous chain and any
    /// stale checkpoint.
    pub fn create(dir: &Path) -> io::Result<CampaignStore> {
        let writer = Writer::create(dir, WalOptions::default())?;
        let ckpt = dir.join(CHECKPOINT_FILE);
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(tmp_path(&ckpt));
        Ok(CampaignStore { writer })
    }

    /// Open an interrupted store for resumption.
    ///
    /// Reads and validates the checkpoint, replays the WAL (truncating
    /// torn tails, rolling back records past the checkpoint's
    /// `committed_records`), decodes the surviving records into a
    /// [`Dataset`], and positions the writer to append. Recovery tallies
    /// land on the current (ambient) telemetry recorder.
    pub fn open_resume(
        dir: &Path,
    ) -> Result<(CampaignStore, CampaignCheckpoint, WalReplay, RecoveryReport), StoreError> {
        let cp = Self::read_checkpoint(dir)?.ok_or_else(|| {
            StoreError::Invalid(format!(
                "no {CHECKPOINT_FILE} in {}: nothing to resume",
                dir.display()
            ))
        })?;
        cp.validate().map_err(StoreError::Invalid)?;
        let opts = WalOptions { segment_max_bytes: cp.segment_max_bytes };
        let (writer, records, report) = Writer::open_resume(dir, opts, cp.committed_records)?;
        telemetry::with_recorder(|r| {
            r.incr("store.records_replayed", &[], report.records_replayed);
            r.incr("store.torn_tails_truncated", &[], report.torn_tails_truncated);
        });
        let replay = decode_streams(&records)?;
        Ok((CampaignStore { writer }, cp, replay, report))
    }

    /// Read the checkpoint at `dir`, if any.
    pub fn read_checkpoint(dir: &Path) -> Result<Option<CampaignCheckpoint>, StoreError> {
        match read_if_exists(&dir.join(CHECKPOINT_FILE))? {
            None => Ok(None),
            Some(text) => CampaignCheckpoint::parse(&text)
                .map(Some)
                .map_err(|e| StoreError::Invalid(format!("bad checkpoint: {e}"))),
        }
    }

    /// Atomically replace the checkpoint. Deliberately uninstrumented:
    /// checkpoint cadence must not perturb the study's telemetry.
    pub fn write_checkpoint(&self, cp: &CampaignCheckpoint) -> io::Result<()> {
        write_atomic(
            &self.writer.dir().join(CHECKPOINT_FILE),
            cp.to_json_pretty().as_bytes(),
        )
    }

    /// Append one offer record.
    pub fn append_offer(&mut self, record: &OfferRecord) -> io::Result<()> {
        self.append_json(KIND_OFFER, &json::to_string(record))
    }

    /// Append one resolved profile.
    pub fn append_profile(&mut self, record: &ProfileRecord) -> io::Result<()> {
        self.append_json(KIND_PROFILE, &json::to_string(record))
    }

    /// Append one collected post.
    pub fn append_post(&mut self, record: &PostRecord) -> io::Result<()> {
        self.append_json(KIND_POST, &json::to_string(record))
    }

    /// Append one underground posting.
    pub fn append_underground(&mut self, record: &UndergroundRecord) -> io::Result<()> {
        self.append_json(KIND_UNDERGROUND, &json::to_string(record))
    }

    /// Append one efficacy re-query outcome.
    pub fn append_api_outcome(&mut self, record: &ApiOutcomeRecord) -> io::Result<()> {
        self.append_json(KIND_API_OUTCOME, &json::to_string(record))
    }

    /// Append one economy event.
    pub fn append_economy_event(&mut self, event: &EconomyEvent) -> io::Result<()> {
        self.append_json(KIND_ECONOMY_EVENT, &event.to_json_line())
    }

    /// Append one crawler-observed repricing.
    pub fn append_price_observation(
        &mut self,
        record: &PriceObservationRecord,
    ) -> io::Result<()> {
        self.append_json(KIND_PRICE_OBS, &json::to_string(record))
    }

    fn append_json(&mut self, kind: u8, text: &str) -> io::Result<()> {
        let receipt = self.writer.append(kind, text.as_bytes())?;
        telemetry::with_recorder(|r| {
            r.incr("store.records_appended", &[], 1);
            r.incr("store.bytes_appended", &[], receipt.bytes);
            if receipt.rotated {
                r.incr("store.segments_rotated", &[], 1);
            }
        });
        Ok(())
    }

    /// Fsync the chain and atomically rewrite the store manifest.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()
    }

    /// Records appended across the writer's lifetime (committed or not).
    pub fn total_records(&self) -> u64 {
        self.writer.total_records()
    }

    /// Writer statistics.
    pub fn stats(&self) -> WriterStats {
        self.writer.stats()
    }

    /// Segment rotation threshold in effect.
    pub fn segment_max_bytes(&self) -> u64 {
        self.writer.options().segment_max_bytes
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.writer.dir()
    }

    /// Read-only load of a store directory (no writer, no checkpoint
    /// required; used to inspect finished campaigns).
    pub fn load(dir: &Path) -> Result<(WalReplay, RecoveryReport), StoreError> {
        let (records, report) = store::replay(dir)?;
        Ok((decode_streams(&records)?, report))
    }
}

/// Decode replayed WAL records into their per-stream collections.
///
/// [`KIND_API_OUTCOME`] records are part of the §8 audit, not the
/// dataset, and are decode-checked then skipped; unknown kinds are an
/// error (the store never contains records this module did not write).
pub(crate) fn decode_streams(records: &[Record]) -> Result<WalReplay, StoreError> {
    let mut replay = WalReplay::default();
    for r in records {
        let text = std::str::from_utf8(&r.payload).map_err(|e| {
            StoreError::Invalid(format!("record seq {} is not UTF-8: {e}", r.seq))
        })?;
        let bad = |e: json::JsonError| {
            StoreError::Invalid(format!("record seq {} undecodable: {e}", r.seq))
        };
        let dataset = &mut replay.dataset;
        match r.kind {
            KIND_OFFER => dataset.offers.push(json::from_str(text).map_err(bad)?),
            KIND_PROFILE => dataset.profiles.push(json::from_str(text).map_err(bad)?),
            KIND_POST => dataset.posts.push(json::from_str(text).map_err(bad)?),
            KIND_UNDERGROUND => dataset.underground.push(json::from_str(text).map_err(bad)?),
            KIND_API_OUTCOME => {
                let _: ApiOutcomeRecord = json::from_str(text).map_err(bad)?;
            }
            KIND_ECONOMY_EVENT => {
                replay.economy_events.push(EconomyEvent::parse(text).map_err(bad)?)
            }
            KIND_PRICE_OBS => replay.price_obs.push(json::from_str(text).map_err(bad)?),
            other => {
                return Err(StoreError::Invalid(format!(
                    "record seq {} has unknown kind {other}",
                    r.seq
                )))
            }
        }
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("acctrade-crawler-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn offer(url: &str, iteration: usize) -> OfferRecord {
        OfferRecord {
            marketplace: "FameSwap".into(),
            offer_url: url.into(),
            title: "IG page".into(),
            seller: None,
            seller_country: None,
            price_usd: Some(120.0),
            platform: Some("Instagram".into()),
            category: None,
            claimed_followers: Some(10_000),
            claims_verified: false,
            monthly_revenue_usd: None,
            income_source: None,
            description: None,
            profile_link: None,
            handle: None,
            collected_unix: 0,
            iteration,
        }
    }

    fn checkpoint(store: &CampaignStore) -> CampaignCheckpoint {
        CampaignCheckpoint {
            schema: CHECKPOINT_SCHEMA.into(),
            seed: 7,
            config_digest: "00000000deadbeef".into(),
            iterations_total: 4,
            next_iteration: 0,
            days_between: 15,
            t0_unix: 0,
            campaign_started_us: 0,
            clock_us: 0,
            net_rng_words: 0,
            requests_issued: 0,
            committed_records: store.total_records(),
            segment_max_bytes: store.segment_max_bytes(),
            step_unixes: Vec::new(),
            snapshots: Vec::new(),
            shard_cursors: Vec::new(),
            economy_scenario: String::new(),
            telemetry: telemetry::Recorder::new().snapshot(),
            complete: false,
        }
    }

    #[test]
    fn roundtrip_through_store_and_checkpoint() {
        let dir = scratch("roundtrip");
        let mut s = CampaignStore::create(&dir).unwrap();
        s.append_offer(&offer("http://fameswap.com/o/1", 0)).unwrap();
        s.append_offer(&offer("http://fameswap.com/o/2", 0)).unwrap();
        s.append_api_outcome(&ApiOutcomeRecord {
            platform: "Instagram".into(),
            handle: "x".into(),
            status: FetchStatus::NotFound,
            at_unix: 99,
        })
        .unwrap();
        s.sync().unwrap();
        s.write_checkpoint(&checkpoint(&s)).unwrap();
        drop(s);

        let (s2, cp, replay, report) = CampaignStore::open_resume(&dir).unwrap();
        assert_eq!(cp.committed_records, 3);
        assert_eq!(report.records_replayed, 3);
        assert_eq!(report.torn_tails_truncated, 0);
        let dataset = replay.dataset;
        assert_eq!(dataset.offers.len(), 2, "api outcomes are not dataset rows");
        assert_eq!(dataset.offers[1].offer_url, "http://fameswap.com/o/2");
        assert_eq!(s2.total_records(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_tail_is_rolled_back_on_resume() {
        let dir = scratch("rollback");
        let mut s = CampaignStore::create(&dir).unwrap();
        s.append_offer(&offer("http://fameswap.com/o/1", 0)).unwrap();
        s.sync().unwrap();
        s.write_checkpoint(&checkpoint(&s)).unwrap();
        // Appended and even synced — but never checkpointed.
        s.append_offer(&offer("http://fameswap.com/o/2", 1)).unwrap();
        s.sync().unwrap();
        drop(s);

        let (_s2, cp, replay, report) = CampaignStore::open_resume(&dir).unwrap();
        assert_eq!(cp.committed_records, 1);
        assert_eq!(replay.dataset.offers.len(), 1);
        assert_eq!(report.uncommitted_records_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_refuses_resume() {
        let dir = scratch("nockpt");
        let mut s = CampaignStore::create(&dir).unwrap();
        s.append_offer(&offer("http://fameswap.com/o/1", 0)).unwrap();
        s.sync().unwrap();
        drop(s);
        match CampaignStore::open_resume(&dir) {
            Err(StoreError::Invalid(msg)) => assert!(msg.contains("nothing to resume")),
            Err(other) => panic!("expected Invalid, got {other:?}"),
            Ok(_) => panic!("expected Invalid, got Ok"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_wipes_stale_checkpoint() {
        let dir = scratch("wipe");
        let mut s = CampaignStore::create(&dir).unwrap();
        s.append_offer(&offer("http://fameswap.com/o/1", 0)).unwrap();
        s.sync().unwrap();
        s.write_checkpoint(&checkpoint(&s)).unwrap();
        drop(s);
        let s2 = CampaignStore::create(&dir).unwrap();
        assert_eq!(s2.total_records(), 0);
        assert!(CampaignStore::read_checkpoint(&dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn economy_streams_roundtrip_and_survive_rollback() {
        use economy::event::EventKind;
        let dir = scratch("econ");
        let mut s = CampaignStore::create(&dir).unwrap();
        s.append_offer(&offer("http://fameswap.com/o/1", 0)).unwrap();
        let mut ev = EconomyEvent::blank(0, 1_706_745_600, 2_000_001, EventKind::OrderOpened);
        ev.marketplace = "FameSwap".into();
        ev.order = Some(1);
        s.append_economy_event(&ev).unwrap();
        s.append_price_observation(&PriceObservationRecord {
            marketplace: "FameSwap".into(),
            offer_url: "http://fameswap.com/o/1".into(),
            iteration: 1,
            collected_unix: 1_708_041_600,
            prev_price_usd: 120.0,
            price_usd: 114.5,
        })
        .unwrap();
        s.sync().unwrap();
        s.write_checkpoint(&checkpoint(&s)).unwrap();
        // Uncommitted economy tail: must be rolled back on resume.
        let mut ev2 = EconomyEvent::blank(1, 1_706_745_700, 2_000_002, EventKind::OrderOpened);
        ev2.marketplace = "FameSwap".into();
        s.append_economy_event(&ev2).unwrap();
        s.sync().unwrap();
        drop(s);

        let (_s2, cp, replay, report) = CampaignStore::open_resume(&dir).unwrap();
        assert_eq!(cp.committed_records, 3);
        assert_eq!(report.uncommitted_records_dropped, 1);
        assert_eq!(replay.dataset.offers.len(), 1);
        assert_eq!(replay.economy_events, vec![ev]);
        assert_eq!(replay.price_obs.len(), 1);
        assert_eq!(replay.price_obs[0].price_usd, 114.5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_json_roundtrip_and_validation() {
        let dir = scratch("cpjson");
        let s = CampaignStore::create(&dir).unwrap();
        let cp = checkpoint(&s);
        assert!(cp.validate().is_ok());
        let back = CampaignCheckpoint::parse(&cp.to_json_pretty()).unwrap();
        assert_eq!(back, cp);

        let mut bad = cp.clone();
        bad.schema = "nope/v9".into();
        assert!(bad.validate().is_err());
        let mut bad = cp.clone();
        bad.next_iteration = 99;
        assert!(bad.validate().is_err());
        let mut bad = cp.clone();
        bad.days_between = 7;
        assert!(bad.validate().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
