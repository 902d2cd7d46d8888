//! A shared virtual clock for the discrete-event simulation.
//!
//! The paper's measurement campaign ran from February to June 2024. We model
//! wall-clock time as microseconds since the Unix epoch, held in a shared
//! [`SimClock`] that only moves when the simulation charges time (request
//! latency, crawl politeness delays, inter-iteration gaps). Determinism of
//! the whole study depends on nothing reading the host's real clock.

use foundation::sync::Mutex;
use std::sync::Arc;

/// Microseconds in one second.
pub(crate) const SECOND: u64 = 1_000_000;
/// Microseconds in one minute.
pub(crate) const MINUTE: u64 = 60 * SECOND;
/// Microseconds in one hour.
pub(crate) const HOUR: u64 = 60 * MINUTE;
/// Microseconds in one day.
pub const DAY: u64 = 24 * HOUR;

/// Unix timestamp (seconds) of 2024-02-01 00:00:00 UTC — the start of the
/// paper's collection window.
pub const COLLECTION_START_UNIX: i64 = 1_706_745_600;
/// Unix timestamp (seconds) of 2024-06-30 23:59:59 UTC — the end of the
/// collection window.
// conformance: allow(pub-hygiene) — paper anchor kept as documented API
pub const COLLECTION_END_UNIX: i64 = 1_719_791_999;

/// A shared, monotonically non-decreasing virtual clock.
///
/// Cloning a `SimClock` yields a handle to the *same* clock; all components
/// of a study (fabric, services, crawler, scheduler) share one instance.
#[derive(Clone)]
pub struct SimClock {
    inner: Arc<Mutex<u64>>,
}

impl SimClock {
    /// Create a clock positioned at the start of the paper's collection
    /// window (2024-02-01 UTC).
    pub fn at_collection_start() -> Self {
        Self::at_unix(COLLECTION_START_UNIX)
    }

    /// Create a clock at an arbitrary Unix timestamp (seconds).
    pub fn at_unix(unix_seconds: i64) -> Self {
        Self::at_us((unix_seconds.max(0) as u64) * SECOND)
    }

    /// Create a clock at `us` microseconds since the epoch (a shard
    /// lane's fresh clock).
    pub(crate) fn at_us(us: u64) -> Self {
        SimClock { inner: Arc::new(Mutex::new(us)) }
    }

    /// Create a clock at time zero (useful for unit tests).
    pub fn zero() -> Self {
        Self::at_us(0)
    }

    /// Current virtual time in microseconds since the epoch.
    pub fn now_us(&self) -> u64 {
        *self.inner.lock()
    }

    /// Current virtual time as Unix seconds.
    pub fn now_unix(&self) -> i64 {
        (self.now_us() / SECOND) as i64
    }

    /// Advance the clock by `delta_us` microseconds and return the new time.
    pub fn advance(&self, delta_us: u64) -> u64 {
        let mut t = self.inner.lock();
        *t += delta_us;
        *t
    }

    /// Move the clock forward *to* `target_us` if it is in the future;
    /// a target in the past is a no-op (the clock never goes backwards).
    pub fn advance_to(&self, target_us: u64) -> u64 {
        let mut t = self.inner.lock();
        if target_us > *t {
            *t = target_us;
        }
        *t
    }

    /// Days elapsed since the collection-window start; negative if the clock
    /// predates it.
    pub fn days_into_collection(&self) -> f64 {
        (self.now_unix() - COLLECTION_START_UNIX) as f64 / 86_400.0
    }
}

impl telemetry::VirtualClock for SimClock {
    fn now_us(&self) -> u64 {
        SimClock::now_us(self)
    }
}

impl std::fmt::Debug for SimClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimClock({}us)", self.now_us())
    }
}

/// Render a Unix timestamp (seconds) as a `YYYY-MM-DD` date string using a
/// proleptic Gregorian calendar. Only needs to be right for the study's date
/// range (2005–2026) but is implemented correctly for all of 1970+.
pub fn format_date(unix_seconds: i64) -> String {
    let (y, m, d) = ymd(unix_seconds);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Decompose a Unix timestamp (seconds) into `(year, month, day)` in UTC.
pub fn ymd(unix_seconds: i64) -> (i32, u32, u32) {
    // Civil-from-days algorithm (Howard Hinnant's `days_from_civil` inverse).
    let z = unix_seconds.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// Compose a UTC `(year, month, day)` into a Unix timestamp (seconds at
/// midnight). Inverse of [`ymd`].
pub fn unix_from_ymd(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400);
    let mp = i64::from(if m > 2 { m - 3 } else { m + 9 });
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146_097 + doe - 719_468) * 86_400
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_shared_between_clones() {
        let a = SimClock::zero();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now_us(), 42);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::zero();
        c.advance(100);
        c.advance_to(50);
        assert_eq!(c.now_us(), 100);
        c.advance_to(150);
        assert_eq!(c.now_us(), 150);
    }

    #[test]
    fn collection_window_dates() {
        assert_eq!(format_date(COLLECTION_START_UNIX), "2024-02-01");
        assert_eq!(format_date(COLLECTION_END_UNIX), "2024-06-30");
    }

    #[test]
    fn ymd_roundtrip_known_dates() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (2005, 7, 15),
            (2017, 1, 1),
            (2020, 12, 31),
            (2024, 2, 29),
            (2024, 6, 30),
            (2026, 7, 5),
        ] {
            let ts = unix_from_ymd(y, m, d);
            assert_eq!(ymd(ts), (y, m, d), "roundtrip failed for {y}-{m}-{d}");
        }
    }

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(unix_from_ymd(1970, 1, 1), 0);
        assert_eq!(ymd(0), (1970, 1, 1));
    }

    #[test]
    fn days_into_collection_tracks_advances() {
        let c = SimClock::at_collection_start();
        assert!((c.days_into_collection() - 0.0).abs() < 1e-9);
        c.advance(3 * DAY);
        assert!((c.days_into_collection() - 3.0).abs() < 1e-9);
    }
}
