//! The calibration kernel: a fixed piece of work owned by the benchmark
//! that gauges how fast the host runs right now.
//!
//! The host's speed drifts by tens of percent over tens of seconds
//! (neighbours on a shared machine), and the same instructions then take
//! longer in wall and CPU time alike. The kernel runs before and after
//! every timed window of a run, one thread per CPU the pipeline may use;
//! each window is divided by the mean of its two gauges and scaled by
//! `REFERENCE_S`, so it reads as seconds on the reference host and moves
//! only when the program's own work does. The windows are short (one to
//! three seconds), so the gauges around one see the same host. The kernel
//! shares no code with the program, so a change to the program never
//! moves it.
//!
//! The work mirrors the program's mix: building and tokenizing text,
//! sorting and deduplicating strings, ordered-map inserts and lookups,
//! and dependent loads from a table larger than the per-core caches.
//! The tables are allocated once, so a gauge neither faults in fresh
//! pages nor raises the process's peak resident set as the run goes on.

use crate::sys;
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall seconds one kernel run takes on the reference host (a 2-CPU
/// Xeon VM, `nproc` 2), one thread per CPU: the median of 40 gauges.
/// Normalised times read as seconds on that host.
pub const REFERENCE_S: f64 = 0.3565;

/// Words of text each thread builds per round.
const WORDS: usize = 24_000;
/// Entries in each thread's lookup table (8 bytes each).
const TABLE: usize = 1 << 19;
/// Dependent table loads per round.
const LOADS: usize = 1 << 19;
/// Rounds per kernel run.
const ROUNDS: u64 = 6;

/// One kernel run: wall seconds, and CPU seconds per thread.
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    /// Wall seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds of the process over the run, divided
    /// by the kernel's threads.
    pub cpu_s: f64,
}

impl Gauge {
    /// The mean of two gauges, for the window between them.
    pub fn mean(a: Gauge, b: Gauge) -> Gauge {
        Gauge {
            wall_s: (a.wall_s + b.wall_s) / 2.0,
            cpu_s: (a.cpu_s + b.cpu_s) / 2.0,
        }
    }
}

/// The kernel's per-thread lookup tables, filled once.
pub struct Calibrator {
    tables: Vec<Vec<u64>>,
}

impl Calibrator {
    /// Tables for `threads` threads, then one untimed warm-up run.
    pub fn new(threads: usize) -> Calibrator {
        let tables = (0..threads.max(1) as u64)
            .map(|t| {
                let mut next = xorshift(0x243f_6a88_85a3_08d3 ^ t);
                (0..TABLE).map(|_| next()).collect()
            })
            .collect();
        let calibrator = Calibrator { tables };
        calibrator.gauge();
        calibrator
    }

    /// Run the kernel on every thread at once and time it.
    pub fn gauge(&self) -> Gauge {
        let before = sys::usage();
        let start = Instant::now();
        let sum: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .tables
                .iter()
                .enumerate()
                .map(|(t, table)| {
                    s.spawn(move || {
                        (0..ROUNDS)
                            .map(|r| kernel(table, 0x9e37_79b9_7f4a_7c15 ^ ((t as u64) << 32) ^ r))
                            .fold(0u64, u64::wrapping_add)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(0))
                .fold(0, u64::wrapping_add)
        });
        std::hint::black_box(sum);
        Gauge {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: (sys::usage().cpu_s - before.cpu_s) / self.tables.len() as f64,
        }
    }
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// One thread's round of the kernel; returns a checksum so nothing is
/// optimised away.
fn kernel(table: &[u64], seed: u64) -> u64 {
    let mut next = xorshift(seed);
    let mut sum = 0u64;

    // Text: build words, join them, tokenize and count.
    let mut words: Vec<String> = (0..WORDS)
        .map(|_| {
            let len = 3 + next() % 10;
            (0..len).map(|_| (b'a' + (next() % 26) as u8) as char).collect()
        })
        .collect();
    let text = words.join(" ");
    let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
    for word in text.split(' ') {
        *counts.entry(word).or_default() += 1;
    }
    sum += counts.len() as u64;

    // Strings: sort, deduplicate, index and look up.
    words.sort_unstable();
    words.dedup();
    let index: BTreeMap<&str, usize> = words
        .iter()
        .enumerate()
        .map(|(i, w)| (w.as_str(), i))
        .collect();
    for w in text.split(' ').step_by(3) {
        sum += index.get(w).copied().unwrap_or(0) as u64;
    }

    // Memory: dependent loads from a table larger than the caches.
    let mut at = (next() as usize) % table.len();
    for i in 0..LOADS as u64 {
        let v = table[at];
        sum = sum.wrapping_add(v);
        // Mixing in the step keeps the walk out of short cycles.
        at = ((v ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % table.len() as u64) as usize;
    }
    sum
}
