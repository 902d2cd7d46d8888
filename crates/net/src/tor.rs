//! A minimal Tor overlay model.
//!
//! Underground marketplaces in the paper are onion services: reachable only
//! through the Tor network, slow, and anonymous. We model the pieces that
//! matter for the measurement study:
//!
//! * `.onion` hosts are unreachable without a circuit ([`TorCircuit`]);
//! * circuits are built from three relays (guard, middle, exit) chosen from
//!   a directory, each adding latency;
//! * circuits hide client identity: the fabric logs the exit relay, not the
//!   client, as the requester.

use foundation::rng::{Rng, RngExt};

/// One relay in the simulated Tor directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Relay {
    /// Nickname.
    pub nickname: String,
    /// Per-hop forwarding latency in microseconds.
    pub hop_latency_us: u64,
    /// Relative selection weight (bandwidth-weighted path selection).
    pub weight: u32,
}

/// The relay directory circuits are built from.
#[derive(Debug, Clone)]
pub struct TorDirectory {
    relays: Vec<Relay>,
}

impl TorDirectory {
    /// A small default consensus: enough relays for distinct 3-hop paths.
    pub fn default_consensus() -> TorDirectory {
        let mk = |n: &str, lat: u64, w: u32| Relay {
            nickname: n.to_string(),
            hop_latency_us: lat,
            weight: w,
        };
        TorDirectory {
            relays: vec![
                mk("moria", 40_000, 9),
                mk("ersatz", 55_000, 7),
                mk("panopticon", 80_000, 3),
                mk("zwiebel", 35_000, 10),
                mk("allium", 60_000, 5),
                mk("shallot", 45_000, 8),
                mk("scallion", 70_000, 4),
                mk("leek", 50_000, 6),
            ],
        }
    }

    /// Build a directory from explicit relays.
    ///
    /// # Panics
    /// Panics if fewer than 3 relays are supplied (a circuit needs 3
    /// distinct hops).
    pub fn new(relays: Vec<Relay>) -> TorDirectory {
        assert!(relays.len() >= 3, "a Tor directory needs at least 3 relays");
        TorDirectory { relays }
    }

    /// Number of relays in the consensus.
    pub fn len(&self) -> usize {
        self.relays.len()
    }

    /// `true` when the directory is empty (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.relays.is_empty()
    }

    /// Build a 3-hop circuit with bandwidth-weighted sampling without
    /// replacement.
    pub fn build_circuit<R: Rng + ?Sized>(&self, rng: &mut R) -> TorCircuit {
        let mut pool: Vec<&Relay> = self.relays.iter().collect();
        let mut hops = Vec::with_capacity(3);
        for _ in 0..3 {
            // Weighted choice over the remaining pool.
            let total: u32 = pool.iter().map(|r| r.weight).sum();
            let mut pick = rng.random_range(0..total);
            let mut idx = 0;
            for (i, r) in pool.iter().enumerate() {
                if pick < r.weight {
                    idx = i;
                    break;
                }
                pick -= r.weight;
            }
            hops.push(pool.remove(idx).clone());
        }
        let id = rng.random_range(0..u64::MAX);
        TorCircuit { id, hops }
    }
}

/// A built 3-hop circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct TorCircuit {
    /// Opaque circuit identifier (what the fabric logs instead of a client
    /// identity).
    pub id: u64,
    hops: Vec<Relay>,
}

impl TorCircuit {
    /// The exit relay's nickname — the "source" an onion service observes.
    pub fn exit_nickname(&self) -> &str {
        &self.hops.last().expect("circuit has hops").nickname // conformance: allow(panic-policy) — circuits are built with >= 1 hop
    }

    /// Hop nicknames in path order (guard, middle, exit).
    pub fn path(&self) -> Vec<&str> {
        self.hops.iter().map(|r| r.nickname.as_str()).collect()
    }

    /// Fixed per-request overlay latency: the sum of hop latencies, each
    /// crossed twice (request + response).
    pub fn overlay_latency_us(&self) -> u64 {
        2 * self.hops.iter().map(|r| r.hop_latency_us).sum::<u64>()
    }
}

/// Generate a plausible v3 onion hostname (56 base32 chars + ".onion") from
/// a seed. Deterministic, so marketplace configs can embed stable addresses.
pub fn onion_address(seed: u64) -> String {
    const B32: &[u8] = b"abcdefghijklmnopqrstuvwxyz234567";
    let mut s = String::with_capacity(62);
    let mut x = seed;
    for i in 0..56 {
        x = crate::captcha::splitmix64(x ^ i);
        s.push(B32[(x % 32) as usize] as char);
    }
    s.push_str(".onion");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::rng::SeedableRng;
    use foundation::rng::ChaCha8Rng;

    #[test]
    fn circuit_has_three_distinct_hops() {
        let dir = TorDirectory::default_consensus();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..100 {
            let c = dir.build_circuit(&mut rng);
            let path = c.path();
            assert_eq!(path.len(), 3);
            assert_ne!(path[0], path[1]);
            assert_ne!(path[1], path[2]);
            assert_ne!(path[0], path[2]);
        }
    }

    #[test]
    fn overlay_latency_counts_both_directions() {
        let dir = TorDirectory::new(vec![
            Relay { nickname: "a".into(), hop_latency_us: 10, weight: 1 },
            Relay { nickname: "b".into(), hop_latency_us: 20, weight: 1 },
            Relay { nickname: "c".into(), hop_latency_us: 30, weight: 1 },
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = dir.build_circuit(&mut rng);
        assert_eq!(c.overlay_latency_us(), 2 * (10 + 20 + 30));
    }

    #[test]
    fn weighting_prefers_heavy_relays() {
        let dir = TorDirectory::new(vec![
            Relay { nickname: "heavy".into(), hop_latency_us: 1, weight: 100 },
            Relay { nickname: "light".into(), hop_latency_us: 1, weight: 1 },
            Relay { nickname: "mid".into(), hop_latency_us: 1, weight: 10 },
            Relay { nickname: "mid2".into(), hop_latency_us: 1, weight: 10 },
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut heavy_guard = 0;
        let n = 2000;
        for _ in 0..n {
            let c = dir.build_circuit(&mut rng);
            if c.path()[0] == "heavy" {
                heavy_guard += 1;
            }
        }
        // heavy has ~83% of the weight; allow slack.
        assert!(heavy_guard as f64 / n as f64 > 0.6, "heavy_guard={heavy_guard}");
    }

    #[test]
    fn onion_addresses_are_stable_and_well_formed() {
        let a = onion_address(5);
        let b = onion_address(5);
        let c = onion_address(6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.ends_with(".onion"));
        assert_eq!(a.len(), 62);
        assert!(a[..56].bytes().all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit()));
    }

    #[test]
    #[should_panic(expected = "at least 3 relays")]
    fn tiny_directory_panics() {
        let _ = TorDirectory::new(vec![Relay {
            nickname: "only".into(),
            hop_latency_us: 1,
            weight: 1,
        }]);
    }
}
