//! [`IdMap`]: a hash map keyed by engine-allocated `u64` ids.
//!
//! The online admission path looks ids up on every operation: the
//! incremental engine's id → slot index, and the replay drivers' trace id
//! → engine id maps. std's default SipHash is keyed and collision
//! resistant, which is what a map fed by untrusted clients needs, but on
//! the replay path it was the largest cost after repacks. The ids inserted
//! here are allocated sequentially by an engine or read from an op trace
//! the operator supplies, so a fixed mixing function is enough:
//! [`IdHasher`] runs each key through the [`crate::rng::splitmix64`]
//! finalizer, which spreads sequential ids over every bucket bit. Looking
//! up a client-chosen id cannot lengthen a probe chain, and a trace
//! crafted to collide could only slow down its own replay.
//!
//! Maps whose keys a network client picks (for example the service's
//! per-request dedup window, keyed by the client's request id) keep std's
//! SipHash: with an unkeyed hash one client could choose ids that collide
//! and slow the service down for everyone.

use crate::rng::splitmix64;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `u64`-keyed [`HashMap`] hashed by [`IdHasher`]. Build one with
/// `IdMap::default()` or `IdMap::with_capacity_and_hasher(n, Default::default())`.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// The splitmix64 finalizer as a [`Hasher`] for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.hash = splitmix64(self.hash ^ x);
    }

    /// Byte-wise fallback for non-`u64` keys: eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn map_round_trips_ids() {
        let mut m: IdMap<u64> = IdMap::default();
        for id in 0..10_000u64 {
            m.insert(id, id * 3);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|id| m[&id] == id * 3));
        assert_eq!(m.remove(&17), Some(51));
        assert!(!m.contains_key(&17));
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // Buckets are picked by the low bits: 1024 sequential ids must land
        // in (nearly) 1024 distinct low-10-bit values, not a handful.
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut seen = [false; 1024];
        for id in 0..1024u64 {
            seen[(build.hash_one(id) & 1023) as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 600);
    }

    #[test]
    fn byte_fallback_matches_word_write() {
        let mut a = IdHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = IdHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
