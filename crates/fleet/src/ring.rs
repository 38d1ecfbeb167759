//! Consistent-hash routing of model keys onto lakeD shards.
//!
//! The fleet must answer "which shard owns model K?" such that adding or
//! removing a shard remaps only ~1/N of the keys — anything coarser
//! (modulo routing) would invalidate nearly every shard's model cache on
//! a topology change. The classic fix is a consistent-hash ring: every
//! shard projects `vnodes` pseudo-random points onto a 64-bit circle and
//! a key routes to the shard owning the first point at or after the
//! key's own hash. Virtual nodes smooth ownership variance: with ~128
//! points per shard the largest arc is within a few percent of 1/N.
//!
//! The ring also answers "and who is the *backup*?" — the next distinct
//! shard clockwise — which is what cross-shard failover and model
//! replication key off: the backup's identity is a pure function of the
//! ring, so every router (and every restarted router) agrees on it
//! without coordination.

/// Default virtual nodes per shard; enough that per-shard ownership
/// stays within a few percent of fair for single-digit shard counts.
pub const DEFAULT_VNODES: usize = 128;

/// SplitMix64 finalizer: a cheap, well-diffused 64-bit mix. Used for
/// both vnode placement and key hashing (with distinct salts) so the
/// ring is deterministic across processes and runs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Where shard `shard`'s `vnode`-th point lands on the circle.
fn vnode_point(shard: usize, vnode: usize) -> u64 {
    // Mix twice so (shard, vnode) pairs that differ in one coordinate
    // land far apart even for tiny indices.
    splitmix64(splitmix64((shard as u64) << 32 | vnode as u64) ^ 0xC0FF_EE00_F1EE_7D00)
}

/// Where key `key` lands on the circle. Salted differently from vnode
/// points so a model id can never sit exactly on its own shard boundary
/// by construction.
fn key_point(key: u64) -> u64 {
    splitmix64(key ^ 0x5EED_5EED_5EED_5EED)
}

/// A consistent-hash ring over shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` sorted by point (ties broken by shard id, which
    /// keeps the ring deterministic even under a 64-bit collision).
    points: Vec<(u64, usize)>,
    vnodes: usize,
}

impl HashRing {
    /// A ring over shards `0..n` with [`DEFAULT_VNODES`] points each.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_vnodes(n, DEFAULT_VNODES)
    }

    /// A ring over shards `0..n` with `vnodes` points per shard.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `vnodes == 0`.
    pub fn with_vnodes(n: usize, vnodes: usize) -> Self {
        assert!(n > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a shard needs at least one virtual node");
        let mut ring = HashRing { points: Vec::new(), vnodes };
        for shard in 0..n {
            ring.add_shard(shard);
        }
        ring
    }

    /// Adds `shard`'s virtual nodes to the ring. Only keys whose arcs the
    /// new points split move — everything else keeps its owner.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is already present.
    pub fn add_shard(&mut self, shard: usize) {
        assert!(!self.holds(shard), "shard {shard} already on the ring");
        for vnode in 0..self.vnodes {
            self.points.push((vnode_point(shard, vnode), shard));
        }
        self.points.sort_unstable();
    }

    /// Removes `shard` from the ring. Only the keys it owned move (each
    /// to the next shard clockwise).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not present, or if it is the last shard.
    pub fn remove_shard(&mut self, shard: usize) {
        assert!(self.holds(shard), "shard {shard} not on the ring");
        assert!(self.points.iter().any(|&(_, s)| s != shard), "cannot remove the last shard");
        self.points.retain(|&(_, s)| s != shard);
    }

    fn holds(&self, shard: usize) -> bool {
        self.points.iter().any(|&(_, s)| s == shard)
    }

    /// Index into `points` of the first point at or after `key`'s hash,
    /// wrapping past the top of the circle.
    fn successor(&self, key: u64) -> usize {
        let h = key_point(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        if idx == self.points.len() {
            0
        } else {
            idx
        }
    }

    /// The shard owning `key`.
    pub fn route(&self, key: u64) -> usize {
        self.points[self.successor(key)].1
    }

    /// The owning shard and its backup: the next *distinct* shard
    /// clockwise from the owner. On a single-shard ring the backup is the
    /// primary itself.
    pub fn route_pair(&self, key: u64) -> (usize, usize) {
        let start = self.successor(key);
        let primary = self.points[start].1;
        for step in 1..self.points.len() {
            let (_, shard) = self.points[(start + step) % self.points.len()];
            if shard != primary {
                return (primary, shard);
            }
        }
        (primary, primary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::new(4);
        for key in 0..1000u64 {
            let a = ring.route(key);
            assert!(a < 4);
            assert_eq!(a, ring.route(key), "same key, same shard");
            let (p, b) = ring.route_pair(key);
            assert_eq!(p, a);
            assert_ne!(p, b, "4-shard ring always has a distinct backup");
        }
    }

    #[test]
    fn single_shard_backs_up_onto_itself() {
        let ring = HashRing::new(1);
        assert_eq!(ring.route_pair(42), (0, 0));
    }

    #[test]
    fn ownership_is_roughly_fair() {
        let ring = HashRing::new(4);
        let mut owned = [0usize; 4];
        let keys = 8000u64;
        for key in 0..keys {
            owned[ring.route(key)] += 1;
        }
        let fair = keys as usize / 4;
        for (shard, &n) in owned.iter().enumerate() {
            assert!(
                n > fair / 2 && n < fair * 2,
                "shard {shard} owns {n} of {keys} keys (fair {fair})"
            );
        }
    }

    #[test]
    fn adding_a_shard_only_moves_keys_to_it() {
        let mut ring = HashRing::new(3);
        let before: Vec<usize> = (0..2000u64).map(|k| ring.route(k)).collect();
        ring.add_shard(3);
        let mut moved = 0usize;
        for (k, &was) in before.iter().enumerate() {
            let now = ring.route(k as u64);
            if now != was {
                assert_eq!(now, 3, "a remapped key may only move TO the new shard");
                moved += 1;
            }
        }
        assert!(moved > 0, "a new shard must take some keys");
        assert!(moved < 2000 / 2, "a new shard must not take most keys (took {moved})");
    }

    #[test]
    fn removing_a_shard_only_moves_its_keys() {
        let mut ring = HashRing::new(4);
        let before: Vec<usize> = (0..2000u64).map(|k| ring.route(k)).collect();
        ring.remove_shard(2);
        for (k, &was) in before.iter().enumerate() {
            let now = ring.route(k as u64);
            if was != 2 {
                assert_eq!(now, was, "key {k} moved although its shard survived");
            } else {
                assert_ne!(now, 2, "key {k} still routes to the removed shard");
            }
        }
    }

    #[test]
    fn backup_is_the_next_distinct_shard() {
        let ring = HashRing::new(3);
        for key in 0..500u64 {
            let (p, b) = ring.route_pair(key);
            assert_ne!(p, b);
            assert!(b < 3);
        }
    }

    #[test]
    #[should_panic(expected = "already on the ring")]
    fn duplicate_shard_panics() {
        HashRing::new(2).add_shard(1);
    }
}
