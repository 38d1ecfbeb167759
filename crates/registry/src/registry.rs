//! A single registry: lock-free capture slots + the committed ring
//! buffer.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use parking_lot::Mutex;

use lake_sim::Instant;

use crate::schema::Schema;
use crate::vector::FeatureVector;

/// One atomic capture slot per schema key. `capture_feature` is a store,
/// `capture_feature_incr` a fetch-add — callable from any thread with no
/// additional locking, which is the §5.3 design goal.
struct CaptureSlot {
    value: AtomicI64,
    present: AtomicBool,
}

struct Ring {
    vectors: std::collections::VecDeque<FeatureVector>,
    capacity: usize,
    /// Count of vectors dropped by ring overwrite (observability).
    overwritten: u64,
}

/// A feature registry: schema + capture slots + ring buffer.
pub struct Registry {
    schema: Schema,
    slots: Vec<CaptureSlot>,
    ts_begin: AtomicU64,
    capture_open: AtomicBool,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.ring.lock();
        f.debug_struct("Registry")
            .field("features", &self.schema.len())
            .field("window", &ring.capacity)
            .field("committed", &ring.vectors.len())
            .finish()
    }
}

impl Registry {
    /// Creates a registry with the given schema and ring window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(schema: Schema, window: usize) -> Self {
        assert!(window > 0, "window must be non-zero");
        let slots = (0..schema.len())
            .map(|_| CaptureSlot { value: AtomicI64::new(0), present: AtomicBool::new(false) })
            .collect();
        Registry {
            schema,
            slots,
            ts_begin: AtomicU64::new(0),
            capture_open: AtomicBool::new(false),
            ring: Mutex::new(Ring {
                vectors: std::collections::VecDeque::with_capacity(window),
                capacity: window,
                overwritten: 0,
            }),
        }
    }

    /// The registry's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Opens capture of a new feature vector at `ts` (§5.3: sets
    /// `ts_begin`). Re-opening an already-open capture resets it.
    pub fn begin_capture(&self, ts: Instant) {
        for slot in &self.slots {
            slot.present.store(false, Ordering::Release);
            slot.value.store(0, Ordering::Release);
        }
        self.ts_begin.store(ts.as_nanos(), Ordering::Release);
        self.capture_open.store(true, Ordering::Release);
    }

    /// True if a capture is currently open.
    pub fn capture_open(&self) -> bool {
        self.capture_open.load(Ordering::Acquire)
    }

    /// Sets feature `key` on the open vector (lock-free; last write
    /// wins, matching "add/overwrite the current value" in Table 1).
    /// Returns `false` for unknown keys.
    pub fn capture(&self, key: &str, value: &[u8]) -> bool {
        let Some(index) = self.schema.index_of(key) else { return false };
        let mut buf = [0u8; 8];
        let n = value.len().min(8);
        buf[..n].copy_from_slice(&value[..n]);
        // Sign handling matches vector::le_i64: stores are raw words; the
        // declared size masks on read.
        self.slots[index].value.store(i64::from_le_bytes(buf), Ordering::Release);
        self.slots[index].present.store(true, Ordering::Release);
        true
    }

    /// Increments feature `key` by `delta` (lock-free fetch-add — the
    /// `capture_feature_incr` idiom of §5.3). Returns `false` for unknown
    /// keys.
    pub fn capture_incr(&self, key: &str, delta: i64) -> bool {
        let Some(index) = self.schema.index_of(key) else { return false };
        self.slots[index].value.fetch_add(delta, Ordering::AcqRel);
        self.slots[index].present.store(true, Ordering::Release);
        true
    }

    /// Commits the open vector at `ts` (sets `ts_end`), materializing
    /// history arrays from the previous committed vector, pushing into
    /// the ring (overwriting the oldest when full), and leaving capture
    /// closed. Incremental features (and any captured value) carry over
    /// as the starting point of the next capture via [`Registry::begin_capture`]
    /// resetting them — per the paper, each `begin` starts fresh.
    ///
    /// Returns `false` if no capture was open.
    pub fn commit(&self, ts: Instant) -> bool {
        if !self.capture_open.swap(false, Ordering::AcqRel) {
            return false;
        }
        let ts_begin = Instant::from_nanos(self.ts_begin.load(Ordering::Acquire));
        let mut ring = self.ring.lock();

        let mut keys = Vec::with_capacity(self.schema.len());
        let mut values = Vec::with_capacity(self.schema.len());
        for index in 0..self.schema.len() {
            let (key, spec) = self.schema.spec_at(index).expect("index in range");
            let current = self.slots[index].value.load(Ordering::Acquire);
            let current_bytes = &current.to_le_bytes()[..spec.size];
            let mut buf = Vec::with_capacity(spec.stored_bytes());
            buf.extend_from_slice(current_bytes);
            if spec.entries > 1 {
                // Shift history: samples 1.. come from the previous
                // vector's samples 0..entries-1 (§5.2).
                let prev = ring.vectors.back().and_then(|fv| fv.get_raw(key));
                for n in 1..spec.entries {
                    let sample_start = (n - 1) * spec.size;
                    match prev.and_then(|p| p.get(sample_start..sample_start + spec.size)) {
                        Some(s) => buf.extend_from_slice(s),
                        None => buf.extend_from_slice(&vec![0u8; spec.size]),
                    }
                }
            }
            keys.push(key.to_owned());
            values.push(buf);
        }

        if ring.vectors.len() == ring.capacity {
            ring.vectors.pop_front();
            ring.overwritten += 1;
        }
        ring.vectors.push_back(FeatureVector::new(ts_begin, ts, keys, values));
        true
    }

    /// `get_features(ts)`: with `Some(ts)`, the first vector covering
    /// `ts`; with `None`, the whole ring (§5.4).
    pub fn get(&self, ts: Option<Instant>) -> Vec<FeatureVector> {
        let ring = self.ring.lock();
        match ts {
            Some(ts) => ring.vectors.iter().find(|fv| fv.covers(ts)).cloned().into_iter().collect(),
            None => ring.vectors.iter().cloned().collect(),
        }
    }

    /// `truncate_features(ts)`: removes vectors with `ts_end` older than
    /// `ts` (`None` = all), but always preserves the most recent vector
    /// when the schema has history features so the next commit can
    /// populate them (§5.4).
    pub fn truncate(&self, ts: Option<Instant>) -> usize {
        let keep_last = self.schema.has_history();
        let mut ring = self.ring.lock();
        let before = ring.vectors.len();
        let last = if keep_last { ring.vectors.pop_back() } else { None };
        match ts {
            Some(ts) => ring.vectors.retain(|fv| fv.ts_end() >= ts),
            None => ring.vectors.clear(),
        }
        if let Some(last) = last {
            ring.vectors.push_back(last);
        }
        before - ring.vectors.len()
    }

    /// Number of committed vectors currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.lock().vectors.len()
    }

    /// True if the ring holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vectors dropped to ring overwrite since creation.
    pub fn overwritten(&self) -> u64 {
        self.ring.lock().overwritten
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn reg() -> Registry {
        Registry::new(Schema::builder().feature("pend", 8, 1).feature("lat", 8, 3).build(), 4)
    }

    fn commit_with(r: &Registry, t: u64, pend: i64, lat: i64) {
        r.begin_capture(Instant::from_nanos(t));
        r.capture("pend", &pend.to_le_bytes());
        r.capture("lat", &lat.to_le_bytes());
        assert!(r.commit(Instant::from_nanos(t + 10)));
    }

    #[test]
    fn debug_format_does_not_deadlock() {
        let r = reg();
        commit_with(&r, 100, 3, 250);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(format!("{r:?}")).ok());
        let out = rx.recv_timeout(std::time::Duration::from_secs(5)).expect("Debug hung");
        assert_eq!(out, "Registry { features: 2, window: 4, committed: 1 }");
    }

    #[test]
    fn capture_commit_get() {
        let r = reg();
        commit_with(&r, 100, 3, 250);
        let got = r.get(None);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get_i64("pend"), Some(3));
        assert_eq!(got[0].ts_begin(), Instant::from_nanos(100));
        assert_eq!(got[0].ts_end(), Instant::from_nanos(110));
    }

    #[test]
    fn history_shifts_across_commits() {
        let r = reg();
        commit_with(&r, 100, 1, 10);
        commit_with(&r, 200, 2, 20);
        commit_with(&r, 300, 3, 30);
        let got = r.get(None);
        let s = r.schema().clone();
        let last = got.last().unwrap();
        assert_eq!(last.get_i64_history(&s, "lat", 0), Some(30));
        assert_eq!(last.get_i64_history(&s, "lat", 1), Some(20));
        assert_eq!(last.get_i64_history(&s, "lat", 2), Some(10));
        // first vector's history back-fills with zeros
        assert_eq!(got[0].get_i64_history(&s, "lat", 1), Some(0));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = reg();
        for i in 0..6 {
            commit_with(&r, 100 * (i + 1), i as i64, 0);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 2);
        let got = r.get(None);
        assert_eq!(got[0].get_i64("pend"), Some(2)); // 0 and 1 overwritten
    }

    #[test]
    fn get_by_timestamp_matches_covering_vector() {
        let r = reg();
        commit_with(&r, 100, 1, 0); // covers 100..=110
        commit_with(&r, 200, 2, 0); // covers 200..=210
        let hit = r.get(Some(Instant::from_nanos(205)));
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].get_i64("pend"), Some(2));
        assert!(r.get(Some(Instant::from_nanos(150))).is_empty());
    }

    #[test]
    fn truncate_preserves_most_recent_with_history() {
        let r = reg();
        commit_with(&r, 100, 1, 10);
        commit_with(&r, 200, 2, 20);
        commit_with(&r, 300, 3, 30);
        let removed = r.truncate(None);
        assert_eq!(removed, 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(None)[0].get_i64("pend"), Some(3));
        // Next commit still sees the preserved history.
        commit_with(&r, 400, 4, 40);
        let s = r.schema().clone();
        let last = r.get(None).last().unwrap().clone();
        assert_eq!(last.get_i64_history(&s, "lat", 1), Some(30));
    }

    #[test]
    fn truncate_without_history_clears_everything() {
        let r = Registry::new(Schema::builder().feature("x", 8, 1).build(), 4);
        r.begin_capture(Instant::from_nanos(1));
        r.capture("x", &1i64.to_le_bytes());
        r.commit(Instant::from_nanos(2));
        assert_eq!(r.truncate(None), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn incr_accumulates_and_unknown_keys_rejected() {
        let r = reg();
        r.begin_capture(Instant::from_nanos(1));
        assert!(r.capture_incr("pend", 1));
        assert!(r.capture_incr("pend", 1));
        assert!(r.capture_incr("pend", -1));
        assert!(!r.capture_incr("nope", 1));
        assert!(!r.capture("nope", &[0; 8]));
        r.commit(Instant::from_nanos(2));
        assert_eq!(r.get(None)[0].get_i64("pend"), Some(1));
    }

    #[test]
    fn commit_without_begin_is_rejected() {
        let r = reg();
        assert!(!r.commit(Instant::from_nanos(5)));
        assert!(r.is_empty());
    }

    #[test]
    fn concurrent_capture_from_many_threads() {
        // The §5.3 property: instrumentation calls on arbitrary threads,
        // no locking discipline. 8 threads each add 1000 increments.
        let r = std::sync::Arc::new(reg());
        r.begin_capture(Instant::from_nanos(1));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.capture_incr("pend", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        r.commit(Instant::from_nanos(2));
        assert_eq!(r.get(None)[0].get_i64("pend"), Some(8000));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::schema::Schema;
    use proptest::prelude::*;

    proptest! {
        /// The ring never exceeds its window and commits are ordered by
        /// ts_end.
        #[test]
        fn ring_bounds_and_order(commits in 1usize..40, window in 1usize..8) {
            let r = Registry::new(
                Schema::builder().feature("x", 8, 2).build(),
                window,
            );
            for i in 0..commits {
                let t = (i as u64 + 1) * 100;
                r.begin_capture(Instant::from_nanos(t));
                r.capture("x", &(i as i64).to_le_bytes());
                r.commit(Instant::from_nanos(t + 1));
                prop_assert!(r.len() <= window);
            }
            let got = r.get(None);
            for w in got.windows(2) {
                prop_assert!(w[0].ts_end() < w[1].ts_end());
            }
            prop_assert_eq!(r.len(), commits.min(window));
        }

        /// History sample n of commit k equals the scalar captured at
        /// commit k-n.
        #[test]
        fn history_is_shifted_scalars(values in proptest::collection::vec(-1000i64..1000, 3..12)) {
            let r = Registry::new(
                Schema::builder().feature("v", 8, 3).build(),
                64,
            );
            for (i, &v) in values.iter().enumerate() {
                let t = (i as u64 + 1) * 10;
                r.begin_capture(Instant::from_nanos(t));
                r.capture("v", &v.to_le_bytes());
                r.commit(Instant::from_nanos(t + 1));
            }
            let got = r.get(None);
            let schema = r.schema().clone();
            for (k, fv) in got.iter().enumerate() {
                for n in 0..3usize {
                    let expected = if n <= k { values[k - n] } else { 0 };
                    prop_assert_eq!(fv.get_i64_history(&schema, "v", n), Some(expected));
                }
            }
        }
    }
}
