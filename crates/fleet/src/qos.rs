//! Weighted fair queueing of staged bytes across tenants.
//!
//! A node serving several kernel subsystems (or, in the fleet's
//! framing, several tenants each owning many clients) must decide how
//! fast each tenant may *consume* staging bandwidth relative to the
//! others. The classic answer is
//! deficit-round-robin: each tenant owns a byte bucket that refills at
//! `weight × quantum` per refill tick, and a request is admitted when
//! the bucket covers it. Under saturation every tenant's service rate is
//! proportional to its weight — the property the fleet's tenant
//! isolation gate (and the 1:2:4 proptest) asserts — while an idle
//! tenant's unused share is naturally available to others.
//!
//! The governor lives in *virtual* time:
//! a blocked [`TenantGovernor::admit`] advances the shared clock by
//! `refill_interval` per retry (modeling the stub spinning on a refill
//! timer) and gives up with [`AdmissionError::DeadlineExpired`] after
//! `queue_deadline`. The non-blocking [`TenantGovernor::try_admit`]
//! refills and tests without touching the clock — routers use it to
//! shed flood traffic instead of queueing it.

use std::collections::HashMap;

use lake_core::AdmissionError;
use lake_sim::{Duration, Instant, SharedClock};
use parking_lot::Mutex;

/// Tunables for [`TenantGovernor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosPolicy {
    /// Bytes granted per refill tick per unit of tenant weight.
    pub quantum_bytes: usize,
    /// Virtual time between bucket refills (and the blocked-admit retry
    /// step).
    pub refill_interval: Duration,
    /// Bucket capacity in quanta: a tenant idle for longer than
    /// `burst_quanta` refills stops accumulating credit, so a silent
    /// tenant cannot save up an unbounded burst.
    pub burst_quanta: u64,
    /// How long a blocked admit may wait (in virtual time) before
    /// failing with [`AdmissionError::DeadlineExpired`].
    pub queue_deadline: Duration,
}

impl Default for QosPolicy {
    fn default() -> Self {
        QosPolicy {
            // One quantum covers a typical staged feature row (hundreds
            // of bytes); weights then scale whole rows per tick.
            quantum_bytes: 4 * 1024,
            refill_interval: Duration::from_micros(10),
            burst_quanta: 8,
            queue_deadline: Duration::from_micros(500),
        }
    }
}

#[derive(Debug)]
struct TenantState {
    weight: u64,
    /// Bytes of credit currently in the bucket.
    deficit: u64,
    /// Refill ticks are accounted lazily against this watermark.
    last_refill: Instant,
    served_bytes: u64,
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosCounters {
    /// Requests admitted immediately (bucket already covered them).
    pub admitted: u64,
    /// Requests that had to wait at least one refill tick first.
    pub throttled: u64,
    /// Requests that hit `queue_deadline` and failed.
    pub expired: u64,
    /// Total bytes admitted across all tenants.
    pub bytes_admitted: u64,
}

/// Deficit-round-robin byte governor across tenants (see module docs).
#[derive(Debug)]
pub struct TenantGovernor {
    clock: SharedClock,
    policy: QosPolicy,
    tenants: Mutex<HashMap<u32, TenantState>>,
    counters: Mutex<QosCounters>,
}

impl TenantGovernor {
    /// Creates a governor on `clock` under `policy`. Tenants register
    /// with [`TenantGovernor::set_weight`]; unregistered tenants admit
    /// at weight 1.
    pub fn new(clock: SharedClock, policy: QosPolicy) -> Self {
        TenantGovernor {
            clock,
            policy,
            tenants: Mutex::new(HashMap::new()),
            counters: Mutex::new(QosCounters::default()),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> QosPolicy {
        self.policy
    }

    /// Sets `tenant`'s weight (service share relative to other tenants).
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0` — a zero-weight tenant could never admit.
    pub fn set_weight(&self, tenant: u32, weight: u64) {
        assert!(weight > 0, "tenant weight must be positive");
        let now = self.clock.now();
        let mut tenants = self.tenants.lock();
        let st = tenants.entry(tenant).or_insert_with(|| TenantState {
            weight,
            // Start with one tick of credit so a fresh tenant's first
            // small request does not stall on an empty bucket.
            deficit: weight * self.policy.quantum_bytes as u64,
            last_refill: now,
            served_bytes: 0,
        });
        st.weight = weight;
    }

    /// Total bytes admitted on behalf of `tenant` so far.
    pub fn served_bytes(&self, tenant: u32) -> u64 {
        self.tenants.lock().get(&tenant).map_or(0, |st| st.served_bytes)
    }

    /// Aggregate counters.
    pub fn counters(&self) -> QosCounters {
        *self.counters.lock()
    }

    /// The bucket capacity for a tenant of `weight`.
    fn cap(&self, weight: u64) -> u64 {
        weight * self.policy.quantum_bytes as u64 * self.policy.burst_quanta
    }

    /// Refills `tenant`'s bucket for ticks elapsed up to `now`, then
    /// admits `bytes` if the bucket covers them (or the request exceeds
    /// the bucket capacity outright and the bucket is full — the
    /// oversized allowance: such a request still pays by draining the
    /// bucket to zero, so fairness in served bytes survives). An
    /// admission counts as `throttled` after a wait, else `admitted`.
    fn refill_and_test(&self, tenant: u32, bytes: usize, waited: bool) -> bool {
        let now = self.clock.now();
        let mut tenants = self.tenants.lock();
        let st = tenants.entry(tenant).or_insert_with(|| TenantState {
            weight: 1,
            deficit: self.policy.quantum_bytes as u64,
            last_refill: now,
            served_bytes: 0,
        });
        let tick = self.policy.refill_interval;
        if !tick.is_zero() {
            let elapsed = now.duration_since(st.last_refill);
            let ticks = elapsed.as_nanos() / tick.as_nanos();
            if ticks > 0 {
                let credit = ticks * st.weight * self.policy.quantum_bytes as u64;
                st.deficit = (st.deficit + credit).min(self.cap(st.weight));
                st.last_refill += Duration::from_nanos(ticks * tick.as_nanos());
            }
        }
        // A request larger than the bucket could ever hold admits once
        // the bucket is full; everything else needs full coverage.
        let need = (bytes as u64).min(self.cap(st.weight));
        if st.deficit < need {
            return false;
        }
        st.deficit = st.deficit.saturating_sub(bytes as u64);
        st.served_bytes += bytes as u64;
        let mut c = self.counters.lock();
        let counter = if waited { &mut c.throttled } else { &mut c.admitted };
        *counter += 1;
        c.bytes_admitted += bytes as u64;
        true
    }

    /// Non-blocking admit: refills, then admits `bytes` for `tenant` iff
    /// its bucket covers them *right now*. Never advances the clock.
    pub fn try_admit(&self, tenant: u32, bytes: usize) -> bool {
        self.refill_and_test(tenant, bytes, false)
    }

    /// Blocking admit: waits (advancing the shared clock one refill tick
    /// per retry) until the bucket covers `bytes`, or fails with
    /// [`AdmissionError::DeadlineExpired`] after `queue_deadline`.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::DeadlineExpired`] when the tenant's refill rate
    /// cannot cover `bytes` within the deadline — the flood-shedding
    /// signal.
    pub fn admit(&self, tenant: u32, bytes: usize) -> Result<(), AdmissionError> {
        if self.refill_and_test(tenant, bytes, false) {
            return Ok(());
        }
        let deadline = self.clock.now() + self.policy.queue_deadline;
        let mut waited = Duration::ZERO;
        loop {
            if self.clock.now() >= deadline {
                self.counters.lock().expired += 1;
                return Err(AdmissionError::DeadlineExpired { waited_us: waited.as_micros() });
            }
            self.clock.advance(self.policy.refill_interval);
            waited += self.policy.refill_interval;
            if self.refill_and_test(tenant, bytes, true) {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(clock: &SharedClock) -> TenantGovernor {
        TenantGovernor::new(
            clock.clone(),
            QosPolicy {
                quantum_bytes: 100,
                refill_interval: Duration::from_micros(10),
                burst_quanta: 4,
                queue_deadline: Duration::from_micros(200),
            },
        )
    }

    #[test]
    fn fresh_tenant_admits_one_tick_of_credit() {
        let clock = SharedClock::new();
        let g = governor(&clock);
        g.set_weight(1, 2);
        assert!(g.try_admit(1, 200), "2 × quantum of starting credit");
        assert!(!g.try_admit(1, 1), "bucket drained, no time has passed");
    }

    #[test]
    fn refill_is_proportional_to_weight_and_time() {
        let clock = SharedClock::new();
        let g = governor(&clock);
        g.set_weight(1, 1);
        g.set_weight(3, 3);
        assert!(g.try_admit(1, 100) && g.try_admit(3, 300), "drain starting credit");
        clock.advance(Duration::from_micros(20)); // two ticks
        assert!(g.try_admit(1, 200), "1 × 100 × 2 ticks");
        assert!(!g.try_admit(1, 1));
        assert!(g.try_admit(3, 600), "3 × 100 × 2 ticks");
        assert!(!g.try_admit(3, 1));
    }

    #[test]
    fn bucket_caps_at_burst_quanta() {
        let clock = SharedClock::new();
        let g = governor(&clock);
        g.set_weight(1, 1);
        clock.advance(Duration::from_millis(10)); // ages far beyond the cap
        assert!(g.try_admit(1, 400), "cap = 1 × 100 × 4");
        assert!(!g.try_admit(1, 1), "credit beyond the cap was discarded");
    }

    #[test]
    fn oversized_requests_drain_a_full_bucket() {
        let clock = SharedClock::new();
        let g = governor(&clock);
        g.set_weight(1, 1);
        clock.advance(Duration::from_millis(10)); // bucket full (400)
        assert!(g.try_admit(1, 1000), "oversized admits against a full bucket");
        assert!(!g.try_admit(1, 1), "and drains it to zero");
        // But never against a partial bucket.
        clock.advance(Duration::from_micros(10));
        assert!(!g.try_admit(1, 1000));
    }

    #[test]
    fn blocking_admit_waits_on_the_clock_then_expires() {
        let clock = SharedClock::new();
        let g = governor(&clock);
        g.set_weight(1, 1);
        assert!(g.try_admit(1, 100));
        let t0 = clock.now();
        // 300 bytes needs 3 ticks of refill; deadline is 200us = 20 ticks.
        g.admit(1, 300).expect("refills within deadline");
        assert!(clock.now() > t0, "waiting advanced the virtual clock");

        // With a deadline shorter than the refill a full bucket needs
        // (cap 400 = 4 ticks, deadline 2 ticks), an empty tenant's
        // oversized request must expire instead.
        let tight = TenantGovernor::new(
            clock.clone(),
            QosPolicy { queue_deadline: Duration::from_micros(20), ..g.policy() },
        );
        tight.set_weight(1, 1);
        assert!(tight.try_admit(1, 100), "drain starting credit");
        let AdmissionError::DeadlineExpired { waited_us } = tight.admit(1, 100_000).unwrap_err();
        assert!(waited_us >= 20);
        assert_eq!(tight.counters().expired, 1);
    }

    #[test]
    fn served_bytes_track_admissions() {
        let clock = SharedClock::new();
        let g = governor(&clock);
        g.set_weight(7, 2);
        assert!(g.try_admit(7, 150));
        g.admit(7, 100).unwrap();
        assert_eq!(g.served_bytes(7), 250);
        assert_eq!(g.counters().bytes_admitted, 250);
    }
}
