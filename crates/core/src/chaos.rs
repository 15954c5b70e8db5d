//! Deterministic chaos injection for the harness itself: seeded faults
//! that exercise every degradation path the campaign engine claims to
//! contain — worker panics, boot failures and torn journal writes.
//!
//! The paper's argument depends on the harness surviving its own
//! faults (a fault injector that dies on a fault proves nothing).
//! Hand-written failing scenarios exercise containment once; chaos mode
//! turns it into a continuously tested property. The campaign asks this
//! policy once per slot and injects the faults itself: a worker panic is
//! raised inside the cell's inject-phase containment boundary, before
//! the use case runs, and a boot failure stands in for the cell's base
//! world.
//!
//! # Determinism contract
//!
//! Every report-affecting decision is a pure function of
//! `(seed, fault kind, slot)` — **never** of worker id, claim order,
//! or wall clock — so a chaos campaign produces byte-identical
//! normalized reports at any `--jobs` count, and CI diffs them exactly
//! like regular runs. Torn journal writes only shape journal
//! durability, which `normalized()` excludes by construction. The rates
//! are constants, so the seed alone names a run's whole fault schedule.

use crate::checkpoint::{fnv64, JournalSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64 — the same generator the synthetic workload uses, kept
/// private per module so chaos decisions cannot couple to workload
/// randomness.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// Each fault's `(salt, permille)`: the salt keeps decisions for
// different faults on one slot independent, and every fault fires
// visibly on a few-thousand-cell grid while most cells stay clean.
/// Slots whose inject phase panics (→ `Crashed`); salt "panic".
const WORKER_PANIC: (u64, u64) = (0x70_61_6e_69_63, 10);
/// Slots whose boot fails (→ `BootFailed`); salt "boot".
const BOOT_FAILURE: (u64, u64) = (0x62_6f_6f_74, 20);
/// Journal fold records written torn (see [`ChaosSink`]); salt "torn".
const TORN_WRITE: (u64, u64) = (0x74_6f_72_6e, 100);

/// The seeded decision engine plus fired-fault counters. Decisions are
/// slot-keyed (see the module docs); counters are recorded into the
/// metrics registry as `campaign.chaos.*` at the end of the run.
#[derive(Debug)]
pub struct ChaosPolicy {
    seed: u64,
    worker_panics: AtomicU64,
    boot_failures: AtomicU64,
    torn_writes: AtomicU64,
}

impl ChaosPolicy {
    /// Builds the policy for one campaign run: `seed` names its whole
    /// fault schedule.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            worker_panics: AtomicU64::new(0),
            boot_failures: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
        }
    }

    /// Whether a fault's seeded roll for `key` fires; counted in `fired`
    /// when it does.
    fn fires(&self, (salt, permille): (u64, u64), key: u64, fired: &AtomicU64) -> bool {
        let roll = splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ splitmix64(key));
        let fires = roll % 1000 < permille;
        if fires {
            fired.fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// Should this slot's inject phase panic? Counted when it fires.
    pub fn worker_panic(&self, slot: u64) -> bool {
        self.fires(WORKER_PANIC, slot, &self.worker_panics)
    }

    /// Should this slot's boot fail? Counted when it fires.
    pub fn boot_failure(&self, slot: u64) -> bool {
        self.fires(BOOT_FAILURE, slot, &self.boot_failures)
    }

    /// Should this journal record be torn? Keyed by the payload hash
    /// (journal writes have no slot identity at the sink layer).
    pub fn torn_write(&self, payload_hash: u64) -> bool {
        self.fires(TORN_WRITE, payload_hash, &self.torn_writes)
    }

    /// Fired-fault counts so far:
    /// `(worker_panics, boot_failures, torn_writes)`.
    pub fn fired(&self) -> (u64, u64, u64) {
        (
            self.worker_panics.load(Ordering::Relaxed),
            self.boot_failures.load(Ordering::Relaxed),
            self.torn_writes.load(Ordering::Relaxed),
        )
    }
}

/// A [`JournalSink`] wrapper that tears a seeded fraction of records —
/// writes only a prefix of the bytes — exercising the journal's
/// torn-tail recovery exactly where a crash would. A checkpoint session
/// wraps its journal only after the header is synced, so every record
/// this sink sees is a fold record.
pub(crate) struct ChaosSink {
    pub(crate) inner: Box<dyn JournalSink>,
    pub(crate) policy: Arc<ChaosPolicy>,
}

impl JournalSink for ChaosSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.policy.torn_write(fnv64(bytes)) {
            return self.inner.append(&bytes[..bytes.len() / 2]);
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{read_header, CheckpointSession, JournalHeader, JournalRecord};
    use crate::stream::{GridFingerprint, PartialFold};

    #[test]
    fn decisions_are_slot_keyed_and_reproducible() {
        let a = ChaosPolicy::new(7);
        let b = ChaosPolicy::new(7);
        for slot in 0..5_000 {
            assert_eq!(a.worker_panic(slot), b.worker_panic(slot));
            assert_eq!(a.boot_failure(slot), b.boot_failure(slot));
        }
        assert_eq!(a.fired(), b.fired());
        let (panics, boots, _) = a.fired();
        assert!(panics > 0 && boots > 0, "rates actually fire");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = ChaosPolicy::new(1);
        let b = ChaosPolicy::new(2);
        let plan = |p: &ChaosPolicy| (0..2_000).map(|s| p.worker_panic(s)).collect::<Vec<_>>();
        assert_ne!(plan(&a), plan(&b));
    }

    #[test]
    fn chaos_sink_tears_records_but_never_the_header() {
        // The first seed whose policy tears the fold record below.
        let record = JournalRecord::Fold { worker: 1, seq: 1, slots: vec![0], fold: Box::default() };
        let hash = fnv64(record.encode().unwrap().as_bytes());
        let seed = (0..).find(|&seed| ChaosPolicy::new(seed).torn_write(hash)).unwrap();
        let policy = Arc::new(ChaosPolicy::new(seed));
        let header = JournalHeader {
            grid: GridFingerprint {
                use_cases: vec!["XSA-212-crash".into()],
                versions: vec![hvsim::XenVersion::V4_6],
                modes: vec![crate::Mode::Injection],
                trials: 3,
            },
            shard: None,
        };
        let path = std::env::temp_dir()
            .join(format!("hvsim-chaos-{}-torn.journal", std::process::id()));
        let mut session =
            CheckpointSession::create(&path, header.clone(), Some(Arc::clone(&policy)))
                .unwrap();
        let torn = |policy: &ChaosPolicy| policy.fired().2;
        assert_eq!(torn(&policy), 0, "the header is written before chaos wraps the journal");
        session.record_fold(1, 1, vec![0], PartialFold::default());
        session.writer.close();
        assert_eq!(torn(&policy), 1, "the fold record is torn");
        assert_eq!(read_header(&path).unwrap(), header, "the journal keeps its identity");
        let resumed = CheckpointSession::resume(&path, &header, None).unwrap();
        assert!(!resumed.is_done(0), "the torn record is cut off on resume");
        std::fs::remove_file(&path).unwrap();
    }
}
