//! Deterministic chaos injection for the harness itself: seeded faults
//! that exercise every degradation path the campaign engine claims to
//! contain — worker panics, transient boot failures, cells that blow
//! their deadline, claim stalls, and torn journal writes.
//!
//! The paper's argument depends on the harness surviving its own
//! faults (a fault injector that dies on a fault proves nothing), and
//! PR 2's containment story was so far only exercised by hand-written
//! failing scenarios. Chaos mode turns it into a continuously tested
//! property.
//!
//! # Determinism contract
//!
//! Every report-affecting decision is a pure function of
//! `(seed, fault kind, slot)` — **never** of worker id, claim order,
//! or wall clock — so a chaos campaign produces byte-identical
//! normalized reports at any `--jobs` count, and CI diffs them exactly
//! like regular runs. Claim stalls and torn journal writes only shape
//! wall-clock time and journal durability, which `normalized()`
//! excludes by construction.

use crate::checkpoint::{fnv64, JournalSink};
use crate::injector::Injector;
use crate::model::IntrusionModel;
use crate::monitor::Monitor;
use crate::scenario::{ScenarioOutcome, UseCase};
use guestos::World;
use hvsim_mem::DomainId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64 — the same generator the synthetic workload uses, kept
/// private per module so chaos decisions cannot couple to workload
/// randomness.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-fault salts: decisions for different fault kinds on the same
/// slot are independent.
const SALT_PANIC: u64 = 0x70_61_6e_69_63; // "panic"
const SALT_BOOT: u64 = 0x62_6f_6f_74; // "boot"
const SALT_SLOW: u64 = 0x73_6c_6f_77; // "slow"
const SALT_STALL: u64 = 0x73_74_61_6c_6c; // "stall"
const SALT_TORN: u64 = 0x74_6f_72_6e; // "torn"

/// Chaos fault rates, in permille per slot, plus the seed that makes
/// the whole fault schedule reproducible. The seed is the only setting:
/// every run uses the rates of [`ChaosConfig::standard`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Permille of slots whose inject phase panics (→ `Crashed`).
    worker_panic_permille: u32,
    /// Permille of slots whose boot suffers forced transient failures
    /// (some recover within the retry budget, some exhaust it →
    /// `BootFailed`).
    transient_boot_permille: u32,
    /// Permille of slots slowed past the cell deadline (→ `TimedOut`;
    /// inert when no deadline is configured).
    slowdown_permille: u32,
    /// Permille of slots whose worker stalls briefly between claiming
    /// the slot and running it (wall-clock only — never visible in a
    /// normalized report).
    claim_stall_permille: u32,
    /// Permille of journal fold records written torn (a prefix of the
    /// bytes), exercising torn-tail recovery. The header is written
    /// before chaos wraps the journal, so it stays identifiable.
    torn_write_permille: u32,
}

impl ChaosConfig {
    /// The CI fault matrix: every fault kind enabled at rates that
    /// degrade a few-thousand-cell grid visibly but leave most cells
    /// clean.
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            worker_panic_permille: 10,
            transient_boot_permille: 20,
            slowdown_permille: 5,
            claim_stall_permille: 10,
            torn_write_permille: 100,
        }
    }
}

/// The seeded decision engine plus fired-fault counters. Decisions are
/// slot-keyed (see the module docs); counters are recorded into the
/// metrics registry as `campaign.chaos.*` at the end of the run.
#[derive(Debug)]
pub struct ChaosPolicy {
    config: ChaosConfig,
    worker_panics: AtomicU64,
    transient_boots: AtomicU64,
    slowdowns: AtomicU64,
    claim_stalls: AtomicU64,
    torn_writes: AtomicU64,
}

impl ChaosPolicy {
    /// Builds the policy for one campaign run.
    pub fn new(config: ChaosConfig) -> Self {
        Self {
            config,
            worker_panics: AtomicU64::new(0),
            transient_boots: AtomicU64::new(0),
            slowdowns: AtomicU64::new(0),
            claim_stalls: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
        }
    }

    /// The raw seeded roll for one (fault, key) pair, in `0..`.
    fn roll(&self, salt: u64, key: u64) -> u64 {
        splitmix64(self.config.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ splitmix64(key))
    }

    fn fires(&self, salt: u64, key: u64, permille: u32) -> bool {
        permille > 0 && self.roll(salt, key) % 1000 < u64::from(permille)
    }

    /// Should this slot's inject phase panic? Counted when it fires.
    pub fn worker_panic(&self, slot: u64) -> bool {
        let fires = self.fires(SALT_PANIC, slot, self.config.worker_panic_permille);
        if fires {
            self.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// How many forced transient boot failures this slot suffers
    /// (0 = none). The count is drawn from `1..=retries + 2`, so some
    /// slots recover inside the retry budget (visible as retries) and
    /// some exhaust it (visible as `BootFailed`) — both containment
    /// paths get exercised by one knob.
    pub fn transient_boot_faults(&self, slot: u64, retries: u32) -> u32 {
        if !self.fires(SALT_BOOT, slot, self.config.transient_boot_permille) {
            return 0;
        }
        self.transient_boots.fetch_add(1, Ordering::Relaxed);
        let spread = u64::from(retries) + 2;
        1 + (self.roll(SALT_BOOT ^ 0xff, slot) % spread) as u32
    }

    /// How long to slow this slot down, if at all: 2× the deadline, so
    /// the deadline relabel is unambiguous. Panic takes precedence —
    /// a cell that panics never reaches its slowdown.
    pub fn slowdown(&self, slot: u64, deadline: Option<Duration>) -> Option<Duration> {
        let deadline = deadline?;
        if self.worker_panic_preview(slot)
            || !self.fires(SALT_SLOW, slot, self.config.slowdown_permille)
        {
            return None;
        }
        self.slowdowns.fetch_add(1, Ordering::Relaxed);
        Some(deadline * 2)
    }

    /// The panic decision without counting it (for precedence checks).
    fn worker_panic_preview(&self, slot: u64) -> bool {
        self.config.worker_panic_permille > 0
            && self.roll(SALT_PANIC, slot) % 1000 < u64::from(self.config.worker_panic_permille)
    }

    /// Should the worker stall after claiming this slot, before
    /// running it?
    pub fn claim_stall(&self, slot: u64) -> Option<Duration> {
        if !self.fires(SALT_STALL, slot, self.config.claim_stall_permille) {
            return None;
        }
        self.claim_stalls.fetch_add(1, Ordering::Relaxed);
        Some(Duration::from_micros(200))
    }

    /// Should this journal record be torn? Keyed by the payload hash
    /// (journal writes have no slot identity at the sink layer).
    pub fn torn_write(&self, payload_hash: u64) -> bool {
        let fires = self.fires(SALT_TORN, payload_hash, self.config.torn_write_permille);
        if fires {
            self.torn_writes.fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// Fired-fault counts so far:
    /// `(worker_panics, transient_boots, slowdowns, claim_stalls,
    /// torn_writes)`.
    pub fn fired(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.worker_panics.load(Ordering::Relaxed),
            self.transient_boots.load(Ordering::Relaxed),
            self.slowdowns.load(Ordering::Relaxed),
            self.claim_stalls.load(Ordering::Relaxed),
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
    inner: Box<dyn JournalSink>,
    policy: Arc<ChaosPolicy>,
}

impl ChaosSink {
    pub(crate) fn new(inner: Box<dyn JournalSink>, policy: Arc<ChaosPolicy>) -> Self {
        Self { inner, policy }
    }
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

/// A delegating [`UseCase`] wrapper that injects this cell's chaos
/// faults into the inject phase: a panic (caught at the containment
/// boundary → `Crashed`) or a sleep past the deadline (relabelled by
/// the deadline check → `TimedOut`). Built per cell by the campaign
/// worker loop, which is the only place that knows the slot.
pub(crate) struct ChaosUseCase<'a> {
    inner: &'a dyn UseCase,
    panic_in_inject: bool,
    sleep_in_inject: Option<Duration>,
}

impl<'a> ChaosUseCase<'a> {
    pub(crate) fn new(
        inner: &'a dyn UseCase,
        panic_in_inject: bool,
        sleep_in_inject: Option<Duration>,
    ) -> Self {
        Self { inner, panic_in_inject, sleep_in_inject }
    }

    fn inject_fault(&self) {
        if self.panic_in_inject {
            panic!("chaos: injected worker panic");
        }
        if let Some(sleep) = self.sleep_in_inject {
            std::thread::sleep(sleep);
        }
    }
}

impl UseCase for ChaosUseCase<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn intrusion_model(&self) -> IntrusionModel {
        self.inner.intrusion_model()
    }

    fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
        self.inject_fault();
        self.inner.run_exploit(world, attacker)
    }

    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome {
        self.inject_fault();
        self.inner.run_injection(world, attacker, injector)
    }

    fn run_exploit_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        trial: u64,
    ) -> ScenarioOutcome {
        self.inject_fault();
        self.inner.run_exploit_trial(world, attacker, trial)
    }

    fn run_injection_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
        trial: u64,
    ) -> ScenarioOutcome {
        self.inject_fault();
        self.inner.run_injection_trial(world, attacker, injector, trial)
    }

    fn monitor(&self, world: &World, attacker: DomainId) -> Monitor {
        self.inner.monitor(world, attacker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{read_header, CheckpointSession};
    use crate::stream::{GridFingerprint, PartialFold};

    #[test]
    fn decisions_are_slot_keyed_and_reproducible() {
        let a = ChaosPolicy::new(ChaosConfig::standard(7));
        let b = ChaosPolicy::new(ChaosConfig::standard(7));
        for slot in 0..5_000 {
            assert_eq!(a.worker_panic(slot), b.worker_panic(slot));
            assert_eq!(a.transient_boot_faults(slot, 2), b.transient_boot_faults(slot, 2));
            assert_eq!(
                a.slowdown(slot, Some(Duration::from_millis(50))),
                b.slowdown(slot, Some(Duration::from_millis(50)))
            );
            assert_eq!(a.claim_stall(slot).is_some(), b.claim_stall(slot).is_some());
        }
        assert_eq!(a.fired(), b.fired());
        let (panics, boots, slows, stalls, _) = a.fired();
        assert!(panics > 0 && boots > 0 && slows > 0 && stalls > 0, "rates actually fire");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = ChaosPolicy::new(ChaosConfig::standard(1));
        let b = ChaosPolicy::new(ChaosConfig::standard(2));
        let plan = |p: &ChaosPolicy| (0..2_000).map(|s| p.worker_panic(s)).collect::<Vec<_>>();
        assert_ne!(plan(&a), plan(&b));
    }

    #[test]
    fn slowdown_is_inert_without_a_deadline_and_yields_to_panics() {
        let policy = ChaosPolicy::new(ChaosConfig {
            seed: 3,
            worker_panic_permille: 1000,
            transient_boot_permille: 0,
            slowdown_permille: 1000,
            claim_stall_permille: 0,
            torn_write_permille: 0,
        });
        assert_eq!(policy.slowdown(0, None), None);
        // Panic fires on every slot here, so slowdown never does.
        assert_eq!(policy.slowdown(0, Some(Duration::from_millis(10))), None);
        assert!(policy.worker_panic(0));
    }

    #[test]
    fn boot_faults_spread_across_and_beyond_the_retry_budget() {
        let policy = ChaosPolicy::new(ChaosConfig {
            seed: 11,
            worker_panic_permille: 0,
            transient_boot_permille: 1000,
            slowdown_permille: 0,
            claim_stall_permille: 0,
            torn_write_permille: 0,
        });
        let retries = 2u32;
        let mut recovered = 0;
        let mut exhausted = 0;
        for slot in 0..1_000 {
            let faults = policy.transient_boot_faults(slot, retries);
            assert!((1..=retries + 2).contains(&faults));
            if faults <= retries {
                recovered += 1;
            } else {
                exhausted += 1;
            }
        }
        assert!(recovered > 0 && exhausted > 0);
    }

    #[test]
    fn chaos_sink_tears_records_but_never_the_header() {
        let policy = Arc::new(ChaosPolicy::new(ChaosConfig {
            seed: 5,
            worker_panic_permille: 0,
            transient_boot_permille: 0,
            slowdown_permille: 0,
            claim_stall_permille: 0,
            torn_write_permille: 1000,
        }));
        let grid = GridFingerprint {
            use_cases: vec!["XSA-212-crash".into()],
            versions: vec![hvsim::XenVersion::V4_6],
            modes: vec![crate::Mode::Injection],
            trials: 3,
        };
        let path = std::env::temp_dir()
            .join(format!("hvsim-chaos-{}-torn.journal", std::process::id()));
        let mut session =
            CheckpointSession::create(&path, grid.clone(), None, Some(Arc::clone(&policy)))
                .unwrap();
        let torn = |policy: &ChaosPolicy| policy.fired().4;
        assert_eq!(torn(&policy), 0, "the header is written before chaos wraps the journal");
        session.record_fold(1, 1, vec![0], PartialFold::default());
        session.writer.close();
        assert_eq!(torn(&policy), 1, "every fold record is torn");
        assert_eq!(read_header(&path).unwrap().grid, grid, "the journal keeps its identity");
        let resumed = CheckpointSession::resume(&path, &grid, None, None).unwrap();
        assert!(!resumed.is_done(0), "the torn record is cut off on resume");
        std::fs::remove_file(&path).unwrap();
    }
}
