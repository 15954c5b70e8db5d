//! A transactional key-value workload for ACID assessment under
//! hypervisor intrusion.
//!
//! The paper motivates intrusion injection with "a transactional
//! business-critical system that runs on a public cloud: how can one
//! assess the impact of successful intrusions on the hypervisor in the
//! ability of the transactional system to ensure the ACID properties?"
//! (§III-C). [`TxnStore`] is that system: a write-ahead-journaled store
//! living in guest memory, with an integrity checker that detects torn or
//! corrupted state after erroneous states are injected underneath it.

use crate::world::{World, WorldError};
use hvsim_mem::{DomainId, Mfn, VirtAddr};

const SLOT_SIZE: u64 = 24; // key, value, checksum
const JOURNAL_MAGIC: u64 = 0x5452_414e_5341_4354; // "TRANSACT"
const STATE_IDLE: u64 = 0;
const STATE_PREPARED: u64 = 1;
const STATE_COMMITTED: u64 = 2;
const CHECKSUM_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

fn checksum(key: u64, value: u64) -> u64 {
    (key ^ CHECKSUM_SEED)
        .rotate_left(17)
        .wrapping_mul(value | 1)
        .rotate_right(9)
        ^ value
}

/// Result of an integrity check over the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnCheckReport {
    /// Slots holding data.
    pub occupied_slots: usize,
    /// Slots whose checksum does not match their key/value.
    pub corrupted_slots: usize,
    /// A transaction was journalled as prepared/committed but the data
    /// page disagrees (atomicity/durability violation).
    pub torn_transaction: bool,
    /// The journal header itself was corrupted.
    pub journal_corrupted: bool,
}

impl TxnCheckReport {
    /// `true` if every ACID-relevant invariant held.
    pub fn is_consistent(&self) -> bool {
        self.corrupted_slots == 0 && !self.torn_transaction && !self.journal_corrupted
    }
}

/// A journaled key-value store inside one guest's memory.
#[derive(Clone, Debug)]
pub struct TxnStore {
    dom: DomainId,
    journal_va: VirtAddr,
    data_va: VirtAddr,
    data_mfn: Mfn,
    capacity: usize,
}

impl TxnStore {
    /// Creates a store in `dom`, backed by two freshly mapped guest
    /// pages (journal + data).
    ///
    /// # Errors
    ///
    /// Propagates allocation/mapping failures.
    pub fn create(world: &mut World, dom: DomainId, capacity: usize) -> Result<Self, WorldError> {
        assert!(capacity > 0 && capacity as u64 * SLOT_SIZE <= 4096);
        let (hv, kernel) = world.hv_and_kernel_mut(dom)?;
        let (_, _, journal_va) = kernel.alloc_heap_page(hv)?;
        let (_, data_mfn, data_va) = kernel.alloc_heap_page(hv)?;
        hv.guest_write_va(dom, journal_va, &JOURNAL_MAGIC.to_le_bytes())?;
        hv.guest_write_va(dom, journal_va.offset(32), &STATE_IDLE.to_le_bytes())?;
        Ok(Self {
            dom,
            journal_va,
            data_va,
            data_mfn,
            capacity,
        })
    }

    /// The machine frame backing the data page — the natural target for
    /// an intrusion-injection campaign against this workload.
    pub fn data_mfn(&self) -> Mfn {
        self.data_mfn
    }

    /// The domain the store lives in.
    pub fn dom(&self) -> DomainId {
        self.dom
    }

    /// Store capacity in slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn slot_va(&self, slot: usize) -> VirtAddr {
        self.data_va.offset(slot as u64 * SLOT_SIZE)
    }

    fn read_u64(&self, world: &mut World, va: VirtAddr) -> Result<u64, WorldError> {
        let mut buf = [0u8; 8];
        world.hv_mut().guest_read_va(self.dom, va, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn write_u64(&self, world: &mut World, va: VirtAddr, value: u64) -> Result<(), WorldError> {
        world
            .hv_mut()
            .guest_write_va(self.dom, va, &value.to_le_bytes())?;
        Ok(())
    }

    fn find_slot(&self, world: &mut World, key: u64) -> Result<Option<usize>, WorldError> {
        for slot in 0..self.capacity {
            let k = self.read_u64(world, self.slot_va(slot))?;
            if k == key {
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    fn free_slot(&self, world: &mut World) -> Result<Option<usize>, WorldError> {
        for slot in 0..self.capacity {
            let k = self.read_u64(world, self.slot_va(slot))?;
            let c = self.read_u64(world, self.slot_va(slot).offset(16))?;
            if k == 0 && c == 0 {
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    /// Transactionally writes `key -> value` (key must be non-zero).
    ///
    /// The commit protocol journals the intent, mutates the data page,
    /// then marks the journal committed — three distinct memory writes,
    /// each a window an injected erroneous state can tear.
    ///
    /// # Errors
    ///
    /// [`WorldError::Hv`] on memory faults; capacity exhaustion returns
    /// [`WorldError::Vfs`]-free plain `Hv(Inval)` to keep the error set
    /// small.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0` (reserved as the empty-slot marker).
    pub fn put(&self, world: &mut World, key: u64, value: u64) -> Result<(), WorldError> {
        assert_ne!(key, 0, "key 0 is the empty-slot marker");
        let slot = match self.find_slot(world, key)? {
            Some(s) => s,
            None => self
                .free_slot(world)?
                .ok_or(WorldError::Hv(hvsim::HvError::NoMem))?,
        };
        // 1. journal the intent
        self.write_u64(world, self.journal_va.offset(8), key)?;
        self.write_u64(world, self.journal_va.offset(16), value)?;
        self.write_u64(world, self.journal_va.offset(24), checksum(key, value))?;
        self.write_u64(world, self.journal_va.offset(32), STATE_PREPARED)?;
        // 2. mutate the data page
        let va = self.slot_va(slot);
        self.write_u64(world, va, key)?;
        self.write_u64(world, va.offset(8), value)?;
        self.write_u64(world, va.offset(16), checksum(key, value))?;
        // 3. commit
        self.write_u64(world, self.journal_va.offset(32), STATE_COMMITTED)?;
        Ok(())
    }

    /// Reads the committed value for `key`, verifying its checksum.
    ///
    /// # Errors
    ///
    /// Memory faults propagate; a missing or corrupt slot reads as
    /// `Ok(None)`.
    pub fn get(&self, world: &mut World, key: u64) -> Result<Option<u64>, WorldError> {
        let Some(slot) = self.find_slot(world, key)? else {
            return Ok(None);
        };
        let va = self.slot_va(slot);
        let value = self.read_u64(world, va.offset(8))?;
        let stored = self.read_u64(world, va.offset(16))?;
        if stored == checksum(key, value) {
            Ok(Some(value))
        } else {
            Ok(None)
        }
    }

    /// Audits every ACID-relevant invariant of the store.
    ///
    /// # Errors
    ///
    /// Memory faults propagate (a store whose pages no longer translate
    /// is itself a finding, reported by the caller).
    pub fn check(&self, world: &mut World) -> Result<TxnCheckReport, WorldError> {
        let magic = self.read_u64(world, self.journal_va)?;
        let journal_corrupted = magic != JOURNAL_MAGIC;
        let mut occupied = 0usize;
        let mut corrupted = 0usize;
        for slot in 0..self.capacity {
            let va = self.slot_va(slot);
            let key = self.read_u64(world, va)?;
            let value = self.read_u64(world, va.offset(8))?;
            let stored = self.read_u64(world, va.offset(16))?;
            if key == 0 && value == 0 && stored == 0 {
                continue;
            }
            occupied += 1;
            if stored != checksum(key, value) {
                corrupted += 1;
            }
        }
        // Torn transaction: journal says committed/prepared for a
        // key/value pair the data page does not faithfully hold.
        let jkey = self.read_u64(world, self.journal_va.offset(8))?;
        let jval = self.read_u64(world, self.journal_va.offset(16))?;
        let jstate = self.read_u64(world, self.journal_va.offset(32))?;
        let torn = if jstate == STATE_COMMITTED && jkey != 0 {
            let committed = self.find_slot(world, jkey)?;
            match committed {
                Some(slot) => {
                    let v = self.read_u64(world, self.slot_va(slot).offset(8))?;
                    let c = self.read_u64(world, self.slot_va(slot).offset(16))?;
                    v != jval || c != checksum(jkey, jval)
                }
                None => true,
            }
        } else {
            jstate == STATE_PREPARED
        };
        Ok(TxnCheckReport {
            occupied_slots: occupied,
            corrupted_slots: corrupted,
            torn_transaction: torn,
            journal_corrupted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorldBuilder;
    use hvsim::{AccessMode, XenVersion};

    fn setup() -> (World, TxnStore, DomainId) {
        let mut w = WorldBuilder::new(XenVersion::V4_8)
            .injector(true)
            .guest("app", 64)
            .build()
            .unwrap();
        let dom = w.domain_by_name("app").unwrap();
        let store = TxnStore::create(&mut w, dom, 32).unwrap();
        (w, store, dom)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut w, store, _) = setup();
        store.put(&mut w, 42, 4242).unwrap();
        store.put(&mut w, 7, 77).unwrap();
        assert_eq!(store.get(&mut w, 42).unwrap(), Some(4242));
        assert_eq!(store.get(&mut w, 7).unwrap(), Some(77));
        assert_eq!(store.get(&mut w, 9).unwrap(), None);
    }

    #[test]
    fn update_in_place() {
        let (mut w, store, _) = setup();
        store.put(&mut w, 1, 10).unwrap();
        store.put(&mut w, 1, 20).unwrap();
        assert_eq!(store.get(&mut w, 1).unwrap(), Some(20));
        let report = store.check(&mut w).unwrap();
        assert!(report.is_consistent());
        assert_eq!(report.occupied_slots, 1);
    }

    #[test]
    fn clean_store_is_consistent() {
        let (mut w, store, _) = setup();
        for k in 1..=10u64 {
            store.put(&mut w, k, k * 100).unwrap();
        }
        let report = store.check(&mut w).unwrap();
        assert!(report.is_consistent());
        assert_eq!(report.occupied_slots, 10);
    }

    #[test]
    fn injected_corruption_is_detected() {
        let (mut w, store, attacker) = setup();
        store.put(&mut w, 5, 500).unwrap();
        // An intrusion flips bits in the data page underneath the store.
        let mut evil = 0xdead_0000_0000u64.to_le_bytes().to_vec();
        w.hv_mut()
            .hc_arbitrary_access(
                attacker,
                store.data_mfn().base().offset(8).raw(),
                &mut evil,
                AccessMode::PhysWrite,
            )
            .unwrap();
        let report = store.check(&mut w).unwrap();
        assert!(!report.is_consistent());
        assert_eq!(report.corrupted_slots, 1);
        assert!(report.torn_transaction, "journal and data now disagree");
        assert_eq!(store.get(&mut w, 5).unwrap(), None, "reads refuse bad checksums");
    }

    #[test]
    fn capacity_exhaustion() {
        let (mut w, store, _) = setup();
        for k in 1..=32u64 {
            store.put(&mut w, k, k).unwrap();
        }
        assert!(store.put(&mut w, 99, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "empty-slot marker")]
    fn key_zero_rejected() {
        let (mut w, store, _) = setup();
        let _ = store.put(&mut w, 0, 1);
    }
}
