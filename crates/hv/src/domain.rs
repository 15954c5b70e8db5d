//! Domains (virtual machines) as the hypervisor sees them.

use crate::events::{PortState, EVTCHN_PORTS};
use crate::grants::GrantTable;
use crate::HvError;
use hvsim_mem::{DomainId, MachineMemory, MemError, Mfn, Pfn, PhysAddr, VirtAddr};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Magic bytes at the start of every domain's start-info page.
///
/// The XSA-148 exploit locates dom0 by scanning machine memory for exactly
/// this kind of fingerprint ("dom0 *startup_info* page which can be easily
/// fingerprinted in memory", paper §VI-A).
pub const START_INFO_MAGIC: &[u8; 16] = b"xen-start-info-\0";

/// Flag bit: the domain is privileged (dom0).
const SIF_PRIVILEGED: u32 = 1;

/// The start-info structure the hypervisor writes into each domain's
/// start-info frame at build time.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StartInfo {
    /// Owning domain.
    pub domid: DomainId,
    /// Privilege flags (`SIF_*`).
    pub flags: u32,
    /// Domain name (truncated to 32 bytes on the wire).
    pub name: String,
    /// Number of pages initially granted to the domain.
    pub nr_pages: u64,
}

impl StartInfo {
    /// Byte length of the serialized structure.
    pub const WIRE_LEN: usize = 16 + 2 + 4 + 8 + 32;

    /// Serializes the structure into its in-memory wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_LEN);
        out.extend_from_slice(START_INFO_MAGIC);
        out.extend_from_slice(&self.domid.raw().to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&self.nr_pages.to_le_bytes());
        let mut name = [0u8; 32];
        let n = self.name.len().min(32);
        name[..n].copy_from_slice(&self.name.as_bytes()[..n]);
        out.extend_from_slice(&name);
        out
    }

    /// Parses a start-info structure from raw frame bytes.
    ///
    /// Returns `None` if the magic does not match (the scanning primitive
    /// exploits rely on).
    pub fn parse(bytes: &[u8]) -> Option<StartInfo> {
        if bytes.len() < Self::WIRE_LEN || &bytes[..16] != START_INFO_MAGIC {
            return None;
        }
        let domid = DomainId::new(u16::from_le_bytes([bytes[16], bytes[17]]));
        let flags = u32::from_le_bytes(bytes[18..22].try_into().ok()?);
        let nr_pages = u64::from_le_bytes(bytes[22..30].try_into().ok()?);
        let name_raw = &bytes[30..62];
        let end = name_raw.iter().position(|&b| b == 0).unwrap_or(32);
        let name = String::from_utf8_lossy(&name_raw[..end]).into_owned();
        Some(StartInfo {
            domid,
            flags,
            name,
            nr_pages,
        })
    }

    /// `true` if the `SIF_PRIVILEGED` flag is set.
    pub fn is_privileged(&self) -> bool {
        self.flags & SIF_PRIVILEGED != 0
    }

    /// Builds the flags word for a (non-)privileged domain.
    pub fn flags_for(privileged: bool) -> u32 {
        if privileged {
            SIF_PRIVILEGED
        } else {
            0
        }
    }
}

/// Hypervisor-side state of one domain.
///
/// The two large tables, the p2m and the event ports, sit behind their
/// own `Arc`, so a copy of a domain (a world fork's first write to it)
/// shares them until it writes one of them.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Domain {
    id: DomainId,
    name: String,
    privileged: bool,
    cr3: Option<Mfn>,
    p2m: Arc<BTreeMap<u64, Mfn>>,
    start_info_mfn: Mfn,
    dead: bool,
    grant_table: GrantTable,
    trap_handlers: BTreeMap<u8, VirtAddr>,
    /// Frames this domain can still access although it no longer owns
    /// them — the "keep page access / reference" erroneous-state family
    /// (XSA-387/XSA-393-style leaks, or injected states).
    retained_access: BTreeSet<Mfn>,
    shared_info_mfn: Option<Mfn>,
    event_ports: Arc<Vec<PortState>>,
    events_received: u64,
    paused: bool,
}

impl Domain {
    pub(crate) fn new(id: DomainId, name: &str, privileged: bool, start_info_mfn: Mfn) -> Self {
        Self {
            id,
            name: name.to_owned(),
            privileged,
            cr3: None,
            p2m: Arc::default(),
            start_info_mfn,
            dead: false,
            grant_table: GrantTable::new(),
            trap_handlers: BTreeMap::new(),
            retained_access: BTreeSet::new(),
            shared_info_mfn: None,
            event_ports: Arc::new(vec![PortState::Free; EVTCHN_PORTS]),
            events_received: 0,
            paused: false,
        }
    }

    /// The domain id.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `true` for the privileged control domain.
    pub fn is_privileged(&self) -> bool {
        self.privileged
    }

    /// The current top-level page table, if one has been installed via
    /// `MMUEXT_NEW_BASEPTR`.
    pub fn cr3(&self) -> Option<Mfn> {
        self.cr3
    }

    pub(crate) fn set_cr3(&mut self, cr3: Mfn) {
        self.cr3 = Some(cr3);
    }

    /// `true` once the domain has been killed (e.g. by a hypervisor
    /// crash).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    pub(crate) fn kill(&mut self) {
        self.dead = true;
    }

    /// The machine frame holding this domain's start-info page.
    pub fn start_info_mfn(&self) -> Mfn {
        self.start_info_mfn
    }

    /// Looks up the machine frame backing a pseudo-physical frame.
    pub fn p2m(&self, pfn: Pfn) -> Option<Mfn> {
        self.p2m.get(&pfn.raw()).copied()
    }

    /// Number of pseudo-physical frames currently populated.
    pub fn p2m_len(&self) -> usize {
        self.p2m.len()
    }

    /// Iterates `(pfn, mfn)` pairs in pfn order.
    pub fn p2m_iter(&self) -> impl Iterator<Item = (Pfn, Mfn)> + '_ {
        self.p2m.iter().map(|(&p, &m)| (Pfn::new(p), m))
    }

    pub(crate) fn p2m_insert(&mut self, pfn: Pfn, mfn: Mfn) {
        Arc::make_mut(&mut self.p2m).insert(pfn.raw(), mfn);
    }

    pub(crate) fn p2m_remove(&mut self, pfn: Pfn) -> Option<Mfn> {
        Arc::make_mut(&mut self.p2m).remove(&pfn.raw())
    }

    /// The next unpopulated pfn (for fresh allocations).
    pub(crate) fn next_free_pfn(&self) -> Pfn {
        Pfn::new(self.p2m.keys().next_back().map_or(0, |&p| p + 1))
    }

    /// The domain's grant table.
    pub fn grant_table(&self) -> &GrantTable {
        &self.grant_table
    }

    pub(crate) fn grant_table_mut(&mut self) -> &mut GrantTable {
        &mut self.grant_table
    }

    /// Registered guest trap handlers (vector -> guest VA).
    pub fn trap_handler(&self, vector: u8) -> Option<VirtAddr> {
        self.trap_handlers.get(&vector).copied()
    }

    pub(crate) fn set_trap_handler(&mut self, vector: u8, va: VirtAddr) {
        self.trap_handlers.insert(vector, va);
    }

    /// Frames the domain retains access to without owning — observable
    /// evidence of a "keep page reference" erroneous state.
    pub fn retained_frames(&self) -> impl Iterator<Item = Mfn> + '_ {
        self.retained_access.iter().copied()
    }

    /// `true` if the domain has (possibly stale) access to `mfn`.
    pub fn retains_access(&self, mfn: Mfn) -> bool {
        self.retained_access.contains(&mfn)
    }

    pub(crate) fn retain_access(&mut self, mfn: Mfn) {
        self.retained_access.insert(mfn);
    }

    pub(crate) fn drop_retained_access(&mut self, mfn: Mfn) {
        self.retained_access.remove(&mfn);
    }

    /// The shared-info frame holding this domain's event bitmaps.
    pub fn shared_info_mfn(&self) -> Option<Mfn> {
        self.shared_info_mfn
    }

    pub(crate) fn set_shared_info_mfn(&mut self, mfn: Mfn) {
        self.shared_info_mfn = Some(mfn);
    }

    /// The state of an event port.
    pub fn event_port(&self, port: u16) -> Option<PortState> {
        self.event_ports.get(port as usize).copied()
    }

    /// Allocates the lowest free event port with the given state.
    ///
    /// # Errors
    ///
    /// [`HvError::NoMem`] when every port is taken.
    pub(crate) fn alloc_event_port(&mut self, state: PortState) -> Result<u16, HvError> {
        // Port 0 is reserved, as in Xen. The table is copied only when
        // a port is taken.
        let port = (1..self.event_ports.len())
            .find(|&i| self.event_ports[i] == PortState::Free)
            .ok_or(HvError::NoMem)?;
        Arc::make_mut(&mut self.event_ports)[port] = state;
        Ok(port as u16)
    }

    pub(crate) fn set_event_port(&mut self, port: u16, state: PortState) -> Result<(), HvError> {
        if usize::from(port) >= self.event_ports.len() {
            return Err(HvError::Inval);
        }
        Arc::make_mut(&mut self.event_ports)[usize::from(port)] = state;
        Ok(())
    }

    /// A copy of this domain that shares neither table with it.
    pub(crate) fn unshared(&self) -> Domain {
        Domain {
            p2m: Arc::new(BTreeMap::clone(&self.p2m)),
            event_ports: Arc::new(Vec::clone(&self.event_ports)),
            ..self.clone()
        }
    }

    /// The reference counts of the p2m and the event-port table.
    pub(crate) fn table_share_counts(&self) -> [usize; 2] {
        [Arc::strong_count(&self.p2m), Arc::strong_count(&self.event_ports)]
    }

    /// Total events delivered to this domain.
    pub fn events_received(&self) -> u64 {
        self.events_received
    }

    pub(crate) fn count_event(&mut self) {
        self.events_received += 1;
    }

    /// Whether the domain is paused (management-interface state).
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    pub(crate) fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Reads this domain's start-info structure back from memory.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if the start-info frame is not installed.
    pub fn read_start_info(&self, mem: &MachineMemory) -> Result<Option<StartInfo>, MemError> {
        let mut buf = vec![0u8; StartInfo::WIRE_LEN];
        mem.read(PhysAddr::new(self.start_info_mfn.raw() << 12), &mut buf)?;
        Ok(StartInfo::parse(&buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_info_roundtrip() {
        let si = StartInfo {
            domid: DomainId::new(3),
            flags: StartInfo::flags_for(true),
            name: "dom0".into(),
            nr_pages: 128,
        };
        let bytes = si.to_bytes();
        assert_eq!(bytes.len(), StartInfo::WIRE_LEN);
        let parsed = StartInfo::parse(&bytes).unwrap();
        assert_eq!(parsed, si);
        assert!(parsed.is_privileged());
    }

    #[test]
    fn start_info_rejects_bad_magic() {
        let mut bytes = StartInfo {
            domid: DomainId::DOM0,
            flags: 0,
            name: "x".into(),
            nr_pages: 1,
        }
        .to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(StartInfo::parse(&bytes), None);
        assert_eq!(StartInfo::parse(&bytes[..10]), None);
    }

    #[test]
    fn unprivileged_flags() {
        assert_eq!(StartInfo::flags_for(false), 0);
        let si = StartInfo {
            domid: DomainId::new(1),
            flags: 0,
            name: "guest".into(),
            nr_pages: 64,
        };
        assert!(!si.is_privileged());
    }

    #[test]
    fn long_names_truncate() {
        let si = StartInfo {
            domid: DomainId::new(1),
            flags: 0,
            name: "x".repeat(64),
            nr_pages: 1,
        };
        let parsed = StartInfo::parse(&si.to_bytes()).unwrap();
        assert_eq!(parsed.name.len(), 32);
    }

    #[test]
    fn p2m_bookkeeping() {
        let mut d = Domain::new(DomainId::new(1), "g", false, Mfn::new(10));
        assert_eq!(d.next_free_pfn(), Pfn::new(0));
        d.p2m_insert(Pfn::new(0), Mfn::new(10));
        d.p2m_insert(Pfn::new(1), Mfn::new(11));
        assert_eq!(d.p2m(Pfn::new(1)), Some(Mfn::new(11)));
        assert_eq!(d.next_free_pfn(), Pfn::new(2));
        assert_eq!(d.p2m_remove(Pfn::new(1)), Some(Mfn::new(11)));
        assert_eq!(d.p2m(Pfn::new(1)), None);
        assert_eq!(d.p2m_len(), 1);
    }

    #[test]
    fn a_copy_shares_its_tables_until_it_writes_them() {
        let mut d = Domain::new(DomainId::new(1), "g", false, Mfn::new(10));
        d.p2m_insert(Pfn::new(0), Mfn::new(10));
        let mut copy = d.clone();
        copy.kill();
        assert_eq!(copy.table_share_counts(), [2, 2]);
        // A failed port write copies nothing.
        assert_eq!(copy.set_event_port(u16::MAX, PortState::Free), Err(HvError::Inval));
        assert_eq!(copy.table_share_counts(), [2, 2]);
        // Each write copies the table it writes and only that one.
        let port = copy.alloc_event_port(PortState::Unbound { remote: DomainId::DOM0 }).unwrap();
        assert_eq!(copy.table_share_counts(), [2, 1]);
        assert_eq!(d.event_port(port), Some(PortState::Free));
        copy.p2m_insert(Pfn::new(1), Mfn::new(11));
        assert_eq!(copy.table_share_counts(), [1, 1]);
        assert_eq!(d.p2m_len(), 1);
        assert_eq!(d.unshared().table_share_counts(), [1, 1]);
        assert_eq!(d.table_share_counts(), [1, 1]);
    }

    #[test]
    fn json_writes_the_tables_inline_and_reads_them_back() {
        let mut d = Domain::new(DomainId::new(1), "g", false, Mfn::new(10));
        d.p2m_insert(Pfn::new(0), Mfn::new(10));
        d.p2m_insert(Pfn::new(1), Mfn::new(11));
        let json = serde_json::to_string(&d).unwrap();
        let p2m = serde_json::to_string(&*d.p2m).unwrap();
        let ports = serde_json::to_string(&*d.event_ports).unwrap();
        assert!(json.contains(&format!(r#""p2m":{p2m},"#)), "{json}");
        assert!(json.contains(&format!(r#""event_ports":{ports},"#)), "{json}");
        let back: Domain = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.p2m(Pfn::new(1)), Some(Mfn::new(11)));
    }

    #[test]
    fn retained_access_tracking() {
        let mut d = Domain::new(DomainId::new(2), "g", false, Mfn::new(10));
        assert!(!d.retains_access(Mfn::new(5)));
        d.retain_access(Mfn::new(5));
        assert!(d.retains_access(Mfn::new(5)));
        assert_eq!(d.retained_frames().collect::<Vec<_>>(), vec![Mfn::new(5)]);
        d.drop_retained_access(Mfn::new(5));
        assert!(!d.retains_access(Mfn::new(5)));
    }
}
