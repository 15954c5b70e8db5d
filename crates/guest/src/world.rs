//! The [`World`]: hypervisor + guest kernels + attacker network, as one
//! deterministic unit.
//!
//! Everything the paper's experiments observe happens through the world:
//! payload execution via forged interrupt handlers (XSA-212-priv), vDSO
//! backdoor activation and reverse shells (XSA-148-priv), hypervisor
//! crashes (XSA-212-crash), and the file-system evidence the monitors
//! check afterwards.

use crate::kernel::GuestKernel;
use crate::net::{RemoteHost, SessionId, ShellOutput, ShellReply};
use crate::payload::{Payload, PayloadCommand};
use crate::process::Uid;
use crate::vdso::Backdoor;
use crate::vfs::{FileMode, VfsError};
use hvsim::{BuildConfig, HvError, Hypervisor, XenVersion};
use hvsim_mem::{DomainId, VirtAddr, PAGE_SIZE};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock timing of one boot stage, recorded by
/// [`WorldBuilder::build`]. Stage names match the stage tags carried by
/// [`BootError`], so a trace and a boot failure speak the same
/// vocabulary. Timings are observability data only — nothing
/// deterministic may depend on them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BootStage {
    /// Stage name (e.g. `"boot dom0 kernel"`).
    pub stage: &'static str,
    /// Stage duration in microseconds.
    pub wall_us: u64,
}

/// Errors from world-level operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorldError {
    /// A hypervisor error.
    Hv(HvError),
    /// A filesystem error.
    Vfs(VfsError),
    /// No kernel booted in that domain.
    NoGuest(DomainId),
    /// No such shell session.
    NoSession,
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Hv(e) => write!(f, "hypervisor: {e}"),
            WorldError::Vfs(e) => write!(f, "vfs: {e}"),
            WorldError::NoGuest(d) => write!(f, "no guest kernel in {d}"),
            WorldError::NoSession => f.write_str("no such shell session"),
        }
    }
}

impl Error for WorldError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorldError::Hv(e) => Some(e),
            WorldError::Vfs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HvError> for WorldError {
    fn from(e: HvError) -> Self {
        WorldError::Hv(e)
    }
}

impl From<VfsError> for WorldError {
    fn from(e: VfsError) -> Self {
        WorldError::Vfs(e)
    }
}

/// A world failed to boot.
///
/// Boot failures are *harness*-level errors, not assessment results: a
/// cell whose world never came up produced no erroneous state to judge.
/// The error carries the boot stage that failed, a human-readable
/// message, and whether the failure is transient (resource exhaustion a
/// retry may clear) — the campaign's bounded retry policy only retries
/// transient failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BootError {
    stage: &'static str,
    message: String,
    transient: bool,
    source: Option<WorldError>,
}

impl BootError {
    /// A non-transient boot failure (used by test factories and
    /// non-hypervisor boot stages).
    pub fn new(stage: &'static str, message: impl Into<String>) -> Self {
        Self { stage, message: message.into(), transient: false, source: None }
    }

    /// A transient boot failure: the campaign retry policy may re-run
    /// the factory for these.
    pub fn transient(stage: &'static str, message: impl Into<String>) -> Self {
        Self { stage, message: message.into(), transient: true, source: None }
    }

    /// Wraps an underlying world error, deriving transience from the
    /// hypervisor errno (`-ENOMEM`/`-EBUSY` are retryable).
    pub fn from_world(stage: &'static str, source: WorldError) -> Self {
        let transient = matches!(&source, WorldError::Hv(e) if e.is_transient());
        Self {
            stage,
            message: source.to_string(),
            transient,
            source: Some(source),
        }
    }

    /// The boot stage that failed (e.g. `"create dom0"`).
    pub fn stage(&self) -> &'static str {
        self.stage
    }

    /// The failure message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// `true` when a retry might succeed (resource exhaustion).
    pub fn is_transient(&self) -> bool {
        self.transient
    }
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "boot failed at {}: {}", self.stage, self.message)?;
        if self.transient {
            f.write_str(" (transient)")?;
        }
        Ok(())
    }
}

impl Error for BootError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_ref().map(|e| e as &(dyn Error + 'static))
    }
}

/// Per-domain outcome of executing a forged interrupt handler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandlerOutcome {
    /// The payload executed with kernel privileges.
    Executed,
    /// The handler address did not translate / was not executable in
    /// this domain's context (the hardened-layout shield).
    Faulted(HvError),
    /// The handler's code could not be read from memory.
    FetchFailed,
    /// The handler pointed at bytes that are not a payload (real
    /// hardware would execute garbage; the simulator reports it).
    Garbage,
}

/// Builds a [`World`].
#[derive(Clone, Debug)]
pub struct WorldBuilder {
    version: XenVersion,
    injector: bool,
    dom0_pages: u64,
    guests: Vec<(String, u64)>,
    remote_host: String,
    remote_port: u16,
}

impl WorldBuilder {
    /// A world on the given Xen version with a privileged dom0 and no
    /// additional guests yet.
    pub fn new(version: XenVersion) -> Self {
        Self {
            version,
            injector: false,
            dom0_pages: 96,
            guests: Vec::new(),
            remote_host: "10.3.1.99".to_owned(),
            remote_port: 1234,
        }
    }

    /// Compiles the injector hypercall into the build.
    #[must_use]
    pub fn injector(mut self, enabled: bool) -> Self {
        self.injector = enabled;
        self
    }

    /// Adds an unprivileged guest.
    #[must_use]
    pub fn guest(mut self, name: &str, pages: u64) -> Self {
        self.guests.push((name.to_owned(), pages));
        self
    }

    /// Builds and boots the world: hypervisor, dom0, guests, kernels,
    /// seeded filesystems.
    ///
    /// # Errors
    ///
    /// [`BootError`] tagged with the boot stage that failed; transient
    /// failures (`-ENOMEM`/`-EBUSY`) are marked retryable for the
    /// campaign's retry policy.
    pub fn build(self) -> Result<World, BootError> {
        let mut boot_trace: Vec<BootStage> = Vec::new();
        let mut stage_start = Instant::now();
        let mut mark = |trace: &mut Vec<BootStage>, stage: &'static str| {
            trace.push(BootStage {
                stage,
                wall_us: stage_start.elapsed().as_micros() as u64,
            });
            stage_start = Instant::now();
        };
        let mut hv = Hypervisor::new(BuildConfig::new(self.version).injector(self.injector));
        let dom0 = hv
            .create_domain("xen3", true, self.dom0_pages)
            .map_err(|e| BootError::from_world("create dom0", e.into()))?;
        mark(&mut boot_trace, "create dom0");
        let mut kernels = BTreeMap::new();
        let mut k0 = GuestKernel::boot(&mut hv, dom0)
            .map_err(|e| BootError::from_world("boot dom0 kernel", e.into()))?;
        mark(&mut boot_trace, "boot dom0 kernel");
        // dom0 runs a root process that periodically calls the vDSO (the
        // hook the XSA-148 backdoor fires through) and holds the secret
        // the paper's reverse-shell transcript reads.
        k0.spawn("cron", Uid::ROOT, true);
        k0.vfs_mut()
            .write(
                "/root/root_msg",
                Uid::ROOT,
                FileMode::OwnerOnly,
                b"Confidential content in root folder!",
            )
            .map_err(|e| BootError::from_world("seed dom0 filesystem", e.into()))?;
        kernels.insert(dom0, Arc::new(k0));
        mark(&mut boot_trace, "seed dom0 filesystem");
        for (name, pages) in &self.guests {
            let dom = hv
                .create_domain(name, false, *pages)
                .map_err(|e| BootError::from_world("create guest", e.into()))?;
            mark(&mut boot_trace, "create guest");
            let mut k = GuestKernel::boot(&mut hv, dom)
                .map_err(|e| BootError::from_world("boot guest kernel", e.into()))?;
            k.spawn("bash", Uid::new(1000), true);
            kernels.insert(dom, Arc::new(k));
            mark(&mut boot_trace, "boot guest kernel");
        }
        Ok(World {
            hv,
            dom0,
            kernels: Arc::new(kernels),
            remote: RemoteHost::new(&self.remote_host, self.remote_port),
            boot_trace: boot_trace.into(),
        })
    }
}

/// Hypervisor, guests and attacker network in one deterministic unit.
///
/// A clone of a booted world (a campaign cell's fork) allocates
/// nothing: every container sits behind an `Arc` until the clone first
/// writes it (see [`Hypervisor`]).
#[derive(Clone, Debug)]
pub struct World {
    hv: Hypervisor,
    dom0: DomainId,
    /// The kernel map, and each kernel in it, shared until first write.
    kernels: Arc<BTreeMap<DomainId, Arc<GuestKernel>>>,
    remote: RemoteHost,
    boot_trace: Arc<[BootStage]>,
}

impl World {
    /// The hypervisor.
    pub fn hv(&self) -> &Hypervisor {
        &self.hv
    }

    /// Per-stage boot timings recorded by [`WorldBuilder::build`]
    /// (bridged into trace streams by the campaign; cloned worlds keep
    /// the original boot's timings).
    pub fn boot_trace(&self) -> &[BootStage] {
        &self.boot_trace
    }

    /// Mutable hypervisor access (hypercalls are `&mut`).
    pub fn hv_mut(&mut self) -> &mut Hypervisor {
        &mut self.hv
    }

    /// Copy-on-write sharing statistics of this world's machine memory.
    /// For a cloned (snapshot) world, `frames_copied` counts the pages
    /// this world has privatized since the clone.
    pub fn snapshot_stats(&self) -> hvsim::SnapshotStats {
        self.hv.mem().snapshot_stats()
    }

    /// Gives this world its own memory handle and its own copy of every
    /// other container a clone shares by reference count. A campaign
    /// worker forks its cells from its own unshared copy of each base
    /// world, because workers forking one base bump the same reference
    /// counts and the contended cache lines cost more than the fork
    /// itself.
    pub fn unshare(&mut self) {
        self.hv.unshare();
        self.kernels =
            Arc::new(self.kernels.iter().map(|(&dom, k)| (dom, Arc::new(k.unshared()))).collect());
        self.remote.unshare();
        self.boot_trace = Arc::from(&self.boot_trace[..]);
    }

    /// The reference count of every container this world shares with
    /// its clones: the hypervisor's ([`Hypervisor::share_counts`]), then
    /// the kernel map, each kernel followed by its parts (hostname,
    /// process table and names, file map, paths and contents, log), the
    /// remote host and the boot trace.
    /// After [`unshare`](Self::unshare), forking a clone of this world
    /// leaves every one of them unchanged.
    pub fn share_counts(&self) -> Vec<usize> {
        let mut counts = self.hv.share_counts();
        counts.push(Arc::strong_count(&self.kernels));
        for k in self.kernels.values() {
            counts.push(Arc::strong_count(k));
            k.share_counts(&mut counts);
        }
        counts.extend([self.remote.share_count(), Arc::strong_count(&self.boot_trace)]);
        counts
    }

    /// The privileged control domain.
    pub fn dom0(&self) -> DomainId {
        self.dom0
    }

    /// Ids of all domains with booted kernels, in order.
    pub fn domains(
        &self,
    ) -> impl DoubleEndedIterator<Item = DomainId> + ExactSizeIterator + '_ {
        self.kernels.keys().copied()
    }

    /// Finds a domain by name.
    pub fn domain_by_name(&self, name: &str) -> Option<DomainId> {
        self.kernels
            .iter()
            .find(|(_, k)| k.hostname() == name)
            .map(|(&d, _)| d)
    }

    /// The kernel of a domain.
    ///
    /// # Errors
    ///
    /// [`WorldError::NoGuest`] for unknown domains.
    pub fn kernel(&self, dom: DomainId) -> Result<&GuestKernel, WorldError> {
        self.kernels.get(&dom).map(|k| &**k).ok_or(WorldError::NoGuest(dom))
    }

    /// Mutable kernel access; copies the kernel map and then the kernel
    /// while either is still shared with a snapshot.
    ///
    /// # Errors
    ///
    /// [`WorldError::NoGuest`] for unknown domains.
    pub fn kernel_mut(&mut self, dom: DomainId) -> Result<&mut GuestKernel, WorldError> {
        Arc::make_mut(&mut self.kernels)
            .get_mut(&dom)
            .map(Arc::make_mut)
            .ok_or(WorldError::NoGuest(dom))
    }

    /// Splits the world into the hypervisor and one kernel — the pattern
    /// exploit code uses constantly (`kernel.write(hv, ...)`).
    ///
    /// # Errors
    ///
    /// [`WorldError::NoGuest`] for unknown domains.
    pub fn hv_and_kernel_mut(
        &mut self,
        dom: DomainId,
    ) -> Result<(&mut Hypervisor, &mut GuestKernel), WorldError> {
        let kernel = Arc::make_mut(&mut self.kernels)
            .get_mut(&dom)
            .map(Arc::make_mut)
            .ok_or(WorldError::NoGuest(dom))?;
        Ok((&mut self.hv, kernel))
    }

    /// The attacker-side listener.
    pub fn remote(&self) -> &RemoteHost {
        &self.remote
    }

    /// Mutable listener access (e.g. to start listening).
    pub fn remote_mut(&mut self) -> &mut RemoteHost {
        &mut self.remote
    }

    // ------------------------------------------------------------------
    // Execution semantics
    // ------------------------------------------------------------------

    /// A guest invokes `int <vector>`; the gate's handler address is then
    /// "executed" in **every** live domain's context, as the XSA-212-priv
    /// strategy does by registering its payload for every CPU.
    ///
    /// Per domain, execution means: the handler VA must translate and be
    /// executable in that domain's context (layout veto + page walk + NX),
    /// and the bytes there must parse as a [`Payload`]; the payload then
    /// runs with kernel privileges in that domain.
    ///
    /// # Errors
    ///
    /// [`HvError`]-derived errors if the interrupt itself cannot be
    /// dispatched (gate not present, hypervisor crashed).
    pub fn invoke_interrupt(
        &mut self,
        dom: DomainId,
        vector: u8,
    ) -> Result<Vec<(DomainId, HandlerOutcome)>, WorldError> {
        let dispatch = self.hv.software_interrupt(dom, vector)?;
        let mut results = Vec::with_capacity(self.kernels.len());
        // Walk the domains by key: the handler writes the world.
        let mut next = self.kernels.keys().next().copied();
        while let Some(d) = next {
            next = self.kernels.range((Excluded(d), Unbounded)).next().map(|(&k, _)| k);
            if self.hv.domain(d).map(|x| x.is_dead()).unwrap_or(true) {
                continue;
            }
            let outcome = self.execute_at(d, dispatch.handler);
            results.push((d, outcome));
        }
        Ok(results)
    }

    fn execute_at(&mut self, dom: DomainId, va: VirtAddr) -> HandlerOutcome {
        let translation = match self.hv.guest_exec_va(dom, va) {
            Ok(t) => t,
            Err(e) => return HandlerOutcome::Faulted(e),
        };
        let take = PAGE_SIZE - translation.phys.page_offset();
        let mut code = [0u8; 2048];
        let bytes = &mut code[..take.min(2048)];
        if self.hv.mem().read(translation.phys, bytes).is_err() {
            return HandlerOutcome::FetchFailed;
        }
        match Payload::parse(bytes) {
            Some(payload) => {
                self.apply_payload(dom, &payload);
                HandlerOutcome::Executed
            }
            None => HandlerOutcome::Garbage,
        }
    }

    fn apply_payload(&mut self, dom: DomainId, payload: &Payload<'_>) {
        let Ok(k) = self.kernel_mut(dom) else { return };
        match payload.command {
            PayloadCommand::DropRootFile { path, template } => {
                let contents =
                    Payload::expand_template(template, &Uid::ROOT.id_string(), k.hostname());
                // Kernel-privileged: writes as root regardless of any
                // user-space permission.
                let _ = k.vfs_mut().write_shared(path, Uid::ROOT, FileMode::PublicRead, contents);
            }
            PayloadCommand::KlogMarker { marker } => k.klog(format!("payload: {marker}")),
        }
    }

    /// Advances "time": every process that calls into the vDSO does so
    /// once. If a domain's vDSO has been backdoored, each such call opens
    /// a reverse shell to the remote host with the *calling process's*
    /// privileges. Returns the sessions established this tick, which
    /// have consecutive ids.
    pub fn tick_vdso(&mut self) -> impl ExactSizeIterator<Item = SessionId> {
        let first = self.remote.sessions().len();
        for (&dom, kernel) in self.kernels.iter() {
            if self.hv.domain(dom).map(|d| d.is_dead()).unwrap_or(true) {
                continue;
            }
            let Ok(vdso_mfn) = kernel.vdso_mfn(&self.hv) else { continue };
            let mut image = [0u8; Backdoor::IMAGE_PREFIX_LEN];
            if self.hv.mem().read(vdso_mfn.base(), &mut image).is_err() {
                continue;
            }
            let Some(backdoor) = Backdoor::parse(&image) else { continue };
            if backdoor.host != self.remote.host() || backdoor.port != self.remote.port() {
                continue;
            }
            for p in kernel.processes().iter().filter(|p| p.calls_vdso) {
                self.remote.accept(dom, p.uid, "10.3.1.181");
            }
        }
        (first..self.remote.sessions().len()).map(SessionId)
    }

    /// Executes a shell command over an established reverse-shell
    /// session, with the session's privileges, against the compromised
    /// domain's filesystem. Supports the command mix of the paper's
    /// transcript: `whoami`, `hostname`, `id`, `cat <path>`, and `&&`
    /// chaining. Returns the reply the session's transcript keeps: typed
    /// outputs that share the hostname and file contents with the
    /// kernel, so a command copies no text.
    ///
    /// # Errors
    ///
    /// [`WorldError::NoSession`] for unknown sessions.
    pub fn shell_exec(
        &mut self,
        session: SessionId,
        cmd: impl Into<Cow<'static, str>>,
    ) -> Result<ShellReply, WorldError> {
        let cmd = cmd.into();
        let s = self.remote.session(session).ok_or(WorldError::NoSession)?;
        let (kernel, uid) = (self.kernel(s.domain)?, s.uid);
        let mut parts = cmd.split("&&").map(str::trim).filter(|p| !p.is_empty());
        // A counted range collects into the `Arc` in one allocation.
        let n = parts.clone().count();
        let outputs = (0..n).map(|_| shell_one(kernel, uid, parts.next().unwrap_or_default()));
        let reply = ShellReply::new(outputs.collect());
        let transcript =
            &mut self.remote.session_mut(session).ok_or(WorldError::NoSession)?.transcript;
        transcript.push((cmd, reply.clone()));
        Ok(reply)
    }

    // ------------------------------------------------------------------
    // Observation helpers (used by monitors and tests)
    // ------------------------------------------------------------------

    /// `true` if `path` exists in **every** live domain — the paper's
    /// XSA-212-priv success condition ("a file appears in every domain").
    pub fn file_in_all_domains(&self, path: &str) -> bool {
        !self.kernels.is_empty() && self.kernels.values().all(|k| k.vfs().exists(path))
    }
}

/// What one command of a session with `uid` prints in `kernel`.
fn shell_one(kernel: &GuestKernel, uid: Uid, cmd: &str) -> ShellOutput {
    match cmd {
        "whoami" => ShellOutput::Whoami(uid),
        "hostname" => ShellOutput::Hostname(Arc::clone(kernel.hostname_shared())),
        "id" => ShellOutput::Id(uid),
        _ if cmd.starts_with("cat ") => match kernel.vfs().read_shared(cmd[4..].trim(), uid) {
            Ok(data) => ShellOutput::File(Arc::clone(data)),
            Err(e) => ShellOutput::CatFailed(e),
        },
        _ if cmd.starts_with("ls ") => {
            let prefix = cmd[3..].trim();
            let paths = kernel.vfs().shared_paths().filter(|p| p.starts_with(prefix));
            ShellOutput::Listing(paths.cloned().collect())
        }
        other => ShellOutput::NotFound(other.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vdso::{Backdoor, VDSO_ENTRY_OFFSET};
    use hvsim::{AccessMode, IdtEntry, PteFlags};
    use hvsim_mem::Mfn;
    use hvsim_paging::{PageTableEntry, VaIndices, LINEAR_PT_START};

    fn small_world(version: XenVersion) -> World {
        WorldBuilder::new(version)
            .injector(true)
            .guest("xen2", 64)
            .guest("guest03", 64)
            .build()
            .unwrap()
    }

    #[test]
    fn build_boots_dom0_and_guests() {
        let w = small_world(XenVersion::V4_6);
        assert_eq!(w.domains().len(), 3);
        assert!(w.hv().domain(w.dom0()).unwrap().is_privileged());
        assert_eq!(w.domain_by_name("xen2"), w.domains().nth(1));
        assert!(w.kernel(w.dom0()).unwrap().vfs().exists("/root/root_msg"));
    }

    #[test]
    fn boot_trace_records_every_stage_in_order() {
        let w = small_world(XenVersion::V4_6);
        let stages: Vec<&str> = w.boot_trace().iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                "create dom0",
                "boot dom0 kernel",
                "seed dom0 filesystem",
                "create guest",
                "boot guest kernel",
                "create guest",
                "boot guest kernel",
            ]
        );
        // Clones keep the original boot's timings.
        assert_eq!(w.clone().boot_trace(), w.boot_trace());
    }

    /// A worker forks its cells from an unshared copy of a base world.
    /// Those forks, and their first writes, must bump no reference count
    /// of the base: a shared container missing from `unshare` fails here.
    #[test]
    fn forking_an_unshared_copy_leaves_the_source_counts_alone() {
        let base = small_world(XenVersion::V4_8);
        let mut copy = base.clone();
        copy.unshare();
        let before = base.share_counts();
        let copy_before = copy.share_counts();
        let attacker = copy.domain_by_name("guest03").unwrap();
        let forks: Vec<World> = (0..1000)
            .map(|i| {
                let mut fork = copy.clone();
                // A third of the forks keep a kernel copy that shares all
                // its parts, a third write those parts too.
                if i % 3 != 2 {
                    let hv = fork.hv_mut();
                    hv.hc_set_trap_table(attacker, &[(0x80, VirtAddr::new(0x1000))]).unwrap();
                    hv.hc_console_io(attacker, "first write").unwrap();
                    hv.alloc_domain_frame(attacker, hvsim_mem::PageType::Writable).unwrap();
                    fork.kernel_mut(attacker).unwrap().klog("first write");
                }
                if i % 3 == 1 {
                    let dom0 = fork.dom0();
                    let kernel = fork.kernel_mut(dom0).unwrap();
                    kernel.spawn("sh", Uid::ROOT, false);
                    kernel.vfs_mut().write("/tmp/x", Uid::ROOT, FileMode::Public, b"x").unwrap();
                }
                fork
            })
            .collect();
        assert_eq!(base.share_counts(), before);
        // The forks bumped the copy's counts instead.
        assert_ne!(copy.share_counts(), copy_before);
        drop(forks);
        assert_eq!(copy.share_counts(), copy_before);
    }

    #[test]
    fn unknown_domain_is_an_error() {
        let mut w = small_world(XenVersion::V4_6);
        assert!(matches!(
            w.kernel(DomainId::new(99)),
            Err(WorldError::NoGuest(_))
        ));
        assert!(w.kernel_mut(DomainId::new(99)).is_err());
    }

    /// Full XSA-212-priv-style payload flow, using the injector as the
    /// write primitive (the exploit crate does the same with
    /// memory_exchange on vulnerable builds).
    fn install_payload_via_injector(w: &mut World, attacker: DomainId) -> VirtAddr {
        let payload_va = VirtAddr::new(LINEAR_PT_START);
        let idx = VaIndices::of(payload_va);
        let (hv, kernel) = w.hv_and_kernel_mut(attacker).unwrap();
        let (_, pmd, _) = kernel.alloc_heap_page(hv).unwrap();
        let (_, pt, _) = kernel.alloc_heap_page(hv).unwrap();
        let (_, payload_frame, payload_heap_va) = kernel.alloc_heap_page(hv).unwrap();
        let link = PteFlags::PRESENT | PteFlags::RW | PteFlags::USER;
        // Forge PT and PMD contents (plain data writes into own frames —
        // these frames are *not* typed as page tables).
        hv.guest_write_frame(
            attacker,
            pt,
            idx.l1 * 8,
            &PageTableEntry::new(payload_frame, link).raw().to_le_bytes(),
        )
        .unwrap();
        hv.guest_write_frame(
            attacker,
            pmd,
            idx.l2 * 8,
            &PageTableEntry::new(pt, link).raw().to_le_bytes(),
        )
        .unwrap();
        // Write the payload blob into the payload frame.
        let blob = Payload::drop_root_file("/tmp/injector_log", "|$(id)|@$(hostname)").to_bytes();
        kernel.write(hv, payload_heap_va, &blob).unwrap();
        // Link the forged PMD into the shared hypervisor L3.
        let l3_slot = hv.shared_l3_mfn().base().offset(idx.l3 as u64 * 8).raw();
        let mut entry = PageTableEntry::new(pmd, link).raw().to_le_bytes().to_vec();
        hv.hc_arbitrary_access(attacker, l3_slot, &mut entry, AccessMode::PhysWrite)
            .unwrap();
        // Register an IDT gate for vector 0x80 pointing at the payload VA.
        let gate = IdtEntry {
            offset: payload_va,
            selector: IdtEntry::XEN_CS,
            dpl: 3,
            present: true,
        };
        let gate_va = hv.sidt(0).offset(IdtEntry::slot_offset(0x80) as u64);
        let mut packed = gate.pack().to_vec();
        hv.hc_arbitrary_access(attacker, gate_va.raw(), &mut packed, AccessMode::LinearWrite)
            .unwrap();
        payload_va
    }

    #[test]
    fn payload_executes_in_every_domain_pre_hardening() {
        let mut w = small_world(XenVersion::V4_8);
        let attacker = w.domain_by_name("guest03").unwrap();
        install_payload_via_injector(&mut w, attacker);
        let results = w.invoke_interrupt(attacker, 0x80).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|(_, o)| *o == HandlerOutcome::Executed));
        assert!(w.file_in_all_domains("/tmp/injector_log"));
        let content = w
            .kernel(w.dom0())
            .unwrap()
            .vfs()
            .read("/tmp/injector_log", Uid::new(1000))
            .unwrap()
            .to_vec();
        assert_eq!(
            String::from_utf8(content).unwrap(),
            "|uid=0(root) gid=0(root) groups=0(root)|@xen3"
        );
    }

    #[test]
    fn payload_blocked_by_hardened_layout() {
        let mut w = small_world(XenVersion::V4_13);
        let attacker = w.domain_by_name("guest03").unwrap();
        install_payload_via_injector(&mut w, attacker);
        let results = w.invoke_interrupt(attacker, 0x80).unwrap();
        assert!(results
            .iter()
            .all(|(_, o)| matches!(o, HandlerOutcome::Faulted(_))));
        assert!(!w.file_in_all_domains("/tmp/injector_log"));
        assert!(w.kernels.values().all(|k| !k.vfs().exists("/tmp/injector_log")));
    }

    #[test]
    fn vdso_backdoor_opens_root_reverse_shell() {
        let mut w = small_world(XenVersion::V4_6);
        w.remote_mut().listen();
        // Patch dom0's vDSO directly in machine memory (what the XSA-148
        // exploit does through its crafted superpage window).
        let dom0 = w.dom0();
        let vdso_mfn = w.kernel(dom0).unwrap().vdso_mfn(w.hv()).unwrap();
        let backdoor = Backdoor {
            host: w.remote().host().into(),
            port: w.remote().port(),
        };
        let blob = backdoor.to_bytes();
        let attacker = w.domain_by_name("xen2").unwrap();
        let mut data = blob.clone();
        w.hv_mut()
            .hc_arbitrary_access(
                attacker,
                vdso_mfn.base().offset(VDSO_ENTRY_OFFSET as u64).raw(),
                &mut data,
                AccessMode::PhysWrite,
            )
            .unwrap();
        let sessions: Vec<_> = w.tick_vdso().collect();
        assert_eq!(sessions.len(), 1, "dom0's root cron tripped the backdoor");
        let sid = sessions[0];
        assert_eq!(w.shell_exec(sid, "whoami && hostname").unwrap().to_string(), "root\nxen3");
        assert_eq!(
            w.shell_exec(sid, "cat /root/root_msg").unwrap().to_string(),
            "Confidential content in root folder!"
        );
        let transcript = &w.remote().session(sid).unwrap().transcript;
        assert_eq!(transcript.len(), 2);
    }

    #[test]
    fn pristine_vdso_opens_nothing() {
        let mut w = small_world(XenVersion::V4_13);
        w.remote_mut().listen();
        assert_eq!(w.tick_vdso().len(), 0);
        assert!(w.remote().sessions().is_empty());
    }

    #[test]
    fn backdoor_to_wrong_port_is_lost() {
        let mut w = small_world(XenVersion::V4_6);
        w.remote_mut().listen();
        let dom0 = w.dom0();
        let vdso_mfn = w.kernel(dom0).unwrap().vdso_mfn(w.hv()).unwrap();
        let blob = Backdoor {
            host: "10.9.9.9".into(),
            port: 4444,
        }
        .to_bytes();
        let attacker = w.domain_by_name("xen2").unwrap();
        let mut data = blob;
        w.hv_mut()
            .hc_arbitrary_access(
                attacker,
                vdso_mfn.base().offset(VDSO_ENTRY_OFFSET as u64).raw(),
                &mut data,
                AccessMode::PhysWrite,
            )
            .unwrap();
        assert_eq!(w.tick_vdso().len(), 0);
    }

    #[test]
    fn shell_unknown_command() {
        let mut w = small_world(XenVersion::V4_6);
        w.remote_mut().listen();
        let sid = w
            .remote_mut()
            .accept(DomainId::DOM0, Uid::new(1000), "peer")
            .unwrap();
        let out = w.shell_exec(sid, "rm -rf /").unwrap().to_string();
        assert!(out.contains("command not found"));
        assert!(matches!(
            w.shell_exec(SessionId(42), "id"),
            Err(WorldError::NoSession)
        ));
    }

    #[test]
    fn shell_permissions_respected() {
        let mut w = small_world(XenVersion::V4_6);
        w.remote_mut().listen();
        let dom0 = w.dom0();
        let sid = w
            .remote_mut()
            .accept(dom0, Uid::new(1000), "peer")
            .unwrap();
        let out = w.shell_exec(sid, "cat /root/root_msg").unwrap().to_string();
        assert!(out.contains("permission denied"));
    }

    #[test]
    fn invoke_interrupt_with_garbage_handler() {
        let mut w = small_world(XenVersion::V4_6);
        let attacker = w.domain_by_name("xen2").unwrap();
        // Point vector 0x80 at a mapped guest data page containing zeroes.
        let kernel_data_va = {
            let (hv, kernel) = w.hv_and_kernel_mut(attacker).unwrap();
            let (_, _, va) = kernel.alloc_heap_page(hv).unwrap();
            va
        };
        let gate = IdtEntry {
            offset: kernel_data_va,
            selector: IdtEntry::XEN_CS,
            dpl: 3,
            present: true,
        };
        let gate_va = w.hv().sidt(0).offset(IdtEntry::slot_offset(0x80) as u64);
        let mut packed = gate.pack().to_vec();
        w.hv_mut()
            .hc_arbitrary_access(attacker, gate_va.raw(), &mut packed, AccessMode::LinearWrite)
            .unwrap();
        let results = w.invoke_interrupt(attacker, 0x80).unwrap();
        // The attacker's own domain fetches zeroes (garbage); other
        // domains either fetch their own unrelated bytes (garbage) or
        // fault if the VA is unmapped in their context. Crucially,
        // nothing *executes*.
        let own = results.iter().find(|(d, _)| *d == attacker).unwrap();
        assert_eq!(own.1, HandlerOutcome::Garbage);
        assert!(results.iter().all(|(_, o)| *o != HandlerOutcome::Executed));
    }

    #[test]
    fn crash_kills_all_domains_and_interrupts() {
        let mut w = small_world(XenVersion::V4_6);
        let attacker = w.domain_by_name("xen2").unwrap();
        w.hv_mut().crash("test crash");
        assert!(w.hv().is_crashed());
        assert!(matches!(
            w.invoke_interrupt(attacker, 0x80),
            Err(WorldError::Hv(HvError::Crashed))
        ));
        assert_eq!(w.tick_vdso().len(), 0);
    }

    #[test]
    fn shared_l3_is_truly_shared_between_guests() {
        // The same L3 frame is stitched into every guest's L4 — the
        // property the XSA-212-priv strategy exploits to reach all
        // domains at once.
        let w = small_world(XenVersion::V4_8);
        let mut l3s = Vec::new();
        for d in w.domains() {
            let cr3 = w.hv().domain(d).unwrap().cr3().unwrap();
            let raw = w
                .hv()
                .mem()
                .read_u64(cr3.base().offset(256 * 8))
                .unwrap();
            l3s.push(PageTableEntry::from_raw(raw).mfn());
        }
        assert!(l3s.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(l3s[0], w.hv().shared_l3_mfn());
        assert_ne!(l3s[0], Mfn::new(0));
    }
}
