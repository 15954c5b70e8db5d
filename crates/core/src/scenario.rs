//! Use cases: an intrusion model with an exploit path and an injection
//! path.
//!
//! Each of the paper's four use cases (Table II) is a [`UseCase`]: it
//! carries the instantiated [`IntrusionModel`], can run the original
//! third-party exploit strategy, and can inject the equivalent erroneous
//! state with an [`Injector`] and then attempt the same abuse.

use crate::erroneous_state::{AuditEvidence, StateAudit};
use crate::injector::{InjectError, Injector};
use crate::model::IntrusionModel;
use crate::monitor::Monitor;
use guestos::{HandlerOutcome, SessionId, ShellReply, World, WorldError};
use hvsim::{HvError, XenVersion};
use hvsim_mem::{DomainId, Mfn, VirtAddr};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Whether a run used the original exploit or the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Run the real exploit (works only where the vulnerability exists).
    Exploit,
    /// Inject the erroneous state with the intrusion injector.
    Injection,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::Exploit => "exploit",
            Mode::Injection => "injection",
        })
    }
}

/// One step of a use-case run (the lines of the exploit transcripts in
/// the paper). A note records the values it shows and formats nothing;
/// `Display` renders its line.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Note {
    /// Fixed text, or text a use case formatted itself.
    Text(Cow<'static, str>),
    /// `sidt` leaked the IDT's linear base.
    Sidt(VirtAddr),
    /// The `memory_exchange` write-back was aimed at an address.
    WriteBackAimedAt(VirtAddr),
    /// The injector overwrote the #PF gate.
    GateOverwritten {
        /// Write operations it took.
        ops: usize,
    },
    /// An IDT gate now points at a handler.
    GateInstalled {
        /// Gate vector.
        vector: u8,
        /// The handler address.
        handler: VirtAddr,
    },
    /// What a forged interrupt handler did in one domain.
    HandlerRan {
        /// The domain.
        dom: DomainId,
        /// What the handler did there.
        outcome: HandlerOutcome,
    },
    /// The forged interrupt could not be dispatched.
    InterruptFailed(WorldError),
    /// Installing the payload gate failed (boxed: it is rare and large).
    GateInjectionIssue(Box<InjectError>),
    /// A read-only self-map was installed in the page directory.
    SelfMapInstalled {
        /// The page-directory slot.
        index: usize,
    },
    /// A page-directory entry read back through the self-map.
    PageDirectory {
        /// The page-directory slot.
        index: usize,
        /// The entry read.
        entry: u64,
    },
    /// The ring-3 write to the page directory still faulted.
    UserWriteFaults(HvError),
    /// Updating the page directory through the self-map faulted.
    PageDirectoryException(HvError),
    /// The injector set the self-map's RW bit.
    InjectedRwBit(AuditEvidence),
    /// The exploit read the hypervisor version.
    XenVersion(XenVersion),
    /// The exploit's superpage-window L2 entry.
    L2EntryVa(VirtAddr),
    /// The window scan fingerprinted dom0's start-info page.
    StartInfoPage(Mfn),
    /// The window scan found dom0's vDSO.
    Dom0Vdso(Mfn),
    /// The injector scan fingerprinted dom0's start-info page.
    ScanStartInfo(Mfn),
    /// The injector scan found dom0's vDSO.
    ScanVdso(Mfn),
    /// A command run over a reverse shell and its reply, on one line.
    Shell {
        /// The session.
        session: SessionId,
        /// The command line.
        command: &'static str,
        /// What it printed, shared with the session's transcript.
        reply: ShellReply,
    },
    /// The specification a randomized trial injected, and its region.
    Trial {
        /// The specification's label.
        spec: &'static str,
        /// The region's label.
        region: &'static str,
    },
}

impl From<&'static str> for Note {
    fn from(text: &'static str) -> Self {
        Note::Text(Cow::Borrowed(text))
    }
}

impl From<String> for Note {
    fn from(text: String) -> Self {
        Note::Text(Cow::Owned(text))
    }
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::Text(text) => f.write_str(text),
            Note::Sidt(idt) => write!(f, "sidt -> {idt}"),
            Note::WriteBackAimedAt(va) => write!(f, "memory_exchange write-back aimed at {va}"),
            Note::GateOverwritten { ops } => {
                write!(f, "arbitrary_access wrote {ops} op(s) over the #PF gate")
            }
            Note::GateInstalled { vector, handler } => {
                write!(f, "IDT gate {vector:#x} -> {handler}")
            }
            Note::HandlerRan { dom, outcome } => {
                // A fault shows as its message, as the transcript printed it.
                write!(f, "handler in {dom}: ")?;
                match outcome {
                    HandlerOutcome::Faulted(e) => write!(f, "Faulted({:?})", e.to_string()),
                    HandlerOutcome::FetchFailed => f.write_str("Faulted(\"code fetch failed\")"),
                    other => write!(f, "{other:?}"),
                }
            }
            Note::InterruptFailed(e) => write!(f, "interrupt invocation failed: {e}"),
            Note::GateInjectionIssue(e) => write!(f, "gate injection issue: {e}"),
            Note::SelfMapInstalled { index } => {
                write!(f, "read-only self-map installed at page_directory[{index}]")
            }
            Note::PageDirectory { index, entry } => {
                write!(f, "page_directory[{index}] = {entry:#018x}")
            }
            Note::UserWriteFaults(e) => write!(f, "user-space write still faults: {e}"),
            Note::PageDirectoryException(e) => {
                write!(f, "exception while updating page directory: {e}")
            }
            Note::InjectedRwBit(evidence) => write!(f, "injected RW bit: {evidence}"),
            Note::XenVersion(version) => write!(f, "xen_exploit: xen version = {version}"),
            Note::L2EntryVa(va) => write!(f, "xen_exploit: l2_entry_va = {va}"),
            Note::StartInfoPage(mfn) => write!(f, "xen_exploit: start_info page: {mfn}"),
            Note::Dom0Vdso(mfn) => write!(f, "xen_exploit: dom0 vdso : {mfn}"),
            Note::ScanStartInfo(mfn) => write!(f, "injector scan: dom0 start_info at {mfn}"),
            Note::ScanVdso(mfn) => write!(f, "injector scan: dom0 vdso at {mfn}"),
            Note::Shell { session, command, reply } => {
                write!(f, "shell[{session}]: {command} -> ")?;
                for (i, output) in reply.outputs().iter().enumerate() {
                    if i > 0 {
                        f.write_char(' ')?;
                    }
                    write!(f, "{output}")?;
                }
                Ok(())
            }
            Note::Trial { spec, region } => write!(f, "{spec} ({region})"),
        }
    }
}

/// What a use-case run reported about itself.
///
/// The *security violation* judgment is made separately by the
/// [`Monitor`]; the outcome reports whether the erroneous state was
/// induced, with the audit evidence, plus the run's log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Whether the erroneous state was induced (per the audit).
    pub erroneous_state: bool,
    /// The state audit, when one was performed.
    pub state_audit: Option<StateAudit>,
    /// Noteworthy steps (mirrors the exploit transcripts in the paper).
    pub notes: Vec<Note>,
    /// Why the run failed to induce the state, if it did (e.g.
    /// "memory_exchange returned -EFAULT (bad address)").
    pub error: Option<String>,
}

impl ScenarioOutcome {
    /// A failed run with an error message.
    pub fn failed(error: impl Into<String>) -> Self {
        Self {
            erroneous_state: false,
            state_audit: None,
            notes: Vec::new(),
            error: Some(error.into()),
        }
    }

    /// An outcome with room for `notes` notes, for a run that knows how
    /// long its transcript is.
    pub fn with_notes(notes: usize) -> Self {
        Self { notes: Vec::with_capacity(notes), ..Self::default() }
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<Note>) {
        self.notes.push(note.into());
    }
}

/// One use case of the evaluation (paper Table II).
///
/// `Send + Sync` because campaign cells run on worker threads sharing
/// the use-case objects by reference.
pub trait UseCase: Send + Sync {
    /// The use-case name as printed in the paper (e.g. `XSA-212-crash`).
    fn name(&self) -> &'static str;

    /// The instantiated intrusion model.
    fn intrusion_model(&self) -> IntrusionModel;

    /// Runs the original exploit strategy as `attacker`.
    fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome;

    /// Injects the equivalent erroneous state with `injector` and then
    /// attempts the same abuse the exploit would perform on top of it.
    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome;

    /// Runs the exploit for one trial of a parameter grid. The default
    /// ignores the trial index and delegates to [`UseCase::run_exploit`]
    /// — the paper's use cases are single-shot; grid-style cases
    /// override this to vary their parameters by trial.
    fn run_exploit_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        trial: u64,
    ) -> ScenarioOutcome {
        let _ = trial;
        self.run_exploit(world, attacker)
    }

    /// Runs the injection path for one trial of a parameter grid; the
    /// default ignores the trial index and delegates to
    /// [`UseCase::run_injection`].
    fn run_injection_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
        trial: u64,
    ) -> ScenarioOutcome {
        let _ = trial;
        self.run_injection(world, attacker, injector)
    }

    /// The monitor configuration appropriate for this use case.
    fn monitor(&self, world: &World, attacker: DomainId) -> Monitor {
        let _ = (world, attacker);
        Monitor::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_display() {
        assert_eq!(Mode::Exploit.to_string(), "exploit");
        assert_eq!(Mode::Injection.to_string(), "injection");
    }

    /// Every kind of note renders the line the use cases printed when
    /// they formatted their notes themselves. The literals are that text
    /// (the `run` transcripts where a paper cell prints the line).
    #[test]
    fn notes_render_the_lines_runs_printed() {
        use crate::campaign::standard_world;
        use guestos::Uid;
        use hvsim::{AccessKind, PageFault, PageFaultKind};

        let va = VirtAddr::new(0xffff_8040_0000_0000);
        let fault = |access, kind| HvError::GuestFault(PageFault::new(va, access, kind));
        let not_present = fault(AccessKind::Execute, PageFaultKind::NotPresent { level: 4 });
        let mut world = standard_world(XenVersion::V4_6, false).expect("boots");
        world.remote_mut().listen();
        let dom0 = world.dom0();
        let session = world.remote_mut().accept(dom0, Uid::ROOT, "10.3.1.181").expect("listening");
        let mut shell = |command| {
            let reply = world.shell_exec(session, command).expect("session");
            Note::Shell { session, command, reply }
        };
        let cases = [
            (Note::from("xen_exploit: dom0!"), "xen_exploit: dom0!"),
            (Note::from(format!("{} unbound sends accepted", 3)), "3 unbound sends accepted"),
            (Note::Sidt(VirtAddr::new(0xffff_8300_0000_2000)), "sidt -> 0xffff830000002000"),
            (
                Note::WriteBackAimedAt(VirtAddr::new(0xffff_8300_0000_20e0)),
                "memory_exchange write-back aimed at 0xffff8300000020e0",
            ),
            (Note::GateOverwritten { ops: 1 }, "arbitrary_access wrote 1 op(s) over the #PF gate"),
            (
                Note::GateInstalled { vector: 0x80, handler: VirtAddr::new(0xffff_8040_0000_0000) },
                "IDT gate 0x80 -> 0xffff804000000000",
            ),
            (Note::HandlerRan { dom: dom0, outcome: HandlerOutcome::Executed }, "handler in dom0: Executed"),
            (Note::HandlerRan { dom: DomainId::new(2), outcome: HandlerOutcome::Garbage }, "handler in dom2: Garbage"),
            (
                Note::HandlerRan { dom: DomainId::new(1), outcome: HandlerOutcome::Faulted(not_present.clone()) },
                "handler in dom1: Faulted(\"guest fault: page fault: execute at 0xffff804000000000: L4 entry not present\")",
            ),
            (
                Note::HandlerRan { dom: dom0, outcome: HandlerOutcome::FetchFailed },
                "handler in dom0: Faulted(\"code fetch failed\")",
            ),
            (
                Note::InterruptFailed(WorldError::Hv(HvError::Crashed)),
                "interrupt invocation failed: hypervisor: hypervisor has crashed",
            ),
            (
                Note::GateInjectionIssue(Box::new(InjectError::Hv(HvError::Perm))),
                "gate injection issue: injector hypercall failed: operation not permitted (-EPERM)",
            ),
            (Note::SelfMapInstalled { index: 42 }, "read-only self-map installed at page_directory[42]"),
            (Note::PageDirectory { index: 42, entry: 0xb_2007 }, "page_directory[42] = 0x00000000000b2007"),
            (
                Note::UserWriteFaults(fault(AccessKind::Write, PageFaultKind::NotUser { level: 4 })),
                "user-space write still faults: guest fault: page fault: write at 0xffff804000000000: L4 entry supervisor-only",
            ),
            (
                Note::PageDirectoryException(not_present),
                "exception while updating page directory: guest fault: page fault: execute at 0xffff804000000000: L4 entry not present",
            ),
            (
                Note::InjectedRwBit(AuditEvidence::L4Entry { index: 42, entry: 0xb_2007 }),
                "injected RW bit: page_directory[42] = 0x00000000000b2007",
            ),
            (Note::XenVersion(XenVersion::V4_6), "xen_exploit: xen version = 4.6"),
            (Note::L2EntryVa(VirtAddr::new(0x6000_0120_0000)), "xen_exploit: l2_entry_va = 0x0000600001200000"),
            (Note::StartInfoPage(Mfn::new(0xc)), "xen_exploit: start_info page: 0xc"),
            (Note::Dom0Vdso(Mfn::new(0x12)), "xen_exploit: dom0 vdso : 0x12"),
            (Note::ScanStartInfo(Mfn::new(0xc)), "injector scan: dom0 start_info at 0xc"),
            (Note::ScanVdso(Mfn::new(0x12)), "injector scan: dom0 vdso at 0x12"),
            (shell("whoami && hostname"), "shell[session#0]: whoami && hostname -> root xen3"),
            (
                shell("cat /root/root_msg"),
                "shell[session#0]: cat /root/root_msg -> Confidential content in root folder!",
            ),
            (
                Note::Shell { session, command: "whoami", reply: ShellReply::default() },
                "shell[session#0]: whoami -> ",
            ),
            (
                Note::Trial { spec: "set RW on L4 entry", region: "domain page tables" },
                "set RW on L4 entry (domain page tables)",
            ),
        ];
        for (note, want) in cases {
            assert_eq!(note.to_string(), want, "{note:?}");
        }
    }

    #[test]
    fn outcome_helpers() {
        let mut o = ScenarioOutcome::failed("-EFAULT");
        assert!(!o.erroneous_state);
        assert_eq!(o.error.as_deref(), Some("-EFAULT"));
        o.note("step 1");
        assert_eq!(o.notes, vec![Note::Text("step 1".into())]);
    }
}
