//! Hypervisor versions and their vulnerability / hardening configuration.

use hvsim_paging::{MemoryLayout, WalkPolicy};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three Xen versions used in the paper's experiments.
///
/// 4.6 is the vulnerable baseline; 4.8 has the use-case vulnerabilities
/// fixed; 4.13 additionally carries the XSA-213-followup hardening (the
/// "security improvements applied to Xen" the paper credits for handling
/// two of the four injected erroneous states).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum XenVersion {
    /// Xen 4.6 — vulnerable to XSA-148, XSA-182 and XSA-212.
    V4_6,
    /// Xen 4.8 — the use-case vulnerabilities are fixed, classic layout.
    V4_8,
    /// Xen 4.13 — fixed and hardened (linear page-table mapping removed).
    V4_13,
}

impl XenVersion {
    /// All versions, in release order.
    pub const ALL: [XenVersion; 3] = [XenVersion::V4_6, XenVersion::V4_8, XenVersion::V4_13];

    /// The vulnerability configuration compiled into this version.
    pub fn vulns(self) -> VulnConfig {
        match self {
            XenVersion::V4_6 => VulnConfig {
                xsa148_l2_pse_unchecked: true,
                xsa182_l4_fastpath_unrestricted: true,
                xsa212_exchange_unchecked_handle: true,
                xsa387_gnttab_v2_status_leak: true,
                xsa393_decrease_reservation_keeps_mapping: true,
                xsa_evtchn_unvalidated_send: true,
            },
            XenVersion::V4_8 | XenVersion::V4_13 => VulnConfig::all_fixed(),
        }
    }

    /// The virtual memory layout of this version.
    pub fn layout(self) -> MemoryLayout {
        match self {
            XenVersion::V4_6 | XenVersion::V4_8 => MemoryLayout::classic(),
            XenVersion::V4_13 => MemoryLayout::hardened(),
        }
    }

    /// The page-walk policy of this version.
    pub fn walk_policy(self) -> WalkPolicy {
        WalkPolicy {
            forbid_writable_selfmap: self.layout().is_hardened(),
        }
    }

    /// `true` if this version still contains the paper's use-case
    /// vulnerabilities.
    pub fn is_vulnerable(self) -> bool {
        self == XenVersion::V4_6
    }
}

impl fmt::Display for XenVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            XenVersion::V4_6 => "4.6",
            XenVersion::V4_8 => "4.8",
            XenVersion::V4_13 => "4.13",
        })
    }
}

/// Individual vulnerability toggles.
///
/// Each flag names the *check that is missing* in vulnerable builds, so
/// the validation code reads as "if the check is compiled in, enforce it".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VulnConfig {
    /// XSA-148: `mmu_update` accepts L2 entries with the PSE bit without
    /// validating the superpage's frame range, letting a PV guest map a
    /// 2 MiB window over arbitrary machine memory — including its own
    /// page-table frames, yielding a guest-writable page table.
    pub xsa148_l2_pse_unchecked: bool,
    /// XSA-182: the L4 `mmu_update` fast path skips re-validation for any
    /// flags-only change, letting a guest add `RW` to a self-referencing
    /// L4 entry (a writable linear self-map of its own page tables).
    pub xsa182_l4_fastpath_unrestricted: bool,
    /// XSA-212: `memory_exchange` does not validate the guest-supplied
    /// output handle, so the hypervisor writes exchanged MFNs to an
    /// attacker-encoded address with full hypervisor privileges.
    pub xsa212_exchange_unchecked_handle: bool,
    /// XSA-387-style: switching grant tables v2 → v1 fails to release the
    /// v2 status frames, leaving the guest with a reference to Xen pages.
    pub xsa387_gnttab_v2_status_leak: bool,
    /// XSA-393-style: `decrease_reservation` frees the frame but fails to
    /// remove the guest's still-live mapping of it.
    pub xsa393_decrease_reservation_keeps_mapping: bool,
    /// Interrupt-path hole (extension IM substrate): `evtchn_send` trusts
    /// the caller's port number without checking the binding, letting a
    /// guest raise arbitrary events on arbitrary domains.
    pub xsa_evtchn_unvalidated_send: bool,
}

impl VulnConfig {
    /// Every vulnerability fixed (all checks compiled in).
    pub const fn all_fixed() -> Self {
        Self {
            xsa148_l2_pse_unchecked: false,
            xsa182_l4_fastpath_unrestricted: false,
            xsa212_exchange_unchecked_handle: false,
            xsa387_gnttab_v2_status_leak: false,
            xsa393_decrease_reservation_keeps_mapping: false,
            xsa_evtchn_unvalidated_send: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_vulnerability_matrix() {
        assert!(XenVersion::V4_6.vulns().xsa212_exchange_unchecked_handle);
        assert!(XenVersion::V4_6.vulns().xsa148_l2_pse_unchecked);
        assert!(XenVersion::V4_6.is_vulnerable());
        for v in [XenVersion::V4_8, XenVersion::V4_13] {
            assert_eq!(v.vulns(), VulnConfig::all_fixed());
            assert!(!v.is_vulnerable());
        }
    }

    #[test]
    fn only_4_13_is_hardened() {
        assert!(!XenVersion::V4_6.layout().is_hardened());
        assert!(!XenVersion::V4_8.layout().is_hardened());
        assert!(XenVersion::V4_13.layout().is_hardened());
        assert!(XenVersion::V4_13.walk_policy().forbid_writable_selfmap);
        assert!(!XenVersion::V4_8.walk_policy().forbid_writable_selfmap);
    }

    #[test]
    fn display_matches_paper_labels() {
        let labels: Vec<String> = XenVersion::ALL.iter().map(|v| v.to_string()).collect();
        assert_eq!(labels, ["4.6", "4.8", "4.13"]);
    }

    #[test]
    fn release_ordering() {
        assert!(XenVersion::V4_6 < XenVersion::V4_8);
        assert!(XenVersion::V4_8 < XenVersion::V4_13);
    }
}
