//! The abusive-functionality taxonomy (paper Table I).
//!
//! An **abusive functionality** is "an unintended functionality the
//! system was built with" that an adversary discloses by exploiting a
//! vulnerability — the externally visible capability an intrusion grants.
//! The paper's preliminary study classifies 100 randomly selected Xen
//! CVEs into 15 functionalities across 4 classes; some CVEs carry more
//! than one functionality, so the 100 CVEs yield 108 tags.

use std::fmt;

/// The four classes Table I groups abusive functionalities into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FunctionalityClass {
    /// Direct unauthorized reads/writes of memory.
    MemoryAccess,
    /// Corruption of the memory-management machinery itself.
    MemoryManagement,
    /// Triggering exception mechanisms (hardware or software asserts).
    ExceptionalConditions,
    /// Effects outside the memory subsystem (hangs, interrupts).
    NonMemoryRelated,
}

impl FunctionalityClass {
    /// All classes in Table I order.
    pub const ALL: [FunctionalityClass; 4] = [
        FunctionalityClass::MemoryAccess,
        FunctionalityClass::MemoryManagement,
        FunctionalityClass::ExceptionalConditions,
        FunctionalityClass::NonMemoryRelated,
    ];

    /// The paper's per-class CVE count (Table I section headers).
    pub fn paper_cve_count(self) -> usize {
        match self {
            FunctionalityClass::MemoryAccess => 35,
            FunctionalityClass::MemoryManagement => 40,
            FunctionalityClass::ExceptionalConditions => 11,
            FunctionalityClass::NonMemoryRelated => 22,
        }
    }

    /// The label as printed in Table I.
    pub fn label(self) -> &'static str {
        match self {
            FunctionalityClass::MemoryAccess => "Memory Access",
            FunctionalityClass::MemoryManagement => "Memory Management",
            FunctionalityClass::ExceptionalConditions => "Exceptional Conditions",
            FunctionalityClass::NonMemoryRelated => "Non-Memory Related",
        }
    }
}

impl fmt::Display for FunctionalityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The 15 abusive functionalities of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum AbusiveFunctionality {
    /// Read memory the caller is not authorized for.
    ReadUnauthorizedMemory,
    /// Write memory the caller is not authorized for (fixed location).
    WriteUnauthorizedMemory,
    /// Write *arbitrary* unauthorized memory (write-what-where, CWE-123).
    WriteUnauthorizedArbitraryMemory,
    /// Both read and write unauthorized memory.
    ReadWriteUnauthorizedMemory,
    /// Cause a legitimate memory access to fail.
    FailMemoryAccess,
    /// Corrupt a virtual memory mapping.
    CorruptVirtualMemoryMapping,
    /// Corrupt a page reference (counts/ownership).
    CorruptPageReference,
    /// Reduce the availability of page mappings.
    DecreasePageMappingAvailability,
    /// Obtain a guest-writable page-table entry (XSA-148/182's family).
    GuestWritablePageTableEntry,
    /// Cause a memory mapping operation to fail.
    FailMemoryMapping,
    /// Allocate memory without control/limits.
    UncontrolledMemoryAllocation,
    /// Keep access to a page after releasing it (XSA-387/393's family).
    KeepPageAccess,
    /// Trigger a fatal software exception (panic/BUG/assert).
    InduceFatalException,
    /// Trigger a hardware memory exception.
    InduceMemoryException,
    /// Hang a CPU or the whole system.
    InduceHangState,
    /// Raise arbitrary uncontrolled interrupt requests.
    UncontrolledArbitraryInterrupts,
}

impl AbusiveFunctionality {
    /// All functionalities in Table I order.
    pub const ALL: [AbusiveFunctionality; 16] = [
        AbusiveFunctionality::ReadUnauthorizedMemory,
        AbusiveFunctionality::WriteUnauthorizedMemory,
        AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
        AbusiveFunctionality::ReadWriteUnauthorizedMemory,
        AbusiveFunctionality::FailMemoryAccess,
        AbusiveFunctionality::CorruptVirtualMemoryMapping,
        AbusiveFunctionality::CorruptPageReference,
        AbusiveFunctionality::DecreasePageMappingAvailability,
        AbusiveFunctionality::GuestWritablePageTableEntry,
        AbusiveFunctionality::FailMemoryMapping,
        AbusiveFunctionality::UncontrolledMemoryAllocation,
        AbusiveFunctionality::KeepPageAccess,
        AbusiveFunctionality::InduceFatalException,
        AbusiveFunctionality::InduceMemoryException,
        AbusiveFunctionality::InduceHangState,
        AbusiveFunctionality::UncontrolledArbitraryInterrupts,
    ];

    /// The class this functionality belongs to.
    pub fn class(self) -> FunctionalityClass {
        use AbusiveFunctionality::*;
        match self {
            ReadUnauthorizedMemory | WriteUnauthorizedMemory | WriteUnauthorizedArbitraryMemory
            | ReadWriteUnauthorizedMemory | FailMemoryAccess => FunctionalityClass::MemoryAccess,
            CorruptVirtualMemoryMapping | CorruptPageReference
            | DecreasePageMappingAvailability | GuestWritablePageTableEntry
            | FailMemoryMapping | UncontrolledMemoryAllocation | KeepPageAccess => {
                FunctionalityClass::MemoryManagement
            }
            InduceFatalException | InduceMemoryException => {
                FunctionalityClass::ExceptionalConditions
            }
            InduceHangState | UncontrolledArbitraryInterrupts => {
                FunctionalityClass::NonMemoryRelated
            }
        }
    }

    /// The label as printed in Table I.
    pub fn label(self) -> &'static str {
        use AbusiveFunctionality::*;
        match self {
            ReadUnauthorizedMemory => "Read Unauthorized Memory",
            WriteUnauthorizedMemory => "Write Unauthorized Memory",
            WriteUnauthorizedArbitraryMemory => "Write Unauthorized Arbitrary Memory",
            ReadWriteUnauthorizedMemory => "R/W Unauthorized Memory",
            FailMemoryAccess => "Fail a Memory Access",
            CorruptVirtualMemoryMapping => "Corrupt Virtual Memory Mapping",
            CorruptPageReference => "Corrupt a Page Reference",
            DecreasePageMappingAvailability => "Decrease Page Mapping Availability",
            GuestWritablePageTableEntry => "Guest-Writable Page Table Entry",
            FailMemoryMapping => "Fail a memory mapping",
            UncontrolledMemoryAllocation => "Uncontrolled Memory Allocation",
            KeepPageAccess => "Keep Page Access",
            InduceFatalException => "Induce a Fatal Exception",
            InduceMemoryException => "Induce a Memory Exception",
            InduceHangState => "Induce a Hang State",
            UncontrolledArbitraryInterrupts => "Uncontrolled Arbitrary Interrupts Requests",
        }
    }

    /// The tag count the paper reports in Table I.
    pub fn paper_count(self) -> usize {
        use AbusiveFunctionality::*;
        match self {
            ReadUnauthorizedMemory => 10,
            WriteUnauthorizedMemory => 9,
            WriteUnauthorizedArbitraryMemory => 4,
            ReadWriteUnauthorizedMemory => 7,
            FailMemoryAccess => 5,
            CorruptVirtualMemoryMapping => 4,
            CorruptPageReference => 4,
            DecreasePageMappingAvailability => 7,
            GuestWritablePageTableEntry => 6,
            FailMemoryMapping => 2,
            UncontrolledMemoryAllocation => 6,
            KeepPageAccess => 11,
            InduceFatalException => 6,
            InduceMemoryException => 5,
            InduceHangState => 20,
            UncontrolledArbitraryInterrupts => 2,
        }
    }
}

impl fmt::Display for AbusiveFunctionality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_class_counts_sum_to_paper_headers() {
        for class in FunctionalityClass::ALL {
            let sum: usize = AbusiveFunctionality::ALL
                .iter()
                .filter(|f| f.class() == class)
                .map(|f| f.paper_count())
                .sum();
            assert_eq!(sum, class.paper_cve_count(), "class {class}");
        }
    }

    #[test]
    fn total_tags_is_108() {
        let total: usize = AbusiveFunctionality::ALL.iter().map(|f| f.paper_count()).sum();
        assert_eq!(total, 108, "100 CVEs, 8 with two functionalities");
    }

    #[test]
    fn class_header_counts_match_paper() {
        assert_eq!(FunctionalityClass::MemoryAccess.paper_cve_count(), 35);
        assert_eq!(FunctionalityClass::MemoryManagement.paper_cve_count(), 40);
        assert_eq!(FunctionalityClass::ExceptionalConditions.paper_cve_count(), 11);
        assert_eq!(FunctionalityClass::NonMemoryRelated.paper_cve_count(), 22);
    }

    #[test]
    fn labels_match_table_one() {
        assert_eq!(
            AbusiveFunctionality::GuestWritablePageTableEntry.label(),
            "Guest-Writable Page Table Entry"
        );
        assert_eq!(AbusiveFunctionality::KeepPageAccess.label(), "Keep Page Access");
        assert_eq!(FunctionalityClass::NonMemoryRelated.label(), "Non-Memory Related");
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut set = std::collections::BTreeSet::new();
        for f in AbusiveFunctionality::ALL {
            assert!(set.insert(f), "duplicate {f:?}");
        }
        assert_eq!(set.len(), 16);
    }
}
