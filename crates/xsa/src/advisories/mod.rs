//! The abusive-functionality study dataset (paper §IV-D, Table I).
//!
//! The paper's preliminary study randomly selected 100 CVEs from the Xen
//! Security Advisory list and classified, from public metadata, the
//! abusive functionality an attacker acquires by exploiting each. This
//! module carries that study as a machine-readable dataset: 100 advisory
//! records, each tagged with one or two [`AbusiveFunctionality`] values
//! (8 records carry two — "some CVEs can have more than one abusive
//! functionality depending on how they are exploited"), for 108 tags
//! total. The per-functionality counts reproduce Table I exactly.

mod data;

pub use data::ADVISORIES;

use intrusion_core::report::TextTable;
use intrusion_core::{AbusiveFunctionality, FunctionalityClass};
use std::collections::BTreeMap;

/// One studied advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advisory {
    /// Xen Security Advisory identifier.
    pub xsa: &'static str,
    /// Assigned CVE.
    pub cve: &'static str,
    /// Publication year.
    pub year: u16,
    /// One-line summary paraphrased from the advisory metadata.
    pub summary: &'static str,
    /// The abusive functionalities an exploiting attacker acquires.
    pub functionalities: &'static [AbusiveFunctionality],
}

/// Groups the dataset by abusive functionality.
pub fn classify() -> BTreeMap<AbusiveFunctionality, Vec<&'static Advisory>> {
    let mut map: BTreeMap<AbusiveFunctionality, Vec<&'static Advisory>> = BTreeMap::new();
    for adv in ADVISORIES {
        for &f in adv.functionalities {
            map.entry(f).or_default().push(adv);
        }
    }
    map
}

/// Per-functionality tag counts over the dataset.
pub fn counts() -> BTreeMap<AbusiveFunctionality, usize> {
    classify().into_iter().map(|(f, v)| (f, v.len())).collect()
}

/// CVE tags per class — the Table I section headers (the paper's
/// per-class totals are the sums of the rows beneath them; a CVE tagged
/// with two functionalities contributes to each).
pub fn class_cve_counts() -> BTreeMap<FunctionalityClass, usize> {
    let mut map: BTreeMap<FunctionalityClass, usize> = BTreeMap::new();
    for adv in ADVISORIES {
        for &f in adv.functionalities {
            *map.entry(f.class()).or_default() += 1;
        }
    }
    map
}

/// Renders Table I from the dataset.
pub fn render_table1() -> String {
    let counts = counts();
    let class_counts = class_cve_counts();
    let mut out = String::new();
    out.push_str("TABLE I: abusive functionalities obtained from activating Xen vulnerabilities\n");
    for class in FunctionalityClass::ALL {
        let mut table = TextTable::new([
            format!("{} - {} CVEs", class.label(), class_counts.get(&class).copied().unwrap_or(0)),
            "count".to_owned(),
        ]);
        for f in AbusiveFunctionality::ALL {
            if f.class() == class {
                table.row([
                    f.label().to_owned(),
                    format!("{:02}", counts.get(&f).copied().unwrap_or(0)),
                ]);
            }
        }
        out.push_str(&table.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_100_advisories() {
        assert_eq!(ADVISORIES.len(), 100);
    }

    #[test]
    fn every_functionality_count_matches_table_one() {
        let counts = counts();
        for f in AbusiveFunctionality::ALL {
            assert_eq!(
                counts.get(&f).copied().unwrap_or(0),
                f.paper_count(),
                "count for {f}"
            );
        }
    }

    #[test]
    fn total_tags_is_108_over_100_cves() {
        let total: usize = ADVISORIES.iter().map(|a| a.functionalities.len()).sum();
        assert_eq!(total, 108);
        let dual = ADVISORIES.iter().filter(|a| a.functionalities.len() == 2).count();
        assert_eq!(dual, 8);
        assert!(ADVISORIES.iter().all(|a| !a.functionalities.is_empty()));
        assert!(ADVISORIES.iter().all(|a| a.functionalities.len() <= 2));
    }

    #[test]
    fn class_headers_match_paper() {
        let classes = class_cve_counts();
        assert_eq!(classes[&FunctionalityClass::MemoryAccess], 35);
        assert_eq!(classes[&FunctionalityClass::MemoryManagement], 40);
        assert_eq!(classes[&FunctionalityClass::ExceptionalConditions], 11);
        assert_eq!(classes[&FunctionalityClass::NonMemoryRelated], 22);
    }

    #[test]
    fn known_advisories_present_and_classified() {
        let find = |xsa: &str| ADVISORIES.iter().find(|a| a.xsa == xsa).unwrap();
        assert!(find("XSA-148")
            .functionalities
            .contains(&AbusiveFunctionality::GuestWritablePageTableEntry));
        assert!(find("XSA-182")
            .functionalities
            .contains(&AbusiveFunctionality::GuestWritablePageTableEntry));
        assert!(find("XSA-212")
            .functionalities
            .contains(&AbusiveFunctionality::WriteUnauthorizedArbitraryMemory));
        assert!(find("XSA-387")
            .functionalities
            .contains(&AbusiveFunctionality::KeepPageAccess));
        assert!(find("XSA-393")
            .functionalities
            .contains(&AbusiveFunctionality::KeepPageAccess));
    }

    #[test]
    fn dual_tag_examples_from_paper_present() {
        let c1 = ADVISORIES.iter().find(|a| a.cve == "CVE-2019-17343").unwrap();
        let c2 = ADVISORIES.iter().find(|a| a.cve == "CVE-2020-27672").unwrap();
        assert_eq!(c1.functionalities.len(), 2);
        assert_eq!(c2.functionalities.len(), 2);
    }

    #[test]
    fn identifiers_are_unique() {
        let mut cves = std::collections::BTreeSet::new();
        let mut xsas = std::collections::BTreeSet::new();
        for a in ADVISORIES {
            assert!(cves.insert(a.cve), "duplicate cve {}", a.cve);
            assert!(xsas.insert(a.xsa), "duplicate xsa {}", a.xsa);
        }
    }

    #[test]
    fn rendered_table_contains_all_rows() {
        let t = render_table1();
        assert!(t.contains("Memory Access - 35 CVEs"));
        assert!(t.contains("Keep Page Access"));
        assert!(t.contains("Induce a Hang State"));
        assert!(t.contains("20"));
    }
}
