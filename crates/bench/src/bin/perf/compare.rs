//! `perf compare`: a verdict per workload × end-to-end metric between
//! two results files, then the per-layer metrics that moved most.

use crate::metrics::{Better, END_TO_END};
use crate::runs::Results;
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a change within
    /// it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. Every new run beating every base run is an
/// improvement whatever the spread; otherwise a spread (IQR over median,
/// the wider of the two sides) above `bound` is unresolved, and the
/// median's relative change decides against `bound`.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |n: f64, b: f64| match better {
        Better::Higher => n > b,
        Better::Lower => n < b,
    };
    if !base.is_empty() && new.iter().all(|&n| base.iter().all(|&b| beats(n, b))) {
        return Verdict::Improved;
    }
    if spread(base).max(spread(new)) > bound {
        return Verdict::Unresolved;
    }
    let (b, n) = (median(base), median(new));
    let worse_by = match better {
        Better::Higher => (b - n) / b,
        Better::Lower => (n - b) / b,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Failed cells over attempted cells of `workload`'s runs.
fn failed_frac(results: &Results, workload: &str) -> f64 {
    let (failed, attempted) = results
        .runs
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

fn values(results: &Results, workload: &str, metric: &str) -> Vec<f64> {
    results
        .runs
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Per-layer values that are differences of two measurements: they sit
/// near zero and swing with noise, so they are not ranked.
const DIFFERENCES: [&str; 3] = [
    "core.harness_us_per_cell",
    "core.checkpoint_us_per_cell",
    "trace_overhead_pct",
];

/// The `count` per-layer metrics whose relative change from `base` to
/// `new` is largest, rendered `name base -> new (change)`. Tails from a
/// single traced run are too noisy to rank, and so are differences.
fn top_movers(
    base: &BTreeMap<String, f64>,
    new: &BTreeMap<String, f64>,
    count: usize,
) -> Vec<String> {
    let mut moved: Vec<(f64, &str, f64, f64)> = base
        .iter()
        .filter(|(name, _)| !name.ends_with(".p999") && !DIFFERENCES.contains(&name.as_str()))
        .filter_map(|(name, &b)| {
            let n = *new.get(name)?;
            (b != 0.0).then(|| ((n - b) / b, name.as_str(), b, n))
        })
        .collect();
    moved.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
    moved
        .iter()
        .take(count)
        .map(|(change, name, b, n)| format!("{name} {b:.4} -> {n:.4} ({:+.1}%)", change * 100.0))
        .collect()
}

/// Renders the comparison and reports whether anything regressed.
pub fn compare(base: &Results, new: &Results) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let mut workloads: Vec<&str> = new.runs.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let _ = writeln!(
        out,
        "{:<22} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "change", "bound"
    );
    for &workload in &workloads {
        for metric in &END_TO_END {
            let (b, n) = (
                values(base, workload, metric.name),
                values(new, workload, metric.name),
            );
            if b.is_empty() || n.is_empty() {
                let _ = writeln!(
                    out,
                    "{workload:<22} {:<16} missing from one side",
                    metric.name
                );
                continue;
            }
            let v = verdict(&b, &n, metric.better, metric.bound);
            regressed |= v == Verdict::Regressed;
            let (bm, nm) = (median(&b), median(&n));
            let _ = writeln!(
                out,
                "{workload:<22} {:<16} {bm:>14.4} {nm:>14.4} {:>+7.1}% {:>6.0}%  {}",
                metric.name,
                (nm - bm) / bm * 100.0,
                metric.bound * 100.0,
                v.label()
            );
        }
        let (bf, nf) = (failed_frac(base, workload), failed_frac(new, workload));
        let v = if nf > bf {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        regressed |= v == Verdict::Regressed;
        let _ = writeln!(
            out,
            "{workload:<22} {:<16} {bf:>14.6} {nf:>14.6} {:>8} {:>7}  {}",
            "failed_frac",
            "",
            "any",
            v.label()
        );
    }
    let _ = writeln!(out, "\nper-layer metrics that moved most (traced runs):");
    for &workload in &workloads {
        let (Some(b), Some(n)) = (base.layers.get(workload), new.layers.get(workload)) else {
            let _ = writeln!(out, "  {workload}: no traced run on one side");
            continue;
        };
        let _ = writeln!(out, "  {workload}: {}", top_movers(b, n, 5).join("; "));
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn within_the_bound_is_ok() {
        let new = [98.0, 99.0, 97.5, 98.5, 99.2];
        assert_eq!(verdict(&BASE, &new, Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn worse_than_the_bound_regresses_both_directions() {
        let slow = [85.0, 86.0, 84.5, 85.5, 86.5];
        assert_eq!(
            verdict(&BASE, &slow, Better::Higher, 0.10),
            Verdict::Regressed
        );
        let costly = [115.0, 116.0, 114.5, 115.5, 114.0];
        assert_eq!(
            verdict(&BASE, &costly, Better::Lower, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn better_than_the_bound_improves() {
        // One run is no faster than the best base run, so the median
        // decides.
        let fast = [115.0, 116.0, 114.0, 115.5, 100.8];
        assert_eq!(
            verdict(&BASE, &fast, Better::Higher, 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0];
        assert_eq!(
            verdict(&BASE, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &BASE, Better::Higher, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn every_new_run_beating_every_base_run_is_resolved_despite_spread() {
        let noisy_but_faster = [150.0, 260.0, 180.0, 240.0, 200.0];
        assert_eq!(
            verdict(&BASE, &noisy_but_faster, Better::Higher, 0.10),
            Verdict::Improved
        );
        let noisy_but_cheaper = [50.0, 90.0, 60.0, 80.0, 70.0];
        assert_eq!(
            verdict(&BASE, &noisy_but_cheaper, Better::Lower, 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn movers_rank_direct_measurements_by_relative_change() {
        let layers = |pairs: &[(&str, f64)]| -> BTreeMap<String, f64> {
            pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
        };
        let base = layers(&[
            ("hv.translate_ns", 100.0),
            ("paging.walk_4k_ns", 80.0),
            ("guest.world_clone_us.p999", 10.0),
            ("core.checkpoint_us_per_cell", 0.01),
        ]);
        let new = layers(&[
            ("hv.translate_ns", 50.0),
            ("paging.walk_4k_ns", 84.0),
            ("guest.world_clone_us.p999", 90.0),
            ("core.checkpoint_us_per_cell", -0.5),
        ]);
        let top = top_movers(&base, &new, 5);
        assert_eq!(top.len(), 2, "{top:?}");
        assert!(
            top[0].starts_with("hv.translate_ns 100.0000 -> 50.0000 (-50.0%)"),
            "{top:?}"
        );
        assert!(top[1].starts_with("paging.walk_4k_ns"), "{top:?}");
    }

    #[test]
    fn any_rise_in_failures_regresses() {
        use crate::measure::Host;
        use crate::runs::RunRecord;
        let host = Host {
            nproc: 2,
            cpu_model: "test".into(),
            kernel: "test".into(),
            rustc: "test".into(),
            git_head: None,
        };
        let results = |failed: u64| Results {
            host: host.clone(),
            seed: 1,
            seconds: 1.0,
            runs: (0..5)
                .map(|i| RunRecord {
                    workload: "w".into(),
                    attempted: 1000,
                    failed: if i == 0 { failed } else { 0 },
                    metrics: END_TO_END
                        .iter()
                        .map(|m| (m.name.to_owned(), 10.0))
                        .collect(),
                })
                .collect(),
            layers: BTreeMap::new(),
        };
        assert!(!compare(&results(0), &results(0)).1);
        let (text, regressed) = compare(&results(0), &results(1));
        assert!(regressed, "{text}");
        assert!(text.contains("failed_frac"));
    }
}
