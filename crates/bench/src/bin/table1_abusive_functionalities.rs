//! Regenerates **Table I**: the abusive functionalities classified from
//! the 100-advisory study dataset.

use xsa_exploits::advisories;

fn main() {
    bench::reject_arguments("table1_abusive_functionalities", None);
    println!("{}", advisories::render_table1());
    let total_tags: usize = advisories::ADVISORIES
        .iter()
        .map(|a| a.functionalities.len())
        .sum();
    println!(
        "{} advisories studied, {} functionality tags ({} advisories carry two).",
        advisories::ADVISORIES.len(),
        total_tags,
        advisories::ADVISORIES
            .iter()
            .filter(|a| a.functionalities.len() == 2)
            .count()
    );
    println!("\npaper-vs-dataset check:");
    let mut ok = true;
    for (f, n) in advisories::counts() {
        let paper = f.paper_count();
        if n != paper {
            ok = false;
            println!("  MISMATCH {f}: dataset {n}, paper {paper}");
        }
    }
    if ok {
        println!("  every functionality count matches the paper exactly.");
    }
}
