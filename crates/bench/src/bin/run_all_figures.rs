//! Regenerates every figure in sequence by invoking the sibling binaries.
//!
//! `cargo run -p jmb-bench --release --bin run_all_figures [-- --quick]`
//!
//! The arguments are forwarded to every figure binary. The first binary
//! that fails ends the run, and its exit code becomes this binary's.

use std::process::Command;

use jmb_bench::or_fail;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "fig00_drift_motivation",
        "fig06_misalignment",
        "fig07_misalignment_cdf",
        "fig08_inr_scaling",
        "fig09_throughput_scaling",
        "fig10_fairness",
        "fig11_diversity",
        "fig12_compat_throughput",
        "fig13_compat_fairness",
        "ablation_phase_sync",
        "ablation_interleaving",
    ];
    let me = or_fail(std::env::current_exe(), "locating own binary");
    let dir = me.parent().unwrap_or(std::path::Path::new("."));
    for bin in bins {
        let path = dir.join(bin);
        println!();
        let status = or_fail(
            Command::new(&path).args(&args).status(),
            &format!("launching {}", path.display()),
        );
        if !status.success() {
            eprintln!("{bin} failed ({status})");
            std::process::exit(status.code().unwrap_or(1));
        }
    }
    println!("\nall figures regenerated; CSVs under results/ — see EXPERIMENTS.md");
}
