//! HEP columnar analysis (the paper's §VI-C1 scenario) in the cluster
//! simulator: 200 per-chunk analysis tasks on 8 workers, run under each of
//! the four resource-management strategies of Figure 6.
//!
//! Run with: `cargo run -p lfm-examples --bin hep_analysis`

use lfm_core::prelude::*;
use lfm_core::workloads::hep;

fn main() {
    println!("== simulated ND-CRC run: 200 analysis tasks, 8 workers x 8 cores ==");
    let workload = hep::build(200, 99);
    for strategy in [
        workload.oracle_strategy(),
        Strategy::Auto(AutoConfig::default()),
        workload.guess_strategy(),
        Strategy::Unmanaged,
    ] {
        let name = strategy.name();
        let cfg = hep::master_config(strategy, 99);
        let report = run_workload(&cfg, workload.tasks.clone(), 8, hep::worker_spec(8));
        println!(
            "{name:<10} makespan {:>9}  retries {:>5.1}%  core-eff {:>5.1}%",
            fmt_secs(report.makespan_secs),
            report.retry_fraction() * 100.0,
            report.core_efficiency() * 100.0
        );
    }
}
