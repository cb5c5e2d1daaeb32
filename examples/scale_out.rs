//! Adaptive degree-of-declustering demo (§V-A): the arrival rate steps
//! up and back down; the master grows the active slave set while
//! suppliers outnumber consumers and shrinks it when every node idles.
//! Same `JoinJob` surface as every other example — only the runtime
//! (`Sim`) and the rate schedule differ.
//!
//! ```text
//! cargo run --release --example scale_out
//! ```

use std::time::Duration;
use windjoin::api::{JoinJob, Runtime};
use windjoin::core::Params;
use windjoin::gen::{KeyDist, RateSchedule};

fn main() {
    let job = JoinJob::builder()
        .runtime(Runtime::Sim)
        .params(Params::default_paper()) // Table I, then scaled down below
        .slaves(1) // initially active
        .total_slaves(6) // provisioned pool the master may draw from
        .adaptive_dod(true)
        .keys(KeyDist::Uniform { domain: 100_000 })
        // Load profile: quiet → burst → quiet.
        .rate_schedule(RateSchedule::steps(vec![
            (0, 500.0),
            (40_000_000, 8_000.0),
            (120_000_000, 500.0),
        ]))
        .window(Duration::from_secs(20))
        .reorg_epoch(Duration::from_secs(5))
        .seed(0xC1_05_7E_12) // NodeConfig::paper_default's seed
        .run(Duration::from_secs(180))
        .warmup(Duration::from_secs(10))
        .build()
        .expect("valid job");

    println!("rate profile: 500 t/s -> 8000 t/s (t=40s) -> 500 t/s (t=120s)");
    println!("provisioned slaves: 6, initially active: 1, adaptive declustering ON\n");
    let report = job.run().expect("simulated run");

    println!("degree of declustering over time (sampled each reorg epoch):");
    for (t_us, degree) in report.dod_trace.iter_means() {
        let bar = "#".repeat(degree as usize);
        println!("  t={:>5.0}s  degree={:<2} {}", t_us as f64 / 1e6, degree, bar);
    }
    println!();
    println!("final degree        : {}", report.final_degree);
    println!("partition moves     : {}", report.moves);
    println!("outputs             : {}", report.outputs_total);
    println!("avg delay           : {:.2} s", report.avg_delay_s());

    let peak = report.dod_trace.peak().expect("dod trace recorded");
    assert!(peak > 1.0, "the burst should trigger scale-out");
    println!("\nok: the cluster scaled out for the burst and back in afterwards.");
}
