//! `probe` — one simulated run with a full metric/work breakdown, for
//! calibration and diagnosis.
//!
//! ```text
//! probe <rate> <slaves> [--no-tuning] [--adaptive] [--quick|--smoke]
//! ```

use windjoin_bench::Scale;
use windjoin_cluster::{run_sim, NodeConfig};
use windjoin_sim::{CostModel, CpuWork};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rate = 1500.0;
    let mut slaves = 4usize;
    let mut scale = Scale::Full;
    let mut tuning = true;
    let mut adaptive = false;
    let mut pos = 0;
    for a in &args {
        match a.as_str() {
            "--no-tuning" => tuning = false,
            "--adaptive" => adaptive = true,
            "--quick" => scale = Scale::Quick,
            "--smoke" => scale = Scale::Smoke,
            v => {
                if pos == 0 {
                    rate = v.parse().expect("rate");
                } else {
                    slaves = v.parse().expect("slaves");
                }
                pos += 1;
            }
        }
    }
    let mut cfg = scale.apply(NodeConfig::paper_default(slaves));
    cfg.rate = rate;
    if !tuning {
        cfg.params.tuning = None;
    }
    cfg.adaptive_dod = adaptive;
    let t0 = std::time::Instant::now();
    let r = run_sim(&cfg);
    let w = &r.work;
    let cost = CostModel::paper_calibrated();
    let term = |label: &str, work: CpuWork| {
        println!("  {label:<16} {:>12.1} s", cost.cpu_us(&work) as f64 / 1e6);
    };
    println!("rate={rate} slaves={slaves} tuning={tuning} adaptive={adaptive} ({:?})", scale);
    println!("wall             {:>12.1} s", t0.elapsed().as_secs_f64());
    println!("tuples_in        {:>12}", r.tuples_in);
    println!("outputs          {:>12}", r.outputs_total);
    println!("avg delay        {:>12.2} s", r.avg_delay_s());
    println!("moves            {:>12}", r.moves);
    println!("final degree     {:>12}", r.final_degree);
    println!("max window       {:>12} blocks", r.max_window_blocks);
    println!("master peak buf  {:>12} KB", r.master_peak_buffer_bytes / 1024);
    let c = r.cpu();
    let m = r.comm();
    let i = r.idle();
    println!("cpu  min/avg/max {:>8.1} / {:>8.1} / {:>8.1} s", c.min_s, c.avg_s, c.max_s);
    println!("comm min/avg/max {:>8.1} / {:>8.1} / {:>8.1} s", m.min_s, m.avg_s, m.max_s);
    println!("idle min/avg/max {:>8.1} / {:>8.1} / {:>8.1} s", i.min_s, i.avg_s, i.max_s);
    println!("work breakdown (whole run, all slaves):");
    term("comparisons", CpuWork { comparisons: w.comparisons, ..Default::default() });
    term("emitted", CpuWork { emitted: w.emitted, ..Default::default() });
    term("inserts", CpuWork { inserts: w.inserts, ..Default::default() });
    term("hash_ops", CpuWork { hash_ops: w.hash_ops, ..Default::default() });
    term("blocks_touched", CpuWork { blocks_touched: w.blocks_touched, ..Default::default() });
    term("tuples_moved", CpuWork { tuples_moved: w.tuples_moved, ..Default::default() });
    println!(
        "  raw counts: cmp={} emit={} ins={} hash={} blk={} moved={}",
        w.comparisons, w.emitted, w.inserts, w.hash_ops, w.blocks_touched, w.tuples_moved
    );
}
