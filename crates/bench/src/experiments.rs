//! One function per paper figure/table, plus the ablation experiments.
//!
//! Every function sweeps the figure's x-axis, runs the simulated cluster
//! at the paper's methodology (§VI-A: Table I parameters, Poisson
//! arrivals at rate λ per stream, b-model keys, statistics over the
//! post-warm-up window) and returns tables whose columns mirror the
//! figure's series.

use crate::Scale;
use windjoin_baselines::{run_atr, run_ctr, AtrParams};
use windjoin_cluster::{run_sim, NodeConfig, RunReport};
use windjoin_core::subgroup::master_buffer_bound_bytes;
use windjoin_core::{Params, TuningParams};
use windjoin_gen::KeyDist;
use windjoin_metrics::Table;

/// All experiment names accepted by [`run_experiment`].
pub const EXPERIMENT_NAMES: &[&str] = &[
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "x1-baselines",
    "x2-subgroup",
    "x3-skew",
    "x4-theta",
    "x5-adaptive-epoch",
];

/// Dispatches an experiment by name.
pub fn run_experiment(name: &str, scale: Scale) -> Option<Vec<Table>> {
    let tables = match name {
        "table1" => table1(),
        "fig5" => fig5(scale),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(scale),
        "fig14" => fig14(scale),
        "x1-baselines" => x1_baselines(scale),
        "x2-subgroup" => x2_subgroup(scale),
        "x3-skew" => x3_skew(scale),
        "x4-theta" => x4_theta(scale),
        "x5-adaptive-epoch" => x5_adaptive_epoch(scale),
        _ => return None,
    };
    Some(tables)
}

/// Runs every experiment in order.
pub fn all_experiments(scale: Scale) -> Vec<Table> {
    let mut out = Vec::new();
    for name in EXPERIMENT_NAMES {
        out.extend(run_experiment(name, scale).expect("known name"));
    }
    out
}

fn base(slaves: usize, scale: Scale) -> NodeConfig {
    scale.apply(NodeConfig::paper_default(slaves))
}

fn run_at(cfg: &NodeConfig, rate: f64) -> RunReport {
    let cfg = NodeConfig { rate, ..cfg.clone() };
    eprintln!(
        "    [run] slaves={} rate={} tuning={} adaptive={}",
        cfg.slaves,
        rate,
        cfg.params.tuning.is_some(),
        cfg.adaptive_dod
    );
    run_sim(&cfg)
}

fn smoke_limited(rates: &[f64], scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Smoke => rates.iter().copied().take(2).collect(),
        _ => rates.to_vec(),
    }
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// Table I: the default parameter set. Asserted against the paper's
/// values by `config::tests::table1_defaults_match_paper`; printed here
/// for the record.
pub fn table1() -> Vec<Table> {
    let p = Params::default_paper();
    let mut t = Table::new(
        "Table I — default values used in experiments (paper-identical)",
        &[
            "W_i (min)",
            "lambda (t/s)",
            "b",
            "Th_con",
            "Th_sup",
            "theta (MB)",
            "block (KB)",
            "t_d (s)",
            "t_r (s)",
            "npart",
            "tuple (B)",
        ],
    );
    t.push_values(&[
        p.sem.w_left_us as f64 / 60e6,
        1500.0,
        0.7,
        p.th_con,
        p.th_sup,
        p.tuning.unwrap().theta_blocks as f64 * p.block_bytes as f64 / (1024.0 * 1024.0),
        p.block_bytes as f64 / 1024.0,
        p.dist_epoch_us as f64 / 1e6,
        p.reorg_epoch_us as f64 / 1e6,
        p.npart as f64,
        p.tuple_bytes as f64,
    ]);
    vec![t]
}

// ---------------------------------------------------------------------
// Figures 5 & 6 — average delay vs rate, per slave population
// ---------------------------------------------------------------------

fn delay_vs_rate(slaves: &[usize], rates: &[f64], scale: Scale, title: &str) -> Vec<Table> {
    let mut headers = vec!["rate".to_string()];
    headers.extend(slaves.iter().map(|s| format!("delay_s_{s}slaves")));
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &hdr_refs);
    for &rate in rates {
        let mut row = vec![Some(rate)];
        for &n in slaves {
            let report = run_at(&base(n, scale), rate);
            row.push(Some(report.avg_delay_s()));
        }
        t.push_row(row);
    }
    vec![t]
}

/// Fig. 5: average delay vs arrival rate, 1 and 2 slaves.
pub fn fig5(scale: Scale) -> Vec<Table> {
    let rates = smoke_limited(&[1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0], scale);
    delay_vs_rate(&[1, 2], &rates, scale, "Fig. 5 — average delay vs stream rate (1–2 slaves)")
}

/// Fig. 6: average delay vs arrival rate, 3–5 slaves.
pub fn fig6(scale: Scale) -> Vec<Table> {
    let rates =
        smoke_limited(&[1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0], scale);
    delay_vs_rate(&[3, 4, 5], &rates, scale, "Fig. 6 — average delay vs stream rate (3–5 slaves)")
}

// ---------------------------------------------------------------------
// Figures 7–10 — fine-tuning ablation (4 slaves)
// ---------------------------------------------------------------------

/// Fig. 7: average per-slave CPU time vs rate, with and without fine
/// tuning (4 slaves).
pub fn fig7(scale: Scale) -> Vec<Table> {
    let rates = smoke_limited(&[1500.0, 2500.0, 3500.0, 4500.0, 5500.0, 6000.0], scale);
    let mut t = Table::new(
        "Fig. 7 — avg CPU time (s) vs stream rate, 4 slaves",
        &["rate", "cpu_s_no_tuning", "cpu_s_fine_tuning"],
    );
    let tuned = base(4, scale);
    // No fine tuning (§IV-D): every partition-group stays one mini-group.
    let mut flat = tuned.clone();
    flat.params.tuning = None;
    for &rate in &rates {
        t.push_values(&[rate, run_at(&flat, rate).cpu().avg_s, run_at(&tuned, rate).cpu().avg_s]);
    }
    vec![t]
}

/// Fig. 8: average delay vs rate without fine tuning (4 slaves).
pub fn fig8(scale: Scale) -> Vec<Table> {
    let rates = smoke_limited(&[1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0], scale);
    let mut t = Table::new(
        "Fig. 8 — average delay vs stream rate, no fine tuning, 4 slaves",
        &["rate", "delay_s"],
    );
    let mut flat = base(4, scale);
    flat.params.tuning = None;
    for &rate in &rates {
        let report = run_at(&flat, rate);
        t.push_values(&[rate, report.avg_delay_s()]);
    }
    vec![t]
}

fn idle_comm_table(tuning: bool, rates: &[f64], scale: Scale, title: &str) -> Vec<Table> {
    let mut t = Table::new(title, &["rate", "idle_s", "comm_s"]);
    let mut cfg = base(4, scale);
    if !tuning {
        cfg.params.tuning = None;
    }
    for &rate in rates {
        let report = run_at(&cfg, rate);
        t.push_values(&[rate, report.idle().avg_s, report.comm().avg_s]);
    }
    vec![t]
}

/// Fig. 9: idle time and communication overhead vs rate, tuning OFF.
pub fn fig9(scale: Scale) -> Vec<Table> {
    let rates = smoke_limited(&[1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0], scale);
    idle_comm_table(
        false,
        &rates,
        scale,
        "Fig. 9 — idle & comm overhead vs rate (no fine tuning, 4 slaves)",
    )
}

/// Fig. 10: idle time and communication overhead vs rate, tuning ON.
pub fn fig10(scale: Scale) -> Vec<Table> {
    let rates = smoke_limited(&[1500.0, 2500.0, 3500.0, 4500.0, 5000.0, 5500.0, 6000.0], scale);
    idle_comm_table(
        true,
        &rates,
        scale,
        "Fig. 10 — idle & comm overhead vs rate (fine tuning, 4 slaves)",
    )
}

// ---------------------------------------------------------------------
// Figures 11 & 12 — communication overhead
// ---------------------------------------------------------------------

/// Fig. 11: communication overhead vs number of nodes at λ=1500 —
/// aggregate, per-node, and aggregate under adaptive declustering.
pub fn fig11(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 11 — communication overhead vs total nodes (λ=1500)",
        &["nodes", "aggregate_s", "per_node_s", "adaptive_aggregate_s"],
    );
    let counts: Vec<usize> = match scale {
        Scale::Smoke => vec![1, 2],
        _ => vec![1, 2, 3, 4, 5],
    };
    for &n in &counts {
        let fixed = run_at(&base(n, scale), 1500.0);
        let mut adaptive_cfg = base(n, scale);
        adaptive_cfg.adaptive_dod = true;
        let adaptive = run_at(&adaptive_cfg, 1500.0);
        t.push_values(&[
            n as f64,
            fixed.comm().total_s,
            fixed.comm().avg_s,
            adaptive.comm().total_s,
        ]);
    }
    vec![t]
}

/// Fig. 12: min/avg/max communication overhead across slaves vs rate
/// (4 slaves) — the divergence caused by serial distribution.
pub fn fig12(scale: Scale) -> Vec<Table> {
    let rates = smoke_limited(&[1500.0, 2500.0, 3500.0, 4500.0, 5000.0, 5500.0, 6000.0], scale);
    let mut t = Table::new(
        "Fig. 12 — comm overhead across slaves vs rate (4 slaves)",
        &["rate", "min_s", "avg_s", "max_s"],
    );
    for &rate in &rates {
        let report = run_at(&base(4, scale), rate);
        let c = report.comm();
        t.push_values(&[rate, c.min_s, c.avg_s, c.max_s]);
    }
    vec![t]
}

// ---------------------------------------------------------------------
// Figures 13 & 14 — distribution-epoch sweeps (3 slaves)
// ---------------------------------------------------------------------

fn epoch_sweep(scale: Scale) -> Vec<u64> {
    let eps_s: &[f64] = match scale {
        Scale::Smoke => &[1.0, 4.0],
        _ => &[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    };
    eps_s.iter().map(|s| (s * 1e6) as u64).collect()
}

/// Fig. 13: average delay vs distribution epoch (3 slaves, λ=1500).
pub fn fig13(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 13 — average delay vs distribution epoch (3 slaves)",
        &["dist_epoch_s", "delay_s"],
    );
    for td in epoch_sweep(scale) {
        let mut cfg = base(3, scale);
        cfg.params = cfg.params.with_dist_epoch_us(td);
        let report = run_at(&cfg, 1500.0);
        t.push_values(&[td as f64 / 1e6, report.avg_delay_s()]);
    }
    vec![t]
}

/// Fig. 14: communication overhead vs distribution epoch (3 slaves).
pub fn fig14(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 14 — communication overhead vs distribution epoch (3 slaves)",
        &["dist_epoch_s", "comm_s"],
    );
    for td in epoch_sweep(scale) {
        let mut cfg = base(3, scale);
        cfg.params = cfg.params.with_dist_epoch_us(td);
        let report = run_at(&cfg, 1500.0);
        t.push_values(&[td as f64 / 1e6, report.comm().avg_s]);
    }
    vec![t]
}

// ---------------------------------------------------------------------
// Ablations beyond the paper
// ---------------------------------------------------------------------

/// X1: windjoin vs ATR vs CTR (4 nodes): delay and network bytes vs
/// rate. Quantifies §VII's critique of the Gu et al. routings.
pub fn x1_baselines(scale: Scale) -> Vec<Table> {
    let rates = smoke_limited(&[1000.0, 1500.0, 2000.0, 2500.0, 3000.0], scale);
    let mut t = Table::new(
        "X1 — windjoin vs ATR vs CTR (4 nodes)",
        &[
            "rate",
            "windjoin_delay_s",
            "atr_delay_s",
            "ctr_delay_s",
            "windjoin_net_mb",
            "atr_net_mb",
            "ctr_net_mb",
        ],
    );
    for &rate in &rates {
        let cfg = NodeConfig { rate, ..base(4, scale) };
        let ours = run_sim(&cfg);
        let atr = run_atr(&cfg, AtrParams::for_config(&cfg));
        let ctr = run_ctr(&cfg);
        // windjoin ships each tuple once (plus reorg state moves, which
        // are negligible at steady state): unicast bytes.
        let ours_net = ours.tuples_in * cfg.params.tuple_bytes as u64;
        t.push_values(&[
            rate,
            ours.avg_delay_s(),
            atr.avg_delay_s(),
            ctr.avg_delay_s(),
            ours_net as f64 / 1e6,
            atr.network_bytes as f64 / 1e6,
            ctr.network_bytes as f64 / 1e6,
        ]);
    }
    vec![t]
}

/// X2: sub-group communication — measured master peak buffer vs the
/// §V-B bound `M_buf = (r·t_d/2)(1+1/n_g)` (per stream; two streams
/// buffered).
pub fn x2_subgroup(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "X2 — master peak buffer vs number of sub-groups (λ=1500, 4 slaves)",
        &["ng", "measured_peak_kb", "bound_kb"],
    );
    let ngs: &[u32] = match scale {
        Scale::Smoke => &[1, 2],
        _ => &[1, 2, 4],
    };
    for &ng in ngs {
        let mut cfg = base(4, scale);
        cfg.params.ng = ng;
        let report = run_at(&cfg, 1500.0);
        // Two streams: the bound applies per stream.
        let bound = 2.0
            * master_buffer_bound_bytes(
                1500.0,
                cfg.params.dist_epoch_us,
                ng,
                cfg.params.tuple_bytes,
            );
        t.push_values(&[
            ng as f64,
            report.master_peak_buffer_bytes as f64 / 1024.0,
            bound / 1024.0,
        ]);
    }
    vec![t]
}

/// X3: skew sensitivity — delay and CPU vs the b-model bias (4 slaves,
/// λ=2000). The sweep stops at b = 0.8: the output volume itself grows
/// as `(b² + (1-b)²)^log2(domain) × |W|²` and by 0.9 the *result
/// stream* (not the join) is the bottleneck — ~200 M matches/s, beyond
/// anything the paper's testbed could emit.
pub fn x3_skew(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "X3 — sensitivity to join-attribute skew (4 slaves, λ=2000)",
        &["bias_b", "delay_s", "cpu_s", "outputs"],
    );
    let biases: &[f64] = match scale {
        Scale::Smoke => &[0.5, 0.7],
        _ => &[0.5, 0.6, 0.7, 0.75, 0.8],
    };
    for &b in biases {
        let mut cfg = NodeConfig { rate: 2000.0, ..base(4, scale) };
        cfg.keys = KeyDist::BModel { bias: b.max(0.5), domain: 10_000_000 };
        let report = run_sim(&cfg);
        t.push_values(&[b, report.avg_delay_s(), report.cpu().avg_s, report.outputs as f64]);
    }
    vec![t]
}

/// X4: θ sweep — CPU cost vs the partition-tuning parameter (4 slaves,
/// λ=4000). Small θ over-splits (hash/move overhead); large θ
/// under-splits (scan cost) — the paper's [θ, 2θ] rule sits between.
pub fn x4_theta(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "X4 — CPU time vs tuning parameter θ (4 slaves, λ=4000)",
        &["theta_mb", "cpu_s", "delay_s"],
    );
    let thetas_mb: &[f64] = match scale {
        Scale::Smoke => &[1.5],
        _ => &[0.1875, 0.375, 0.75, 1.5, 3.0, 6.0],
    };
    for &mb in thetas_mb {
        let mut cfg = NodeConfig { rate: 4000.0, ..base(4, scale) };
        let blocks = ((mb * 1024.0 * 1024.0) / cfg.params.block_bytes as f64).max(1.0) as usize;
        cfg.params.tuning = Some(TuningParams { theta_blocks: blocks, max_depth: 12 });
        let report = run_sim(&cfg);
        t.push_values(&[mb, report.cpu().avg_s, report.avg_delay_s()]);
    }
    vec![t]
}

/// X5: dynamic distribution-epoch tuning (the paper's §VIII future
/// work) vs the fixed epochs of Figs. 13–14: the controller should land
/// near the delay of the best small epoch while paying communication
/// close to the large-epoch floor (3 slaves, λ=1500).
pub fn x5_adaptive_epoch(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "X5 — fixed epochs vs adaptive epoch tuning (3 slaves, λ=1500)",
        &["config", "delay_s", "comm_s", "settled_epoch_s"],
    );
    let fixed: &[f64] = match scale {
        Scale::Smoke => &[2.0],
        _ => &[0.5, 2.0, 7.0],
    };
    for (i, &td_s) in fixed.iter().enumerate() {
        let mut cfg = base(3, scale);
        cfg.params = cfg.params.with_dist_epoch_us((td_s * 1e6) as u64);
        let report = run_at(&cfg, 1500.0);
        t.push_values(&[i as f64, report.avg_delay_s(), report.comm().avg_s, td_s]);
    }
    let mut cfg = base(3, scale);
    cfg.adaptive_epoch = Some(windjoin_core::EpochTuning::default());
    let report = run_at(&cfg, 1500.0);
    let settled = report
        .epoch_trace
        .iter_means()
        .last()
        .map(|(_, v)| v)
        .unwrap_or(cfg.params.dist_epoch_us as f64 / 1e6);
    t.push_values(&[fixed.len() as f64, report.avg_delay_s(), report.comm().avg_s, settled]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prints_paper_values() {
        let t = &table1()[0];
        assert_eq!(t.cell(0, 0), Some(10.0), "10-minute windows");
        assert_eq!(t.cell(0, 3), Some(0.01));
        assert_eq!(t.cell(0, 4), Some(0.5));
        assert_eq!(t.cell(0, 9), Some(60.0));
    }

    #[test]
    fn every_name_dispatches() {
        for name in EXPERIMENT_NAMES {
            // Smoke scale: just verify wiring, not numbers.
            if *name == "table1" {
                assert!(run_experiment(name, Scale::Smoke).is_some());
            }
        }
        assert!(run_experiment("nope", Scale::Smoke).is_none());
    }

    #[test]
    fn smoke_fig5_has_rows() {
        let t = &fig5(Scale::Smoke)[0];
        assert_eq!(t.row_count(), 2);
        assert!(t.cell(0, 1).is_some());
    }
}
