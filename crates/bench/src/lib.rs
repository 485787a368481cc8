//! # fortika-bench — the paper's evaluation as benchmark harnesses
//!
//! Each figure of the paper's evaluation (§5) has its own
//! `harness = false` bench target under `benches/`, reproducing one
//! plot over the simulated testbed:
//!
//! * `fig8_latency_vs_load` / `fig9_latency_vs_size` — early latency
//!   against offered load and message size;
//! * `fig10_throughput_vs_load` / `fig11_throughput_vs_size` — the
//!   throughput counterparts;
//! * `analysis_messages` / `analysis_data` — the §5.2 analytical
//!   message/byte counts cross-checked against simulation counters;
//! * `ablation_optimizations` / `ablation_flow_control` — the
//!   monolithic optimizations O1–O3 toggled one by one, and the flow
//!   window swept;
//! * `micro` — micro-benchmarks of the simulation substrate itself.
//!
//! The `probe` binary complements them: it prints calibration tables
//! and writes the six machine-readable `BENCH_*.json` trajectory files
//! (formats in the top-level README, knobs in `docs/COST_MODEL.md`),
//! then re-reads and verifies each through [`json`].
//!
//! This crate holds the code they share: sweep helpers, gnuplot-style
//! table printing, the dependency-free [`json`] validator, and the
//! `FORTIKA_FULL` switch between the quick default sweep and the full
//! paper-resolution sweep.
//!
//! # Example
//!
//! ```no_run
//! use fortika_bench::{figure_series, run_point};
//!
//! // One operating point of Fig. 8: n = 3, 1 000 msgs/s, 16 KiB.
//! for (kind, n, label) in figure_series() {
//!     let summary = run_point(kind, n, 1000.0, 16 * 1024, 2.0);
//!     println!("{label}: {:.2} ms", summary.early_latency_ms.mean);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use fortika_core::workload::Workload;
use fortika_core::{Experiment, StackKind, Summary};

/// True when the full (paper-resolution) sweep was requested via the
/// `FORTIKA_FULL=1` environment variable.
pub fn full_sweep() -> bool {
    std::env::var("FORTIKA_FULL").is_ok_and(|v| v == "1")
}

/// Seeds used for replicated runs (fewer in quick mode).
pub fn seeds() -> Vec<u64> {
    if full_sweep() {
        vec![11, 22, 33, 44, 55]
    } else {
        vec![11, 22, 33]
    }
}

/// Runs one operating point of the paper's evaluation.
pub fn run_point(
    kind: StackKind,
    n: usize,
    offered_load: f64,
    msg_size: usize,
    measure_secs: f64,
) -> Summary {
    let mut exp = Experiment::builder(kind, n)
        .workload(Workload::constant_rate(offered_load, msg_size))
        .warmup_secs(1.0)
        .measure_secs(measure_secs)
        .build();
    exp.run_replicated(&seeds())
}

/// Prints a gnuplot-style table header.
pub fn print_header(title: &str, xlabel: &str, columns: &[String]) {
    println!();
    println!("# {title}");
    print!("# {xlabel:>12}");
    for c in columns {
        print!(" {c:>26}");
    }
    println!();
}

/// Prints one row: x value plus `mean ± ci` per series.
pub fn print_row(x: f64, cells: &[(f64, f64)]) {
    print!("  {x:>12.0}");
    for (mean, ci) in cells {
        print!(" {:>17.3} ±{:>7.3}", mean, ci);
    }
    println!();
}

/// The four stack/size series every figure plots.
pub fn figure_series() -> Vec<(StackKind, usize, String)> {
    vec![
        (StackKind::Monolithic, 3, "n=3 monolithic".to_string()),
        (StackKind::Modular, 3, "n=3 modular".to_string()),
        (StackKind::Monolithic, 7, "n=7 monolithic".to_string()),
        (StackKind::Modular, 7, "n=7 modular".to_string()),
    ]
}
