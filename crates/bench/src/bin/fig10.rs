//! Regenerates Fig. 10: scheduler running time at scale.
#![forbid(unsafe_code)]

use chronus_bench::fig10::{run, PAPER_SIZES};
use chronus_bench::util::{text_table, CsvSink, RunOptions};

fn main() {
    let mut opts = RunOptions::from_args(std::env::args().skip(1));
    // Fig. 10 needs one instance per size; runs defaults to 3 which is
    // plenty here.
    opts.runs = opts.runs.min(3);
    let small = std::env::args().any(|a| a == "--small");
    let sizes: &[usize] = if small {
        &[200, 400, 600, 800]
    } else {
        &PAPER_SIZES
    };
    let points = run(&opts, sizes);
    let mut sink = CsvSink::new(
        "fig10",
        &[
            "switches",
            "chronus_ms",
            "or_ms",
            "or_completed",
            "opt_ms",
            "opt_completed",
        ],
    );
    let fmt = |t: &chronus_bench::fig10::Timing| {
        if t.completed {
            format!("{:.1}", t.ms)
        } else {
            format!("{:.1} (>budget)", t.ms)
        }
    };
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            sink.row(&[
                p.switches.to_string(),
                format!("{:.2}", p.chronus.ms),
                format!("{:.2}", p.or.ms),
                p.or.completed.to_string(),
                format!("{:.2}", p.opt.ms),
                p.opt.completed.to_string(),
            ]);
            vec![
                p.switches.to_string(),
                format!("{:.2}", p.chronus.ms),
                fmt(&p.or),
                fmt(&p.opt),
            ]
        })
        .collect();
    println!("Fig. 10 — running time (ms; '>budget' = did not complete, paper's 600 s wall)");
    println!(
        "{}",
        text_table(&["switches", "Chronus", "OR", "OPT"], &rows)
    );
    println!("Chronus exact-gate counters (summed over runs):");
    for p in &points {
        let g = &p.chronus_gate;
        let saved = g.full_equivalent_cells.saturating_sub(g.cells_touched);
        println!(
            "  n={:<5} {} gate checks, \
             {} applies, {} undos, {} cells touched vs {} full-sim equivalent ({} saved)",
            p.switches,
            g.checks,
            g.ledger_applies,
            g.ledger_undos,
            g.cells_touched,
            g.full_equivalent_cells,
            saved
        );
    }
    let path = sink.finish();
    println!("(csv: {})", path.display());
}
