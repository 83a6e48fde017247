//! Runs the complete evaluation: every table and figure, in paper order.
use experiments::figures::*;
use experiments::Harness;

fn main() {
    let data = PaperData::collect(Harness::paper());
    let sections = [
        table1(),
        fig_workitems(&data, "Apertif", 2),
        fig_workitems(&data, "LOFAR", 3),
        fig_registers(&data, "Apertif", 4),
        fig_registers(&data, "LOFAR", 5),
        fig_performance(&data, "Apertif", 6),
        fig_performance(&data, "LOFAR", 7),
        fig_snr(&data, "Apertif", 8),
        fig_snr(&data, "LOFAR", 9),
        fig_histogram(&data),
        fig_zero_dm(&data, "Apertif", 11),
        fig_zero_dm(&data, "LOFAR", 12),
        fig_fixed_speedup(&data, "Apertif", 13),
        fig_fixed_speedup(&data, "LOFAR", 14),
        fig_cpu_speedup(&data, "Apertif", 15),
        fig_cpu_speedup(&data, "LOFAR", 16),
        sizing(&data),
        transfer_analysis(&data),
    ];
    for (i, s) in sections.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{s}");
    }
    // Persist the paper's "set of tuples" artifact next to the output.
    let db = data.tuning_database();
    let path = std::env::var("DEDISP_TUNED_DB")
        .unwrap_or_else(|_| "tuned_configurations.json".to_string());
    // A lost artifact must be loud (see `experiments::out`).
    std::fs::write(&path, db.to_json()).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    eprintln!("wrote {} tuned tuples to {path}", db.len());
}
