//! Design-choice ablations (DC heuristic, ADCD-E vs X, hybrid Periodic
//! fallback).

fn main() {
    let scale = automon_bench::Scale::from_env();
    for table in automon_bench::experiments::ablation_design::run(scale) {
        automon_bench::emit(&table);
    }
}
