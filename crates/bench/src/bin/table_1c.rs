//! Regenerates Table Ic of the paper: stochastic noisy simulation of the
//! QASMBench-style circuits.
//!
//! The circuits are the structural stand-ins generated by
//! `qsdd_circuit::generators::qasmbench_suite()` (see `DESIGN.md` for the
//! substitution rationale). Real QASMBench OpenQASM files can be benchmarked
//! with the `qasm_file` example instead.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p qsdd-bench --bin table_1c
//! QSDD_SHOTS=500 QSDD_BUDGET_SECS=120 cargo run --release -p qsdd-bench --bin table_1c
//! ```

use qsdd_bench::{print_header, print_row, HarnessConfig};
use qsdd_circuit::generators::qasmbench_suite;

fn main() {
    let config = HarnessConfig::from_env();
    println!(
        "Table Ic — QASMBench-style circuits, {} shots per cell, budget {:?} per cell\n",
        config.shots, config.budget
    );
    print_header("benchmark (n)");
    for entry in qasmbench_suite() {
        let label = format!("{} ({})", entry.name, entry.num_qubits);
        print_row(&label, &entry.circuit, &config);
    }
    println!(
        "\nNote: like in the paper, circuits whose states stay structured (bv, adder,\n\
         multiplier, seca) favour the decision-diagram simulator, while circuits with\n\
         unstructured states (vqe_uccsd, ising, basis_trotter, sat) favour the dense\n\
         baseline. The `auto` column applies that as a rule: a job of n <= 16 qubits\n\
         runs on amplitudes once a state of its no-error walk reaches 2^(n-3) nodes\n\
         (1/8 of the state vector), and on decision diagrams otherwise."
    );
}
