//! Criterion benchmark for Table Ic (QASMBench-style circuits): stochastic
//! noisy simulation cost per batch of runs for a selection of the suite.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsdd_circuit::generators::qasmbench_suite;
use qsdd_core::{BackendKind, StochasticSimulator};

const SHOTS: usize = 5;

/// Paper noise, trajectory sharing on: the simulator's defaults.
fn simulator(backend: BackendKind) -> StochasticSimulator {
    StochasticSimulator::new()
        .with_backend(backend)
        .with_shots(SHOTS)
        .with_threads(1)
        .with_seed(1)
}

fn bench_qasmbench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1c_qasmbench");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // A fast-to-measure selection of the suite: one structured circuit that
    // favours decision diagrams (bv), one arithmetic circuit (multiplier) and
    // one gate-dense circuit that favours the dense baseline (vqe ansatz).
    let selected = ["bv_19", "multiplier_15", "vqe_uccsd_6", "seca_11"];
    for entry in qasmbench_suite() {
        if !selected.contains(&entry.name) {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::new("proposed_dd", entry.name),
            &entry.circuit,
            |b, circuit| {
                let simulator = simulator(BackendKind::DecisionDiagram);
                b.iter(|| simulator.run(circuit));
            },
        );
        if entry.num_qubits <= 12 {
            group.bench_with_input(
                BenchmarkId::new("dense_baseline", entry.name),
                &entry.circuit,
                |b, circuit| {
                    let simulator = simulator(BackendKind::Statevector);
                    b.iter(|| simulator.run(circuit));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_qasmbench);
criterion_main!(benches);
