//! The DD micro-layer: the workload's gate list replayed on the
//! benchmark's own `DdPackage`.
//!
//! Each round replays the circuit once noiselessly and once as a live
//! trajectory — a Pauli error injected mid-circuit, then both amplitude-
//! damping Kraus branches applied to every touched qubit after every gate,
//! which is what the simulator does once a shot has left the precomputed
//! no-error path — with `reset_transient` between passes. Times are per
//! call; the counts come from the first round and repeat exactly.

use std::time::Instant;

use qsdd_circuit::{Circuit, Gate, Operation};
use qsdd_dd::{Complex, DdPackage, MatEdge, Matrix2, VecEdge};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::stats;
use crate::trace::Recorder;
use crate::workloads;

/// Rounds stop after this much time (at least [`MIN_ROUNDS`] always run).
const PROBE_SECONDS: f64 = 1.5;
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 400;
/// Draws per sampling-plan timing.
const DRAWS: usize = 20_000;
/// Lookups per complex-table timing.
const LOOKUPS: usize = 20_000;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    H,
    Cx,
    Cphase,
    Other,
}

enum Step {
    Apply {
        op: MatEdge,
        kind: Kind,
        qubits: Vec<usize>,
    },
    Measure(usize),
}

/// Per-call nanoseconds collected over one pass.
#[derive(Default)]
struct PassTimes {
    h: Vec<f64>,
    cx: Vec<f64>,
    cphase: Vec<f64>,
    kraus: Vec<f64>,
    measure: Vec<f64>,
}

impl PassTimes {
    fn gate(&mut self, kind: Kind) -> Option<&mut Vec<f64>> {
        match kind {
            Kind::H => Some(&mut self.h),
            Kind::Cx => Some(&mut self.cx),
            Kind::Cphase => Some(&mut self.cphase),
            Kind::Other => None,
        }
    }
}

fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = work();
    (value, started.elapsed().as_nanos() as f64)
}

/// Builds the operator diagram of every step in the package's persistent
/// region, like the simulator's compile phase does.
fn compile(dd: &mut DdPackage, circuit: &Circuit) -> Vec<Step> {
    let n = circuit.num_qubits();
    let mut steps = Vec::new();
    for op in circuit {
        match op {
            Operation::Gate {
                gate,
                target,
                controls,
            } => {
                let matrix = gate.matrix().expect("non-swap gates provide a matrix");
                let diagram = if controls.is_empty() {
                    dd.single_qubit_op(n, *target, matrix)
                } else {
                    dd.controlled_op(n, *target, controls, matrix)
                };
                let kind = match (gate, controls.len()) {
                    (Gate::H, 0) => Kind::H,
                    (Gate::X, 1) => Kind::Cx,
                    (Gate::Phase(_), 1) => Kind::Cphase,
                    _ => Kind::Other,
                };
                steps.push(Step::Apply {
                    op: diagram,
                    kind,
                    qubits: op.qubits(),
                });
            }
            Operation::Swap { a, b } => steps.push(Step::Apply {
                op: dd.swap_op(n, *a, *b),
                kind: Kind::Other,
                qubits: vec![*a, *b],
            }),
            Operation::Measure { qubit, .. } => steps.push(Step::Measure(*qubit)),
            Operation::Reset { .. } | Operation::Barrier => {}
        }
    }
    steps
}

/// One pass over the steps. With `live` set, a Pauli-X lands on the middle
/// qubit halfway through and every later gate is followed by the damping
/// exposure of the qubits it touched.
fn pass(
    dd: &mut DdPackage,
    steps: &[Step],
    n: usize,
    live: Option<(MatEdge, &[[MatEdge; 2]])>,
    rng: &mut StdRng,
    times: &mut PassTimes,
) -> VecEdge {
    let mut state = dd.zero_state(n);
    for (index, step) in steps.iter().enumerate() {
        match step {
            Step::Apply { op, kind, qubits } => {
                let (next, ns) = timed(|| dd.mat_vec_mul(*op, state));
                state = next;
                if let Some(bucket) = times.gate(*kind) {
                    bucket.push(ns);
                }
                let Some((error, kraus)) = live else { continue };
                if index == steps.len() / 2 {
                    state = dd.mat_vec_mul(error, state);
                }
                if index >= steps.len() / 2 {
                    for &qubit in qubits {
                        let [decay, keep] = kraus[qubit];
                        let (_, decay_ns) = timed(|| dd.apply_kraus(decay, state));
                        let ((_, kept), keep_ns) = timed(|| dd.apply_kraus(keep, state));
                        state = kept;
                        times.kraus.extend([decay_ns, keep_ns]);
                    }
                }
            }
            Step::Measure(qubit) => {
                let ((_, collapsed), ns) = timed(|| dd.measure_qubit(state, *qubit, rng));
                state = collapsed;
                times.measure.push(ns);
            }
        }
    }
    state
}

fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Runs the micro-layer on `circuit` and records the `dd.*` metrics.
pub fn run(circuit: &Circuit, recorder: &mut Recorder, report: &mut Report) {
    let n = circuit.num_qubits();
    let probe = recorder.open("dd", "micro_layer");
    let mut dd = DdPackage::new();
    let steps = compile(&mut dd, circuit);
    let damping = workloads::noise()
        .channels()
        .into_iter()
        .find_map(|channel| channel.kraus_branches())
        .expect("the paper noise model has an amplitude-damping channel");
    let kraus: Vec<[MatEdge; 2]> = (0..n)
        .map(|qubit| damping.map(|branch| dd.single_qubit_op(n, qubit, branch)))
        .collect();
    let error = dd.single_qubit_op(n, n / 2, Matrix2::pauli_x());
    dd.mark_persistent();

    let gates = steps
        .iter()
        .filter(|step| matches!(step, Step::Apply { .. }))
        .count();
    let mut rng = StdRng::seed_from_u64(2021);
    let mut per_round: Vec<PassTimes> = Vec::new();
    let mut resets = Vec::new();
    let mut adds = Vec::new();
    let mut plans = Vec::new();
    let mut draws = Vec::new();
    let mut clones = Vec::new();
    let mut measures = Vec::new();
    let mut checkpoint = DdPackage::new();
    let started = Instant::now();
    while per_round.len() < MIN_ROUNDS
        || (per_round.len() < MAX_ROUNDS && started.elapsed().as_secs_f64() < PROBE_SECONDS)
    {
        let first = per_round.is_empty();
        let tables_before = dd.table_stats();
        let nodes_before = dd.stats().vec_nodes;
        let mut times = PassTimes::default();

        pass(&mut dd, &steps, n, None, &mut rng, &mut times);
        let (_, reset_ns) = timed(|| dd.reset_transient());
        resets.push(reset_ns);

        let noisy = pass(
            &mut dd,
            &steps,
            n,
            Some((error, &kraus)),
            &mut rng,
            &mut times,
        );
        if first {
            let tables = dd.table_stats().since(&tables_before);
            let lookups = (tables.compute_hits + tables.compute_misses).max(1);
            let unique = (tables.vec_unique_hits + tables.vec_unique_misses).max(1);
            report.set(
                "dd.compute_hit_rate",
                tables.compute_hits as f64 / lookups as f64,
                1,
            );
            report.set(
                "dd.unique_hit_rate",
                tables.vec_unique_hits as f64 / unique as f64,
                1,
            );
            report.set(
                "dd.nodes_created_per_gate",
                (dd.stats().vec_nodes - nodes_before) as f64 / gates as f64,
                gates,
            );
            report.set("dd.complex_values", dd.stats().complex_values as f64, 1);
        }

        // The remaining primitives, on the live trajectory's final state.
        let again = pass(
            &mut dd,
            &steps,
            n,
            None,
            &mut rng,
            &mut PassTimes::default(),
        );
        adds.push(timed(|| dd.vec_add(noisy, again)).1);
        let (plan, plan_ns) = timed(|| dd.sample_plan(noisy, n));
        plans.push(plan_ns / 1e3);
        let (_, draw_ns) = timed(|| (0..DRAWS).fold(0u64, |acc, _| acc ^ plan.sample(&mut rng)));
        draws.push(draw_ns / DRAWS as f64);
        let (_, measure_ns) = timed(|| dd.measure_qubit(noisy, n / 2, &mut rng));
        measures.push(measure_ns / 1e3);
        clones.push(timed(|| checkpoint.clone_from(&dd)).1 / 1e3);
        let (_, reset_ns) = timed(|| dd.reset_transient());
        resets.push(reset_ns);
        per_round.push(times);
    }

    // Interning cost: a fixed mix of values already in the table and new
    // ones, then rewound.
    let (_, lookup_ns) = timed(|| {
        for i in 0..LOOKUPS {
            let angle = (i % 997) as f64 * 0.006_283;
            dd.lookup_complex(Complex::new(angle.cos(), angle.sin()));
        }
    });
    dd.reset_transient();
    recorder.close(probe);

    let rounds = per_round.len();
    let per_call = |pick: fn(&PassTimes) -> &Vec<f64>| -> Option<(f64, usize)> {
        let means: Vec<f64> = per_round.iter().filter_map(|t| mean(pick(t))).collect();
        let calls: usize = per_round.iter().map(|t| pick(t).len()).sum();
        (!means.is_empty()).then(|| (stats::median(&means), calls))
    };
    for (name, pick) in [
        (
            "dd.mat_vec_ns_per_call.h",
            (|t| &t.h) as fn(&PassTimes) -> &Vec<f64>,
        ),
        ("dd.mat_vec_ns_per_call.cx", |t| &t.cx),
        ("dd.mat_vec_ns_per_call.cphase", |t| &t.cphase),
        ("dd.mat_vec_ns_per_call.kraus", |t| &t.kraus),
    ] {
        if let Some((value, calls)) = per_call(pick) {
            report.set(name, value, calls);
        }
    }
    // Circuits with `measure` time it inside the pass; the others once per
    // round on the middle qubit of the final state.
    match per_call(|t| &t.measure) {
        Some((value, calls)) => report.set("dd.measure_qubit_us", value / 1e3, calls),
        None => report.set("dd.measure_qubit_us", stats::median(&measures), rounds),
    }
    report.set("dd.vec_add_ns_per_call", stats::median(&adds), rounds);
    report.set(
        "dd.reset_transient_ns",
        stats::median(&resets),
        resets.len(),
    );
    report.set("dd.sample_plan_us", stats::median(&plans), rounds);
    report.set(
        "dd.sample_ns_per_draw",
        stats::median(&draws),
        rounds * DRAWS,
    );
    report.set("dd.clone_from_us", stats::median(&clones), rounds);
    report.set("dd.complex_lookup_ns", lookup_ns / LOOKUPS as f64, LOOKUPS);
}
