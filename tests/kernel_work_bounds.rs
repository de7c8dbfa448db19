//! Count-based regression guard for the decision-diagram kernel.
//!
//! The paper's claim (Table Ib) is that noisy QFT trajectories stay cheap
//! because the diagrams stay small, so the kernel's *work* per gate must
//! track the diagram size too, not the number of weighted operand pairs a
//! recursion can meet. This suite replays a live QFT-16 trajectory on a bare
//! [`DdPackage`] — gate, mid-circuit Pauli-X, then per touched qubit the
//! damping exposure one at a time, as the back-end takes the exposures it
//! does not fold into a kept operator (threshold read off the state, then
//! the one selected branch) — and bounds the deterministic integers the
//! package keeps. A second bound holds the
//! deduplicating driver to sharing trajectories past the first deviation:
//! evolutions and compute misses of a GHZ-32 job against the same job with
//! every deviating shot run alone — and, on the statevector back-end, the
//! evolutions of a GHZ-14 job under the paper's (damping) noise. It also
//! holds the weighted driver to fewer trajectories than dedup evolves. A
//! third holds whole benchmark-workload jobs (GHZ-64, QFT-16, measured
//! BV-12, and the dense QAOA-8) to what the frozen table layer and the
//! kept operators leave to do: an evolution recomputes what its errors
//! changed, not what compile already evaluated, builds each step's state
//! once, interns only the weights its nodes keep, and walks a state for
//! a decay threshold or a node count only when a draw or the reported peak
//! needs it; its trace holds spans per trajectory group, not per shot.
//! There is
//! no wall clock here: the property gated is the operation count, which
//! cannot flake.

mod common;

use std::collections::HashMap;

use common::operation_diagram;
use qsdd::circuit::generators::{bernstein_vazirani, by_name, ghz, qft};
use qsdd::circuit::Circuit;
use qsdd::core::{
    execute, BackendKind, DedupStats, ExecMode, ExecPlan, OptLevel, Placement, ShotEngine,
    WeightedOptions,
};
use qsdd::dd::{DdPackage, MatEdge, Matrix2};
use qsdd::noise::NoiseModel;
use qsdd::telemetry::trace::{self, AttrValue, Tracer};

const N: usize = 16;
/// The step after which the bit flip lands: qubit 0's block (H and its 15
/// controlled phases) is done, every other qubit is still to be rotated.
const FLIP_AFTER: usize = N;
/// The paper's amplitude-damping probability.
const GAMMA: f64 = 0.002;

/// What one replayed trajectory cost, in the package's own integers.
#[derive(Debug)]
struct Work {
    multiplies: u64,
    decays: usize,
    compute_misses: u64,
    complex_values: u64,
    vec_nodes: u64,
    peak_nodes: usize,
}

/// Replays QFT-16 live from `|0...0>`: every gate, a Pauli-X after step
/// [`FLIP_AFTER`], and per touched qubit the damping exposure one at a
/// time, as the back-end's walk takes the exposures of a step it does not
/// fold (three or more qubits, `γ = 1`, the rest of a deviated step) — the
/// decay threshold comes off the diagram without building a branch, then
/// only the selected branch is applied.
/// With `decay_every = Some(k)`, every `k`-th exposure that can decay does.
fn replay(decay_every: Option<usize>) -> Work {
    let circuit = qft(N);
    let mut dd = DdPackage::new();
    let steps: Vec<(MatEdge, Vec<usize>)> = circuit
        .iter()
        .map(|op| (operation_diagram(&mut dd, N, op), op.qubits()))
        .collect();
    let kraus: Vec<[MatEdge; 2]> = (0..N)
        .map(|qubit| {
            [
                Matrix2::amplitude_damping_a0(GAMMA),
                Matrix2::amplitude_damping_a1(GAMMA),
            ]
            .map(|branch| dd.single_qubit_op(N, qubit, branch))
        })
        .collect();
    // The bit flip lands on the last qubit while it is still in |0>: from
    // then on it rotates every qubit it controls by a different angle, which
    // leaves a product state whose every level carries its own phase — the
    // input the closing swaps used to be exponential on.
    let error = dd.single_qubit_op(N, N - 1, Matrix2::pauli_x());
    dd.mark_persistent();
    let tables = dd.table_stats();
    let persistent = dd.stats();

    let mut state = dd.zero_state(N);
    let (mut multiplies, mut decays, mut excited, mut peak_nodes) = (1, 0, 0usize, 0);
    for (index, (op, qubits)) in steps.iter().enumerate() {
        state = dd.mat_vec_mul(*op, state);
        if index == FLIP_AFTER {
            state = dd.mat_vec_mul(error, state);
        }
        for &qubit in qubits {
            let p_decay = GAMMA * dd.excited_norm_sqr(state, qubit);
            assert!((0.0..=GAMMA * (1.0 + 1e-9)).contains(&p_decay));
            excited += usize::from(p_decay > 0.0);
            let decay =
                p_decay > 0.0 && decay_every.is_some_and(|every| excited.is_multiple_of(every));
            decays += usize::from(decay);
            state = dd.apply_kraus(kraus[qubit][usize::from(!decay)], state).1;
        }
        multiplies += 1 + qubits.len() as u64;
        peak_nodes = peak_nodes.max(dd.vec_node_count(state));
    }
    assert!((dd.norm_sqr(state) - 1.0).abs() < 1e-9);
    Work {
        multiplies,
        decays,
        compute_misses: dd.table_stats().since(&tables).compute_misses,
        complex_values: (dd.stats().complex_values - persistent.complex_values) as u64,
        vec_nodes: (dd.stats().vec_nodes - persistent.vec_nodes) as u64,
        peak_nodes,
    }
}

/// The diagrams stay within a few nodes per qubit, so a multiply may miss a
/// few times per level and create a few nodes and values per level, but no
/// more: a recursion that is exponential in the distance between two
/// touched qubits cannot stay inside bounds linear in `N` per multiply.
fn assert_linear(work: &Work) {
    eprintln!("{work:?}");
    let n = N as u64;
    assert!(work.peak_nodes <= 2 * N, "{work:?}");
    assert!(work.compute_misses <= work.multiplies * n, "{work:?}");
    assert!(work.vec_nodes <= work.multiplies * n / 2, "{work:?}");
    assert!(work.complex_values <= work.multiplies * 2, "{work:?}");
}

#[test]
fn live_qft16_after_a_bit_flip_costs_linear_work() {
    // Keyed on fully weighted edges, the additions under the eight closing
    // swaps made this trajectory cost 92 980 compute misses and 66 350 new
    // complex values for diagrams that never exceed 16 nodes.
    let work = replay(None);
    assert_eq!(work.decays, 0);
    assert_linear(&work);
}

#[test]
fn live_qft16_with_fired_decays_costs_linear_work() {
    let work = replay(Some(32));
    assert!(
        work.decays >= 3,
        "the schedule must exercise the decay branch"
    );
    assert_linear(&work);
}

/// Shots that leave the no-error path share their trajectories past the
/// first deviation: a GHZ-32 job under paper noise draws its single events
/// from a few hundred possibilities, so the deduplicating driver must
/// evolve far fewer trajectories than shots deviated, and spend at most
/// half the decision-diagram work of running each deviating shot alone.
#[test]
fn deviating_ghz32_shots_share_their_evolution() {
    const SHOTS: usize = 8_000;
    let engine = ShotEngine::new(
        &ghz(32),
        BackendKind::DecisionDiagram,
        NoiseModel::paper_defaults(),
        2021,
        OptLevel::O0,
    );

    // The yardstick: the same job with every deviating shot run on its own.
    let (mut slots, mut groups, mut deviating) = (HashMap::new(), Vec::new(), Vec::new());
    for shot in 0..SHOTS as u64 {
        let Some((pattern, rng)) = engine.presample_shot(shot) else {
            deviating.push(shot);
            continue;
        };
        let slot = *slots.entry(pattern.clone()).or_insert(groups.len());
        if slot == groups.len() {
            groups.push((pattern, Vec::new()));
        }
        groups[slot].1.push((shot, rng));
    }
    let mut ctx = engine.new_context();
    for (pattern, members) in &mut groups {
        engine.run_group_in(&mut ctx, pattern, members, &[]);
    }
    for &shot in &deviating {
        engine.run_shot_in(&mut ctx, shot);
    }
    let alone = ctx.dd_table_stats().compute_misses;
    assert!(deviating.len() > SHOTS / 10, "the job must deviate often");

    for threads in [1, 2] {
        let JobWork {
            stats,
            compute_misses: shared,
            ..
        } = traced_job(&engine, SHOTS, threads);
        eprintln!(
            "{threads} threads: {} deviating shots, {stats:?}, compute misses {shared} vs {alone} alone",
            deviating.len()
        );
        assert!(
            stats.unique_trajectories as f64 <= 0.45 * deviating.len() as f64,
            "{stats:?} for {} deviating shots",
            deviating.len()
        );
        assert!(shared > 0, "the workers must report their table traffic");
        assert!(2 * shared <= alone, "{shared} shared vs {alone} alone");
    }
}

/// Weighted enumeration simulates each likely trajectory once and sizes its
/// residual tail by variance (`residual² · shots`), not by mass: a GHZ-16
/// job under the paper's noise simulates fewer trajectories than the
/// deduplicating driver evolves and under a third of what a per-shot run
/// simulates (one per shot).
#[test]
fn weighted_ghz16_simulates_fewer_trajectories_than_dedup() {
    const SHOTS: usize = 2_000;
    let engine = ShotEngine::new(
        &ghz(16),
        BackendKind::DecisionDiagram,
        NoiseModel::paper_defaults(),
        7,
        OptLevel::O0,
    );
    let run = |mode| {
        let plan = ExecPlan::new(mode, SHOTS, &[]);
        execute(&engine, &plan, Placement::Threads(1)).unwrap()
    };
    let weighted = run(ExecMode::Weighted(WeightedOptions::default()))
        .weighted
        .expect("GHZ-16 supports weighted enumeration");
    let dedup = run(ExecMode::Dedup).dedup.expect("the dedup driver ran");
    let simulated = weighted.enumerated_trajectories + weighted.tail_shots;
    eprintln!(
        "weighted {} enumerated + {} tail, dedup {dedup:?}, per-shot {SHOTS}",
        weighted.enumerated_trajectories, weighted.tail_shots
    );
    assert!(simulated < dedup.unique_trajectories, "{dedup:?}");
    assert!(3 * simulated <= SHOTS as u64, "{simulated} trajectories");
    // 2 enumerated + 16 tail shots against 48 evolutions.
    assert!(simulated <= 18, "{simulated} trajectories");
    assert!(dedup.unique_trajectories <= 48, "{dedup:?}");
}

/// What a deduplicated job did, and what it cost its workers' packages.
#[derive(Debug, PartialEq)]
struct JobWork {
    stats: DedupStats,
    error_events: u64,
    compute_misses: u64,
    nodes_created: u64,
    /// Child buckets forked off their parent's walk.
    forks: u64,
    /// Nodes visited by node-count walks (peak and final-size bookkeeping).
    count_nodes: u64,
    /// Excitation walks: decay thresholds and measurement probabilities.
    threshold_walks: u64,
    /// Complex-table tolerance-ball searches, and the values they interned.
    complex_lookups: u64,
    complex_inserts: u64,
    /// Multiplies by a block product of several kept steps.
    block_steps: u64,
    /// Waiting-time uniforms presampling drew.
    uniforms: u64,
    /// Spans of the job's trace, and the attributes they carry, outside
    /// the `worker_trajectories` lanes (one per worker).
    spans: u64,
    attrs: u64,
}

/// Runs `shots` deduplicated shots on `threads` workers and sums the table
/// traffic the workers report on their `worker_trajectories` spans.
fn traced_job(engine: &ShotEngine, shots: usize, threads: usize) -> JobWork {
    // Never switched off again: the tests of this binary run concurrently,
    // and only a job with a tracer installed reads the switch.
    trace::set_trace_enabled(true);
    let tracer = Tracer::forced("work-bound", "work-bound");
    let outcome = {
        let _install = tracer.install(0);
        let plan = ExecPlan::new(ExecMode::Dedup, shots, &[]);
        execute(engine, &plan, Placement::Threads(threads)).unwrap()
    };
    let spans = tracer.finish("job").spans;
    let sum_over = |span_name: &str, name: &str| -> u64 {
        spans
            .iter()
            .filter(|span| span.name == span_name)
            .flat_map(|span| &span.attrs)
            .filter_map(|(key, value)| match value {
                AttrValue::U64(count) if *key == name => Some(*count),
                _ => None,
            })
            .sum()
    };
    let sum = |name: &str| sum_over("worker_trajectories", name);
    let shared: Vec<_> = spans
        .iter()
        .filter(|span| span.name != "worker_trajectories")
        .collect();
    JobWork {
        stats: outcome.dedup.expect("the dedup driver ran"),
        error_events: outcome.error_events,
        compute_misses: sum("dd_compute_misses"),
        nodes_created: sum("dd_unique_misses"),
        forks: sum("forks"),
        count_nodes: sum("dd_count_nodes"),
        threshold_walks: sum("dd_threshold_walks"),
        complex_lookups: sum("dd_complex_lookups"),
        complex_inserts: sum("dd_complex_inserts"),
        block_steps: sum("dd_block_steps"),
        uniforms: sum_over("presample", "uniforms"),
        spans: shared.len() as u64,
        attrs: shared.iter().map(|span| span.attrs.len() as u64).sum(),
    }
}

/// The paper-noise job of a benchmark workload on the decision-diagram
/// engine (see [`workload_job_on`]).
fn workload_job(circuit: &Circuit, shots: usize) -> JobWork {
    workload_job_on(circuit, shots, BackendKind::DecisionDiagram)
}

/// The paper-noise job of a benchmark workload, on one worker and on two:
/// every evolution starts from the rewound template, so the work must not
/// depend on which worker ran it.
fn workload_job_on(circuit: &Circuit, shots: usize, backend: BackendKind) -> JobWork {
    let engine = ShotEngine::new(
        circuit,
        backend,
        NoiseModel::paper_defaults(),
        2021,
        OptLevel::O0,
    );
    let serial = traced_job(&engine, shots, 1);
    eprintln!("{} x {shots}: {serial:?}", circuit.name());
    assert_eq!(serial, traced_job(&engine, shots, 2));
    serial
}

/// After an error only the levels above it are new: what compile already
/// evaluated below — the frozen table layer — is found, not recomputed.
/// With cold tables per evolution these jobs took 8 290 737 (GHZ-64) and
/// 1 872 022 (QFT-16) compute misses.
#[test]
fn evolutions_recompute_only_what_their_errors_changed() {
    let ghz64 = workload_job(&ghz(64), 30_000);
    assert!(ghz64.compute_misses <= 3_500_000, "{ghz64:?}");
    let qft16 = workload_job(&qft(16), 2_000);
    assert!(qft16.compute_misses <= 1_000_000, "{qft16:?}");
    // A one- or two-qubit step applies its kept operator once where it
    // applied the gate and a keep per touched qubit (2 706 009 and 774 078
    // misses).
    assert!(ghz64.compute_misses <= 2_300_000, "{ghz64:?}");
    assert!(qft16.compute_misses <= 450_000, "{qft16:?}");
    // A child bucket forks off its parent's walk where its members
    // deviated instead of replaying the shared past from the template
    // (1 985 549 and 378 691 misses, 870 012 nodes) — with the same
    // evolutions as before.
    assert!(ghz64.compute_misses <= 1_700_000, "{ghz64:?}");
    assert!(ghz64.nodes_created <= 700_000, "{ghz64:?}");
    assert!(qft16.compute_misses <= 365_000, "{qft16:?}");
    // A damping draw reads its threshold only when its uniform lands under
    // γ, and a walk counts a state only when its size bound exceeds the
    // peak, deferred to the walk's end or next fork (52 756 and 54 461
    // excitation walks, 4 917 695 and 883 936 nodes counted).
    assert!(ghz64.threshold_walks <= 2_000, "{ghz64:?}");
    assert!(ghz64.count_nodes <= 1_500_000, "{ghz64:?}");
    assert!(qft16.threshold_walks <= 1_000, "{qft16:?}");
    assert!(qft16.count_nodes <= 50_000, "{qft16:?}");
    // A shot draws one uniform to find its first candidate and one after
    // each candidate, not one per exposure site (11 430 000 uniforms).
    assert!(ghz64.uniforms <= 45_000, "{ghz64:?}");
    // A Z error that stays diagonal up to the readout is counted, not
    // simulated, so its shot stays on the trajectory it shares (2 073
    // evolutions, 1 517 667 misses, and (781, 543) on QFT-16).
    assert!(ghz64.stats.unique_trajectories <= 1_200, "{ghz64:?}");
    assert!(ghz64.compute_misses <= 1_000_000, "{ghz64:?}");
    let shared = |job: &JobWork| (job.stats.unique_trajectories, job.stats.live_shots);
    assert_eq!(shared(&ghz64), (731, 471));
    // A Z on a qubit still in a basis state is a global phase, counted too:
    // every QFT-16 site absorbs by one rule or the other (535 evolutions,
    // 342 live, 234 480 misses with only the first).
    assert!(qft16.stats.unique_trajectories <= 400, "{qft16:?}");
    assert!(qft16.compute_misses <= 200_000, "{qft16:?}");
    assert_eq!(shared(&qft16), (327, 178));
    // Tracing opens spans per trajectory group and per stage, never per
    // shot: under one span per 100 shots (263 spans, 2 346 attributes;
    // each worker lane adds one span and 13 attributes).
    assert!(ghz64.spans <= 300, "{ghz64:?}");
    assert!(ghz64.attrs <= 2_600, "{ghz64:?}");
    // Only what a node keeps is interned; products and sums on the way
    // down are scratch values (23 879 / 2 147 and 109 994 / 24 628
    // searches / inserts when every intermediate was interned).
    assert!(ghz64.complex_lookups <= 19_500, "{ghz64:?}");
    assert!(ghz64.complex_inserts <= 2_500, "{ghz64:?}");
    assert!(qft16.complex_lookups <= 74_000, "{qft16:?}");
    assert!(qft16.complex_inserts <= 20_000, "{qft16:?}");
    // A live stretch between two decision points crosses its kept steps as
    // a few block products of them, built at compile (ROADMAP item 7):
    // 696 826 and 188 351 misses, 305 847 and 137 093 nodes created, and
    // 265 562 nodes counted on GHZ-64 when every step was its own multiply
    // (now 321 445 / 146 511 misses, 100 353 / 55 973 nodes, 82 738
    // counted, in 3 404 and 2 433 block steps).
    assert!(
        ghz64.block_steps > 0 && qft16.block_steps > 0,
        "{ghz64:?} {qft16:?}"
    );
    assert!(ghz64.compute_misses <= 418_095, "{ghz64:?}");
    assert!(qft16.compute_misses <= 150_680, "{qft16:?}");
    assert!(ghz64.nodes_created <= 105_000, "{ghz64:?}");
    assert!(ghz64.count_nodes <= 87_000, "{ghz64:?}");
    assert!(qft16.nodes_created <= 59_000, "{qft16:?}");
}

/// The no-error path continues through the measurements at compile time,
/// so the shots that stay on it find their measure/project chains in the
/// frozen layer: without it this job created 215 527 vector nodes.
#[test]
fn measured_bv12_shots_share_the_no_error_measurement_chain() {
    let bv12 = workload_job(&bernstein_vazirani(12, 0x5555_5555_5555_5555), 2_000);
    assert!(bv12.nodes_created <= 120_000, "{bv12:?}");
    // Each step's state is built once, not once per operator (93 080).
    assert!(bv12.nodes_created <= 80_000, "{bv12:?}");
    // The final-H exposures absorb (102 and 46 before), and so does the
    // ancilla's `x` exposure, still in a basis state (86 and 38 before).
    let shared = (bv12.stats.unique_trajectories, bv12.stats.live_shots);
    assert_eq!(shared, (84, 36));
    // Intermediate products and sums are scratch values (160 638 searches
    // and 35 405 inserts when they were interned).
    assert!(bv12.complex_lookups <= 87_000, "{bv12:?}");
    assert!(bv12.complex_inserts <= 11_200, "{bv12:?}");
    // Its kept block products only break even (51 626 misses, 55 882 nodes
    // created and 91 000 counted taking every step alone; now 48 829,
    // 45 540 and 69 976, in 587 block steps — 77 147 counted while a walk
    // that members resume from also counted its end state).
    assert!(bv12.block_steps > 0, "{bv12:?}");
    assert!(bv12.compute_misses <= 51_626, "{bv12:?}");
    assert!(bv12.nodes_created <= 48_000, "{bv12:?}");
    assert!(bv12.count_nodes <= 81_000, "{bv12:?}");
}

/// The vector kernels carry their intermediate products and sums as scratch
/// values and intern only what a node keeps, so a job's tolerance-ball
/// searches track the nodes it makes, on a dense state too.
#[test]
fn dense_qaoa8_interns_only_what_its_nodes_keep() {
    // Interning every intermediate searched 498 088 times and interned
    // 410 860 values.
    let qaoa8 = workload_job(&by_name("qaoa", 8).expect("a generator"), 200);
    assert!(qaoa8.complex_lookups <= 240_000, "{qaoa8:?}");
    assert!(qaoa8.complex_inserts <= 188_000, "{qaoa8:?}");
}

/// `auto` watches the states its compile walks anyway and nothing else:
/// the benchmark jobs it leaves on decision diagrams cost what the
/// explicit DD jobs cost, field for field.
#[test]
fn the_auto_watch_costs_no_table_work() {
    let bv12 = bernstein_vazirani(12, 0x5555_5555_5555_5555);
    for (circuit, shots) in [(ghz(64), 30_000), (qft(16), 2_000), (bv12, 2_000)] {
        let job = |backend| {
            let noise = NoiseModel::paper_defaults();
            let engine = ShotEngine::new(&circuit, backend, noise, 2021, OptLevel::O0);
            assert_eq!(engine.backend_kind(), BackendKind::DecisionDiagram);
            traced_job(&engine, shots, 1)
        };
        assert_eq!(job(BackendKind::Auto), job(BackendKind::DecisionDiagram));
    }
}

/// The statevector engine shares a measured circuit's unitary prefix: the
/// dense QAOA-8 job evolves the trajectories the decision-diagram job does
/// (322, 184 of them live), not one per shot — and none of it in a diagram.
#[test]
fn dense_qaoa8_shares_its_measured_prefix() {
    let qaoa8 = by_name("qaoa", 8).expect("a generator");
    let dense = workload_job_on(&qaoa8, 2_000, BackendKind::Statevector);
    assert!(dense.stats.unique_trajectories <= 335, "{dense:?}");
    assert!(dense.stats.live_shots <= 192, "{dense:?}");
    assert_eq!((dense.compute_misses, dense.complex_lookups), (0, 0));
}

/// Measured BV keeps one node per qubit without damping: its peaks under
/// the paper's noise come from the no-jump damping keep, which moves the
/// ancilla off its X eigenstate (ROADMAP item 6(d)).
#[test]
fn measured_bv_without_damping_keeps_one_node_per_qubit() {
    for n in [8, 16, 32] {
        let engine = ShotEngine::new(
            &bernstein_vazirani(n, 0x5555_5555_5555_5555),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults().with_amplitude_damping(0.0),
            2021,
            OptLevel::O0,
        );
        let plan = ExecPlan::new(ExecMode::Dedup, 500, &[]);
        let outcome = execute(&engine, &plan, Placement::Threads(2)).unwrap();
        assert_eq!(outcome.dd_nodes_peak, n as u64, "BV-{n}");
    }
}

/// The paper's central quantity, in integers: a GHZ-n diagram never holds
/// more than `2n − 1` nodes (Table Ia) and a QFT-n one exactly one node per
/// qubit (Table Ib), noiseless and under the paper's noise — peaks tracked
/// over every trajectory, the forked ones included.
#[test]
fn ghz_and_qft_diagrams_keep_the_papers_node_counts() {
    let peak = |circuit: &Circuit, noise: NoiseModel, shots: usize| {
        let engine = ShotEngine::new(
            circuit,
            BackendKind::DecisionDiagram,
            noise,
            2021,
            OptLevel::O0,
        );
        let plan = ExecPlan::new(ExecMode::Dedup, shots, &[]);
        let outcome = execute(&engine, &plan, Placement::Threads(2)).unwrap();
        outcome.dd_nodes_peak
    };
    let (noiseless, paper) = (NoiseModel::noiseless(), NoiseModel::paper_defaults());
    for n in [8, 16, 32, 64] {
        let widest = 2 * n as u64 - 1;
        assert_eq!(peak(&ghz(n), noiseless, 2_000), widest, "GHZ-{n}");
        assert!(peak(&ghz(n), paper, 2_000) <= widest, "GHZ-{n}");
        assert_eq!(peak(&qft(n), noiseless, 500), n as u64, "QFT-{n}");
    }
    for n in [8, 16, 32] {
        assert_eq!(peak(&qft(n), paper, 500), n as u64, "QFT-{n}");
    }
}

/// The dense baseline shares trajectories under the paper's noise model
/// too: a statevector GHZ-14 job evolves a few dozen states, not one per
/// shot, and the same ones on any number of workers.
#[test]
fn dense_ghz14_shots_share_their_evolution() {
    const SHOTS: usize = 300;
    let engine = ShotEngine::new(
        &ghz(14),
        BackendKind::Statevector,
        NoiseModel::paper_defaults(),
        2021,
        OptLevel::O0,
    );
    let plan = ExecPlan::new(ExecMode::Dedup, SHOTS, &[]);
    let [serial, threaded] = [1, 2].map(|threads| {
        let outcome = execute(&engine, &plan, Placement::Threads(threads)).unwrap();
        outcome.dedup.expect("unitary dense programs deduplicate")
    });
    eprintln!("{SHOTS} dense shots: {serial:?}");
    assert!(serial.unique_trajectories <= 30, "{serial:?}");
    assert_eq!(serial, threaded);
}

/// A 12-qubit CX chain measured after its first gate shares a one-gate
/// prefix: almost every shot resumes live past it, in member runs that
/// each walk the prefix again — on the recorded trajectory, so the runs
/// add no table work to what the shots' live tails cost. The same job run
/// per shot costs the same 82 038 misses and 702 nodes, with 24 000 nodes
/// counted.
#[test]
fn early_measured_cx_chain_resumes_in_member_runs() {
    let mut chain = Circuit::new(12);
    chain.h(0).measure(0, 0);
    for qubit in 1..12 {
        chain.cx(qubit - 1, qubit);
    }
    chain.measure_all();
    let job = workload_job(&chain, 2_000);
    let DedupStats {
        unique_trajectories,
        serving,
        live_shots,
    } = job.stats;
    assert!(unique_trajectories <= 3 && serving <= 3, "{job:?}");
    assert!(live_shots <= 2, "{job:?}");
    assert!(job.compute_misses <= 82_038, "{job:?}");
    assert!(job.nodes_created <= 702, "{job:?}");
}

/// A per-shot job traces one `worker_shots` span per lane — on the
/// calling thread's lane for an inline job, on a worker's otherwise — each
/// carrying the table work its lane did. Every shot re-seats its context,
/// so the work summed over the lanes does not depend on the placement.
#[test]
fn per_shot_lanes_carry_their_table_work_at_every_placement() {
    // Never switched off again (see `traced_job`).
    trace::set_trace_enabled(true);
    let engine = ShotEngine::new(
        &qft(8),
        BackendKind::DecisionDiagram,
        NoiseModel::paper_defaults(),
        2021,
        OptLevel::O0,
    );
    let lanes = |on: Placement<'_>| -> Vec<u64> {
        let tracer = Tracer::forced("per-shot", "per-shot");
        {
            let _install = tracer.install(0);
            let plan = ExecPlan::new(ExecMode::PerShot, 300, &[]);
            execute(&engine, &plan, on).unwrap();
        }
        let spans = tracer.finish("job").spans;
        let lanes = spans.iter().filter(|span| span.name == "worker_shots");
        let misses = lanes.map(|span| {
            let attr = span.attrs.iter().find_map(|(key, value)| match value {
                AttrValue::U64(count) if *key == "dd_compute_misses" => Some(*count),
                _ => None,
            });
            attr.expect("a lane carries its table work")
        });
        misses.collect()
    };
    let inline = lanes(Placement::Inline(&mut engine.new_context()));
    let (one, two) = (lanes(Placement::Threads(1)), lanes(Placement::Threads(2)));
    eprintln!("compute misses per lane: inline {inline:?}, 1 thread {one:?}, 2 threads {two:?}");
    assert_eq!((inline.len(), one.len(), two.len()), (1, 1, 2));
    assert!(inline[0] > 0);
    assert_eq!(one, inline);
    assert_eq!(two.iter().sum::<u64>(), inline[0]);
}
