//! The five workloads: what runs, at which size, and why it is here.
//!
//! Sizes are constants, not options: two runs compare only when they ran
//! the same work. Everything random — job seeds, sweep circuits, the
//! serve traffic script — derives from `--seed` through [`SplitMix`].

use qsdd_circuit::generators::{
    bernstein_vazirani, ghz, grover, qaoa_maxcut_ring, qft, random_circuit, w_state,
};
use qsdd_circuit::Circuit;
use qsdd_noise::NoiseModel;

use crate::stats::SplitMix;

/// Worker threads of every library job, batch invocation and server, and
/// the client count of `serve_mixed`. Fixed — not `nproc` — so numbers
/// compare across machines.
pub const THREADS: usize = 2;

/// The hidden string of the Bernstein–Vazirani workloads (alternating
/// bits, the same secret `qsdd_cli generate bv` uses).
const BV_SECRET: u64 = 0x5555_5555_5555_5555;

/// The paper's noise model: 0.1 % depolarizing, 0.2 % amplitude damping,
/// 0.1 % phase flip after every gate.
pub fn noise() -> NoiseModel {
    NoiseModel::paper_defaults()
}

/// One library workload: a circuit run as whole jobs through
/// `StochasticSimulator`.
#[derive(Clone, Copy, Debug)]
pub struct LibrarySpec {
    /// Builds the workload's circuit.
    pub circuit: fn() -> Circuit,
    /// Builds the scaled-down twin the exact density oracle can check.
    pub twin: fn() -> Circuit,
    /// Shots per job (one job is one operation).
    pub shots: usize,
}

/// Which entry point a workload goes through.
#[derive(Clone, Copy, Debug)]
pub enum Entry {
    /// `StochasticSimulator::run` in this process.
    Library(LibrarySpec),
    /// `qsdd_cli batch` child processes.
    BatchProcess,
    /// The HTTP API of a `qsdd_cli serve` child.
    Http,
}

/// A named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub why: &'static str,
    /// How it runs.
    pub entry: Entry,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ghz64_shared",
        why: "library, GHZ-64 x 30000 shots/job, 2 threads, closed loop: Table Ia; 71% of shots share a trajectory, so presampling, grouping and DD rewind carry it, DD multiply little",
        entry: Entry::Library(LibrarySpec {
            circuit: || ghz(64),
            twin: || ghz(6),
            shots: 30_000,
        }),
    },
    Workload {
        name: "qft16_live",
        why: "library, QFT-16 x 2000 shots/job, 2 threads, closed loop: Table Ib; dedup only 54%, each live replay is ~2 ms of mat_vec_mul and complex interning, so the DD kernel does >95%",
        entry: Entry::Library(LibrarySpec {
            circuit: || qft(16),
            twin: || qft(5),
            shots: 2_000,
        }),
    },
    Workload {
        name: "bv12_measured",
        why: "library, BV-12 with measure on every data qubit x 2000 shots/job, 2 threads, closed loop: prefix dedup, checkpoint clone, measure/project; diagrams reach 2.3k nodes vs 12 noiseless",
        entry: Entry::Library(LibrarySpec {
            circuit: || bernstein_vazirani(12, BV_SECRET),
            twin: || bernstein_vazirani(5, BV_SECRET),
            shots: 2_000,
        }),
    },
    Workload {
        name: "batch_suite",
        why: "qsdd_cli batch process, 48 jobs (8 QASMBench-style + 40 random sweep), --threads 2, one invocation per op: job-file/QASM parse, transpile, compile, chunk scheduler, early stop, weighted, dense, report",
        entry: Entry::BatchProcess,
    },
    Workload {
        name: "serve_mixed",
        why: "qsdd_cli serve child, 2 closed-loop keep-alive clients, blocks of 1 cold job + 4 cache hits: http, request parse, cache with LRU overflow, store appends and json dominate, DD little",
        entry: Entry::Http,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

/// One job of the batch suite: its stanza name, circuit and the stanza
/// lines beyond `circuit`.
pub struct SuiteJob {
    /// Stanza name, also the QASM file stem.
    pub name: String,
    /// The circuit written next to the job file.
    pub circuit: Circuit,
    /// `key = value` lines after `circuit`.
    pub keys: Vec<String>,
    /// The generator stanza spelling, for circuits outside the OpenQASM
    /// subset `qasm::write_source` emits.
    pub generator: Option<&'static str>,
}

/// Number of random sweep jobs behind the eight named suite jobs.
pub const SWEEP_JOBS: usize = 40;

/// Name of the suite's weighted job, whose `covered_mass` the output check
/// reads.
pub const WEIGHTED_JOB: &str = "ghz16-weighted";

/// The Table-Ic-style mix `batch_suite` runs: eight named jobs that
/// exercise the early-stop, dense and weighted drivers, plus a sweep of
/// small random circuits sized so the front end (parse, transpile,
/// compile) is visible next to simulation.
pub fn batch_suite(seed: u64) -> Vec<SuiteJob> {
    let mut seeds = SplitMix::new(seed, 0xBA7C);
    let mut job = |name: &str, circuit: Circuit, generator, keys: &[&str]| {
        let mut keys: Vec<String> = keys.iter().map(|key| key.to_string()).collect();
        keys.push(format!("seed = {}", seeds.next_seed()));
        SuiteJob {
            name: name.to_string(),
            circuit,
            keys,
            generator,
        }
    };
    let mut jobs = vec![
        job("qft12", qft(12), None, &["opt = 2", "shots = 2000"]),
        job("wstate24", w_state(24), None, &["shots = 4000"]),
        job(
            "grover6",
            grover(6, 1, None),
            Some("generate grover 6"),
            &["opt = 1", "shots = 300"],
        ),
        job(
            "qaoa8",
            qaoa_maxcut_ring(8, &[(0.4, 0.9), (0.7, 0.3)]),
            None,
            &["shots = 200"],
        ),
        job(
            "ghz32-early",
            ghz(32),
            None,
            &["shots = 30000", "epsilon = 0.02"],
        ),
        job(
            "ghz14-dense",
            ghz(14),
            None,
            &["backend = dense", "shots = 300"],
        ),
        job(
            WEIGHTED_JOB,
            ghz(16),
            None,
            &["weighted = true", "shots = 30000"],
        ),
        job(
            "bv10-measured",
            bernstein_vazirani(10, BV_SECRET),
            None,
            &["shots = 1000"],
        ),
    ];
    let mut circuits = SplitMix::new(seed, 0x5EE9);
    for index in 0..SWEEP_JOBS {
        jobs.push(job(
            &format!("sweep{index:02}"),
            random_circuit(7, 10, circuits.next_seed()),
            None,
            &["opt = 2", "shots = 10"],
        ));
    }
    jobs
}
