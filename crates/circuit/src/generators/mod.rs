//! Programmatic generators for the benchmark circuits used in the paper's
//! evaluation.
//!
//! Table Ia uses the *entanglement* (GHZ) circuits, Table Ib the *Quantum
//! Fourier Transform*, and Table Ic circuits from the QASMBench suite. The
//! QASMBench files themselves are OpenQASM sources; this module provides
//! generators that produce circuits with the same structure (gate families,
//! entanglement pattern and qubit counts) so that the benchmark harness is
//! self-contained. Real QASMBench files can still be loaded through
//! [`crate::qasm::parse_source`].

mod arithmetic;
mod basic;
mod chemistry;
mod extended;
mod grover;
mod qft;

pub use arithmetic::{cuccaro_adder, multiplier};
pub use basic::{bernstein_vazirani, ghz, random_circuit, w_state};
pub use chemistry::{basis_trotter, ising, seca, vqe_ansatz};
pub use extended::{deutsch_jozsa, draper_adder, qaoa_maxcut_ring, ring_graph_state};
pub use grover::{counterfeit_coin, grover, sat_oracle_circuit};
pub use qft::{qft, quantum_phase_estimation};

use crate::Circuit;

/// The smallest qubit count a named generator supports, or `None` for
/// unknown names.
///
/// Front-ends use this to validate user input *before* calling the
/// generator functions, whose own precondition `assert!`s would otherwise
/// turn a typo in a job file into a process abort.
///
/// ```
/// use qsdd_circuit::generators::min_qubits;
///
/// assert_eq!(min_qubits("ghz"), Some(1));
/// assert_eq!(min_qubits("qaoa"), Some(3));
/// assert_eq!(min_qubits("nope"), None);
/// ```
pub fn min_qubits(name: &str) -> Option<usize> {
    match name {
        "ghz" | "entanglement" | "qft" | "wstate" => Some(1),
        "grover" | "bv" => Some(2),
        "qaoa" => Some(3),
        _ => None,
    }
}

/// Builds a generator circuit from its command-line / job-file name.
///
/// This is the single lookup shared by `qsdd_cli generate` and the
/// `qsdd-batch` job-file parser and the server's job bodies, so every
/// front-end accepts exactly the same spellings and reports the same
/// message for an unknown name or a qubit count below the generator's
/// minimum ([`min_qubits`]) — it never panics.
///
/// | Name | Circuit |
/// |------|---------|
/// | `ghz`, `entanglement` | [`ghz`] (the paper's Table Ia workload) |
/// | `qft` | [`qft`] (Table Ib) |
/// | `grover` | [`grover`] with one marked item |
/// | `bv` | [`bernstein_vazirani`] with the alternating secret |
/// | `wstate` | [`w_state`] |
/// | `qaoa` | [`qaoa_maxcut_ring`] with two fixed parameter layers |
///
/// # Examples
///
/// ```
/// use qsdd_circuit::generators::by_name;
///
/// let circuit = by_name("ghz", 8).expect("known generator");
/// assert_eq!(circuit.num_qubits(), 8);
/// assert_eq!(by_name("nope", 8).unwrap_err(), "unknown generator `nope`");
/// // Below the minimum: an error, no panic.
/// assert_eq!(
///     by_name("grover", 1).unwrap_err(),
///     "generator `grover` needs at least 2 qubit(s), got 1"
/// );
/// ```
pub fn by_name(name: &str, qubits: usize) -> Result<Circuit, String> {
    let min = min_qubits(name).ok_or_else(|| format!("unknown generator `{name}`"))?;
    if qubits < min {
        return Err(format!(
            "generator `{name}` needs at least {min} qubit(s), got {qubits}"
        ));
    }
    Ok(match name {
        "ghz" | "entanglement" => ghz(qubits),
        "qft" => qft(qubits),
        "grover" => grover(qubits, 1, None),
        "bv" => bernstein_vazirani(qubits, 0x5555_5555_5555_5555),
        "wstate" => w_state(qubits),
        _ => qaoa_maxcut_ring(qubits, &[(0.4, 0.9), (0.7, 0.3)]),
    })
}

/// A named benchmark entry of the QASMBench-style suite (Table Ic).
#[derive(Clone, Debug)]
pub struct BenchmarkEntry {
    /// Benchmark name as used in the paper's table.
    pub name: &'static str,
    /// Number of qubits.
    pub num_qubits: usize,
    /// The generated circuit.
    pub circuit: Circuit,
}

/// Builds the QASMBench-style benchmark set listed in Table Ic of the paper.
///
/// Each entry is a structural stand-in for the corresponding QASMBench
/// circuit with the same qubit count (see `DESIGN.md` for the substitution
/// rationale).
pub fn qasmbench_suite() -> Vec<BenchmarkEntry> {
    let entries = vec![
        ("basis_trotter", basis_trotter(4, 4)),
        ("vqe_uccsd_6", vqe_ansatz(6, 6, 11)),
        ("vqe_uccsd_8", vqe_ansatz(8, 8, 13)),
        ("ising_10", ising(10, 10)),
        ("seca_11", seca()),
        ("sat_11", sat_oracle_circuit(11)),
        ("multiplier_15", multiplier(3, 4)),
        ("bigadder_18", cuccaro_adder(8)),
        ("cc_18", counterfeit_coin(18)),
        ("bv_19", bernstein_vazirani(19, 0b1_0101_0101_0101_0101)),
    ];
    entries
        .into_iter()
        .map(|(name, circuit)| BenchmarkEntry {
            name,
            num_qubits: circuit.num_qubits(),
            circuit,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_expected_sizes() {
        let suite = qasmbench_suite();
        assert_eq!(suite.len(), 10);
        let by_name: std::collections::HashMap<_, _> =
            suite.iter().map(|e| (e.name, e.num_qubits)).collect();
        assert_eq!(by_name["ising_10"], 10);
        assert_eq!(by_name["seca_11"], 11);
        assert_eq!(by_name["sat_11"], 11);
        assert_eq!(by_name["multiplier_15"], 15);
        assert_eq!(by_name["bigadder_18"], 18);
        assert_eq!(by_name["cc_18"], 18);
        assert_eq!(by_name["bv_19"], 19);
    }

    #[test]
    fn every_suite_circuit_is_nonempty() {
        for entry in qasmbench_suite() {
            assert!(!entry.circuit.is_empty(), "{} is empty", entry.name);
            assert!(entry.circuit.stats().gate_count > 0);
        }
    }
}
