//! The back-end abstraction shared by the stochastic simulators.
//!
//! Shot execution is split into two phases (the prepare-once / execute-many
//! architecture that makes the paper's "shots are i.i.d. and embarrassingly
//! parallel" observation actually pay off):
//!
//! 1. **Compile** ([`StochasticBackend::compile`]): everything that depends
//!    only on the circuit and the noise model — gate matrices, controlled-op
//!    and swap operator diagrams, noise-channel operator tables — is
//!    resolved once into an immutable [`StochasticBackend::Program`].
//! 2. **Execute** ([`StochasticBackend::run_shot`]): each shot replays the
//!    program against a mutable per-worker [`StochasticBackend::Context`]
//!    (scratch state, reusable arenas). Contexts are rewound, not rebuilt,
//!    between shots, so the per-circuit work is amortised over the whole
//!    shot loop.
//!
//! Reuse is an optimisation, never an observable: a shot executed in a
//! reused context is bit-identical to the same shot executed in a freshly
//! created context, for every seed and shot index. The job driver in
//! [`crate::stochastic`] runs either back-end concurrently by sharing the
//! program across workers and giving each worker its own context; the
//! paper's contribution is the decision-diagram back-end, the dense
//! statevector back-end reproduces the baseline simulators.

use std::sync::atomic::{AtomicU64, Ordering};

use qsdd_circuit::Circuit;
use qsdd_noise::NoiseModel;
use rand::rngs::StdRng;

use crate::dedup::DedupSupport;
use crate::estimator::Observable;

/// The result of a single stochastic simulation run.
#[derive(Clone, Debug)]
pub struct SingleRun<S> {
    /// The sampled measurement outcome as a basis-state index.
    ///
    /// If the circuit contains explicit measurements, the outcome packs the
    /// classical register (classical bit 0 is the most significant bit);
    /// otherwise every qubit of the final state is sampled once.
    pub outcome: u64,
    /// The classical register after the run.
    pub clbits: Vec<bool>,
    /// Number of stochastic error events that fired during the run.
    pub error_events: usize,
    /// Of those, the Z errors absorbed rather than applied.
    pub absorbed: usize,
    /// Node count of the final state's decision diagram (`0` on back-ends
    /// without a diagram representation).
    pub dd_nodes: u64,
    /// Peak node count the state diagram reached at any point during the
    /// run (`0` on back-ends without a diagram representation).
    pub dd_nodes_peak: u64,
    /// Back-end specific handle to the final pure state of the run.
    ///
    /// The handle may borrow storage owned by the context the shot ran in
    /// (e.g. decision diagram nodes); it is only meaningful until that
    /// context executes its next shot.
    pub state: S,
}

/// A simulation engine that can produce independent stochastic runs.
///
/// Implementations must be [`Sync`]: the Monte-Carlo runner shares one
/// back-end instance (and one compiled program) across worker threads; every
/// worker owns a private context and every run receives its own random
/// number generator.
pub trait StochasticBackend: Sync {
    /// Back-end specific handle to the final pure state of a run (see
    /// [`SingleRun::state`]).
    type State;

    /// The compiled, immutable form of one circuit + noise model pair.
    ///
    /// Programs are shared across worker threads by reference.
    type Program: Send + Sync;

    /// Reusable per-worker scratch state (arenas, amplitude buffers).
    type Context: Send;

    /// Phase 1: resolves `circuit` under `noise` into an executable program,
    /// performing all per-circuit work (operator construction, noise table
    /// resolution) exactly once.
    fn compile(&self, circuit: &Circuit, noise: &NoiseModel) -> Self::Program;

    /// Creates an empty execution context.
    ///
    /// A context is lazily seated onto whatever program it first executes
    /// and re-seats itself when handed a different program, so one
    /// long-lived context per worker serves any sequence of programs of
    /// this back-end.
    fn new_context(&self) -> Self::Context;

    /// The decision-diagram table counters `ctx` accumulated so far (all
    /// zero on back-ends without diagrams); traced drivers difference
    /// snapshots of it around a trajectory.
    fn table_stats(&self, _ctx: &Self::Context) -> qsdd_dd::TableStats {
        qsdd_dd::TableStats::default()
    }

    /// Phase 2: executes one stochastic shot of `program` in `ctx`. A Z
    /// error at a site flagged in `absorbing` (one flag per exposure site,
    /// in protocol order; `&[]` flags none) is counted but not applied: the
    /// engine passes the sites where it stays diagonal up to the readout.
    ///
    /// The context is rewound at shot entry; any state left over from a
    /// previous shot (of this or another program) is invalidated first, so
    /// the result is bit-identical to running the shot in a fresh context.
    fn run_shot(
        &self,
        program: &Self::Program,
        ctx: &mut Self::Context,
        rng: &mut StdRng,
        absorbing: &[bool],
    ) -> SingleRun<Self::State>;

    /// Evaluates a quadratic observable `|<omega|psi>|^2`-style property on
    /// the final state of a run.
    ///
    /// Must be called with the context the run executed in, *before* that
    /// context runs its next shot (the run's state may live in the
    /// context). Takes the context mutably because some back-ends fill
    /// internal caches (e.g. interned complex values) while evaluating.
    fn evaluate(
        &self,
        program: &Self::Program,
        ctx: &mut Self::Context,
        run: &mut SingleRun<Self::State>,
        observable: &Observable,
    ) -> f64;

    /// Describes how `program` supports trajectory deduplication, or `None`
    /// when every shot must execute live.
    ///
    /// A supporting back-end returns the presample plan over the program's
    /// deduplicable prefix (see [`crate::dedup`]); the deduplicating runner
    /// then presamples shots against it, groups equal patterns, walks each
    /// group and bucket over the back-end's decision points, and fans the
    /// shared states out over the members. The default declines, which
    /// keeps a back-end correct on the ordinary per-shot path.
    /// State-dependent channels are no reason to decline:
    /// record the threshold each damping exposure meets along the no-error
    /// path at compile time and hand it over as a
    /// [`qsdd_noise::SiteChannel::Damping`] site.
    fn dedup_support(&self, _program: &Self::Program) -> Option<DedupSupport> {
        None
    }
}

/// Hands out process-unique program identifiers, so execution contexts can
/// detect whether they are already seated on the program they are asked to
/// run (reuse) or must re-seat (program switch).
pub(crate) fn next_program_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Packs a classical register into a basis index (bit 0 of the register is
/// the most significant bit of the index).
pub(crate) fn pack_clbits(clbits: &[bool]) -> u64 {
    clbits
        .iter()
        .fold(0u64, |acc, &bit| (acc << 1) | u64::from(bit))
}

/// Assertions every back-end's unit tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::dedup::{run_pattern, DecisionPoints, Member};
    use qsdd_noise::ErrorPattern;
    use rand::{Rng, SeedableRng};

    /// Fans the no-error state of `program` out over forty members at once
    /// and one by one: whatever per-state preparation
    /// [`DecisionPoints::sample_outcomes`] hoists for a group, both ways
    /// must draw the same outcomes and leave the same generator positions.
    pub(crate) fn assert_groups_draw_like_lone_members<B: DecisionPoints>(
        backend: &B,
        program: &B::Program,
    ) {
        let mut ctx = backend.new_context();
        let run = run_pattern::<B>(program, &mut ctx, &ErrorPattern::default());
        let mut together: Vec<Member> = (0..40)
            .map(|shot| (shot, StdRng::seed_from_u64(shot), 0))
            .collect();
        let mut alone = together.clone();
        let mut grouped = Vec::new();
        backend.sample_outcomes(program, &mut ctx, &run, &mut together, |_, outcome| {
            grouped.push(outcome)
        });
        for (member, expected) in alone.chunks_mut(1).zip(&grouped) {
            backend.sample_outcomes(program, &mut ctx, &run, member, |_, outcome| {
                assert_eq!(outcome, *expected)
            });
        }
        for ((_, a, _), (_, b, _)) in together.iter_mut().zip(&mut alone) {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "stream diverged");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_clbits_uses_bit0_as_msb() {
        assert_eq!(pack_clbits(&[true, false]), 0b10);
        assert_eq!(pack_clbits(&[false, true, true]), 0b011);
        assert_eq!(pack_clbits(&[]), 0);
    }

    #[test]
    fn program_ids_are_unique_and_nonzero() {
        let a = next_program_id();
        let b = next_program_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
