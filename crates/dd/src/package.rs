//! The decision diagram package: arenas, unique tables and operator builders.
//!
//! A [`DdPackage`] owns every node of the diagrams it creates. Nodes are
//! hash-consed through unique tables so that structurally identical
//! sub-diagrams are stored exactly once — this sharing is what makes the
//! representation compact for structured states such as GHZ or QFT outputs.

use std::sync::Arc;

use crate::complex::Complex;
use crate::complex_table::{ComplexId, ComplexTable};
use crate::fxhash::FxHashMap;
use crate::layered::{Age, Layered};
use crate::matrix2::Matrix2;
use crate::node::{MatEdge, MatNode, MatNodeId, VecEdge, VecNode, VecNodeId};

/// Default number of entries after which the operation caches are cleared.
pub const DEFAULT_CACHE_LIMIT: usize = 1 << 21;

/// Statistics about the current contents of a [`DdPackage`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackageStats {
    /// Number of distinct vector nodes ever created.
    pub vec_nodes: usize,
    /// Number of distinct matrix nodes ever created.
    pub mat_nodes: usize,
    /// Number of interned complex values.
    pub complex_values: usize,
    /// Matrix-vector multiplication cache entries made since the mark.
    pub mat_vec_cache: usize,
    /// Vector addition cache entries made since the mark.
    pub vec_add_cache: usize,
    /// Entries of the frozen layer, summed over the unique and compute
    /// tables (see [`DdPackage::mark_persistent`]).
    pub frozen_entries: usize,
}

/// Lifetime hit/miss counters of a package's unique and compute tables.
///
/// Maintained unconditionally — each counter is one unconditional `u64`
/// increment on a field the table lookup just touched, which is
/// unmeasurable next to the hash probe it annotates. The counters track
/// the *owning package's* whole lifetime: rewinds ([`DdPackage::
/// reset_transient`]) and re-seats (`clone_from`) do not reset them, so a
/// long-lived worker context accumulates its true table effectiveness.
/// Read them with [`DdPackage::table_stats`], difference snapshots for
/// per-job rates, or reset with [`DdPackage::reset_table_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Vector unique-table lookups that found an existing node.
    pub vec_unique_hits: u64,
    /// Vector unique-table lookups that created a new node.
    pub vec_unique_misses: u64,
    /// Matrix unique-table lookups that found an existing node.
    pub mat_unique_hits: u64,
    /// Matrix unique-table lookups that created a new node.
    pub mat_unique_misses: u64,
    /// Compute-table lookups (all operation caches) that hit.
    pub compute_hits: u64,
    /// Compute-table lookups that missed and computed.
    pub compute_misses: u64,
    /// Nodes visited by node-count walks ([`DdPackage::vec_node_count`]).
    pub count_nodes: u64,
    /// Excitation walks: calls of [`DdPackage::excitations`], through
    /// [`DdPackage::excited_norm_sqr`] and measurements too.
    pub threshold_walks: u64,
    /// Complex-table tolerance-ball searches: lookups of values not within
    /// tolerance of 0 or 1.
    pub complex_lookups: u64,
    /// Complex values interned: searches that found no value in tolerance.
    pub complex_inserts: u64,
}

impl TableStats {
    /// Counter-wise `self - earlier`, for per-job deltas over a reused
    /// package (saturating: a fresh snapshot against an older package is
    /// never negative).
    pub fn since(&self, earlier: &TableStats) -> TableStats {
        TableStats {
            vec_unique_hits: self.vec_unique_hits.saturating_sub(earlier.vec_unique_hits),
            vec_unique_misses: self
                .vec_unique_misses
                .saturating_sub(earlier.vec_unique_misses),
            mat_unique_hits: self.mat_unique_hits.saturating_sub(earlier.mat_unique_hits),
            mat_unique_misses: self
                .mat_unique_misses
                .saturating_sub(earlier.mat_unique_misses),
            compute_hits: self.compute_hits.saturating_sub(earlier.compute_hits),
            compute_misses: self.compute_misses.saturating_sub(earlier.compute_misses),
            count_nodes: self.count_nodes.saturating_sub(earlier.count_nodes),
            threshold_walks: self.threshold_walks.saturating_sub(earlier.threshold_walks),
            complex_lookups: self.complex_lookups.saturating_sub(earlier.complex_lookups),
            complex_inserts: self.complex_inserts.saturating_sub(earlier.complex_inserts),
        }
    }

    /// Counter-wise `self + other`, for totals over several packages.
    pub fn plus(&self, other: &TableStats) -> TableStats {
        TableStats {
            vec_unique_hits: self.vec_unique_hits + other.vec_unique_hits,
            vec_unique_misses: self.vec_unique_misses + other.vec_unique_misses,
            mat_unique_hits: self.mat_unique_hits + other.mat_unique_hits,
            mat_unique_misses: self.mat_unique_misses + other.mat_unique_misses,
            compute_hits: self.compute_hits + other.compute_hits,
            compute_misses: self.compute_misses + other.compute_misses,
            count_nodes: self.count_nodes + other.count_nodes,
            threshold_walks: self.threshold_walks + other.threshold_walks,
            complex_lookups: self.complex_lookups + other.complex_lookups,
            complex_inserts: self.complex_inserts + other.complex_inserts,
        }
    }
}

/// A nested mark on a package: see [`DdPackage::checkpoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a checkpoint is only useful to roll back to"]
pub struct Checkpoint {
    /// Open checkpoints, this one included.
    depth: usize,
    vec_nodes: usize,
    complex_values: usize,
    scratch_values: usize,
    epoch: u64,
}

/// Id of the node about to be pushed onto an arena of `len` nodes.
#[inline]
fn node_index(len: usize) -> u32 {
    // `u32::MAX` is the terminal id, so the arena must stay strictly below.
    assert!(len < u32::MAX as usize, "node arena exhausted its id space");
    len as u32
}

/// A self-contained decision diagram manager.
///
/// All diagrams handed out by a package (as [`VecEdge`] / [`MatEdge`]) are
/// only valid together with that package. Each worker of the stochastic
/// simulator owns one package, which keeps memory bounded and makes
/// concurrent runs trivially data-race free.
///
/// # Persistent and transient regions
///
/// A package can be split into a **persistent region** (precompiled operator
/// diagrams, recorded states, their interned weights) and a **transient
/// region** (everything created afterwards — per-shot states, scratch
/// values): [`DdPackage::mark_persistent`] freezes the current contents —
/// arenas up to a watermark plus every unique- and compute-table entry, the
/// latter as an immutable layer shared by all clones — and
/// [`DdPackage::reset_transient`] rolls the package back to exactly that
/// frozen state by truncating the arenas and clearing what the tables
/// gained since. This is what lets the simulator compile a circuit once and
/// then run thousands of shots against the same package, each re-deriving
/// only what its errors changed.
///
/// # Examples
///
/// ```
/// use qsdd_dd::{DdPackage, Matrix2};
///
/// let mut dd = DdPackage::new();
/// let state = dd.zero_state(2);
/// let h = dd.single_qubit_op(2, 0, Matrix2::hadamard());
/// let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
/// let state = dd.mat_vec_mul(h, state);
/// let bell = dd.mat_vec_mul(cx, state);
/// let amps = dd.to_statevector(bell, 2);
/// assert!((amps[0].re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
/// assert!((amps[3].re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct DdPackage {
    pub(crate) ctable: ComplexTable,
    pub(crate) vec_nodes: Vec<VecNode>,
    /// `vec_norms[i]` is the squared norm of the sub-vector below vector
    /// node `i` with a unit incoming weight, filled when the node is made.
    pub(crate) vec_norms: Vec<f64>,
    /// `vec_bounds[i]` bounds the node count below vector node `i` from
    /// above, filled when the node is made: `1 +` its children's bounds, a
    /// child both edges share counted once (saturating). Exact for chains
    /// and product states.
    pub(crate) vec_bounds: Vec<u32>,
    /// Matrices are built before the mark, so copies of a package share
    /// the matrix arena, copy-on-write.
    pub(crate) mat_nodes: Arc<Vec<MatNode>>,
    /// `mat_identity[i]` is `true` when matrix node `i` represents the
    /// identity on its own and all lower levels (parallel to `mat_nodes`);
    /// multiplication returns its vector operand at such a node.
    pub(crate) mat_identity: Arc<Vec<bool>>,
    pub(crate) vec_unique: Layered<VecNode, VecNodeId>,
    pub(crate) mat_unique: Layered<MatNode, MatNodeId>,
    pub(crate) ct_mat_vec: Layered<(MatNodeId, VecNodeId), VecEdge>,
    /// `N_x + ratio * N_y`, keyed `(N_x, N_y, ratio)` (see `vec_add_rec`).
    pub(crate) ct_vec_add: Layered<(VecNodeId, VecNodeId, ComplexId), VecEdge>,
    pub(crate) ct_inner: Layered<(VecNodeId, VecNodeId), Complex>,
    /// `[‖P1(a)‖², ‖P1(b)‖², ‖P1(a)P1(b)‖²]` of a node, keyed `(node, a, b)`
    /// with `a <= b` (see `DdPackage::excitations`).
    pub(crate) ct_excited: Layered<(VecNodeId, u16, u16), [f64; 3]>,
    pub(crate) ct_collapse: Layered<(VecNodeId, u16, bool), VecEdge>,
    pub(crate) cache_limit: usize,
    /// Vector nodes below this index belong to the persistent region.
    pub(crate) vec_watermark: usize,
    /// Matrix nodes below this index belong to the persistent region.
    pub(crate) mat_watermark: usize,
    /// Complex values below this index belong to the persistent region
    /// (the canonical 0 and 1 always do).
    pub(crate) complex_watermark: usize,
    /// Scratch values below this index belong to the persistent region.
    pub(crate) scratch_watermark: usize,
    /// Scratch for the stamp-based reachable-node counter.
    pub(crate) visit_marks: Vec<u32>,
    pub(crate) visit_stamp: u32,
    pub(crate) visit_stack: Vec<VecNodeId>,
    /// States whose counts walks deferred (see [`DdPackage::defer_count`]).
    pub(crate) deferred: Vec<VecEdge>,
    /// Lifetime table hit/miss counters (diagnostics; see [`TableStats`]).
    pub(crate) counters: TableStats,
    /// Bumped whenever the layers under the open checkpoints change other
    /// than by a rollback: a trim, a rewind, a re-seat.
    epoch: u64,
}

impl Clone for DdPackage {
    fn clone(&self) -> Self {
        let mut copy = DdPackage::new();
        copy.clone_from(self);
        copy.counters = self.counters;
        copy.ctable.traffic = self.ctable.traffic;
        copy
    }

    // Hand-rolled so re-seating a worker's package onto another program's
    // template reuses the arena and table allocations already sized by
    // earlier work instead of reallocating from scratch. The frozen table
    // layer and the matrix arena are shared, not copied.
    fn clone_from(&mut self, source: &Self) {
        self.epoch += 1;
        self.ctable.clone_from(&source.ctable);
        self.vec_nodes.clone_from(&source.vec_nodes);
        self.vec_norms.clone_from(&source.vec_norms);
        self.vec_bounds.clone_from(&source.vec_bounds);
        self.mat_nodes = Arc::clone(&source.mat_nodes);
        self.mat_identity = Arc::clone(&source.mat_identity);
        self.vec_unique.clone_from(&source.vec_unique);
        self.mat_unique.clone_from(&source.mat_unique);
        self.ct_mat_vec.clone_from(&source.ct_mat_vec);
        self.ct_vec_add.clone_from(&source.ct_vec_add);
        self.ct_inner.clone_from(&source.ct_inner);
        self.ct_excited.clone_from(&source.ct_excited);
        self.ct_collapse.clone_from(&source.ct_collapse);
        self.cache_limit = source.cache_limit;
        self.vec_watermark = source.vec_watermark;
        self.mat_watermark = source.mat_watermark;
        self.complex_watermark = source.complex_watermark;
        self.scratch_watermark = source.scratch_watermark;
        self.visit_marks.clear();
        self.visit_stamp = 0;
        self.visit_stack.clear();
        self.deferred.clear();
        // Deliberately NOT copied from `source`: the counters describe the
        // destination package's lifetime of table traffic, and a re-seat
        // onto another program's template must not erase what this package
        // has already counted (the template's counters describe compile
        // time, not this worker). Simulation state is unaffected — the
        // counters are pure diagnostics.
    }
}

impl DdPackage {
    /// Creates an empty package with default settings.
    pub fn new() -> Self {
        let ctable = ComplexTable::new();
        let complex_watermark = ctable.len();
        DdPackage {
            ctable,
            vec_nodes: Vec::new(),
            vec_norms: Vec::new(),
            vec_bounds: Vec::new(),
            mat_nodes: Arc::default(),
            mat_identity: Arc::default(),
            vec_unique: Layered::default(),
            mat_unique: Layered::default(),
            ct_mat_vec: Layered::default(),
            ct_vec_add: Layered::default(),
            ct_inner: Layered::default(),
            ct_excited: Layered::default(),
            ct_collapse: Layered::default(),
            cache_limit: DEFAULT_CACHE_LIMIT,
            vec_watermark: 0,
            mat_watermark: 0,
            complex_watermark,
            scratch_watermark: 0,
            visit_marks: Vec::new(),
            visit_stamp: 0,
            visit_stack: Vec::new(),
            deferred: Vec::new(),
            counters: TableStats::default(),
            epoch: 0,
        }
    }

    /// Creates a package with a custom complex-equality tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        let mut p = DdPackage::new();
        p.ctable = ComplexTable::with_tolerance(tolerance);
        p
    }

    /// Overrides the per-table memoisation cache limit (entries).
    ///
    /// Each compute table is cleared individually once it exceeds the
    /// limit; see [`DEFAULT_CACHE_LIMIT`].
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn set_cache_limit(&mut self, limit: usize) {
        assert!(limit > 0, "cache limit must be positive");
        self.cache_limit = limit;
    }

    /// Returns a read-only view of the complex table.
    pub fn complex_table(&self) -> &ComplexTable {
        &self.ctable
    }

    /// Interns a complex value and returns its id.
    pub fn lookup_complex(&mut self, value: Complex) -> ComplexId {
        self.ctable.lookup(value)
    }

    /// Returns the complex value behind an interned id.
    pub fn complex_value(&self, id: ComplexId) -> Complex {
        self.ctable.value(id)
    }

    /// Returns the node data behind a non-terminal vector node id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is the terminal node or not from this package.
    pub fn vec_node(&self, id: VecNodeId) -> VecNode {
        self.vec_nodes[id.index()]
    }

    /// Current package statistics.
    pub fn stats(&self) -> PackageStats {
        PackageStats {
            vec_nodes: self.vec_nodes.len(),
            mat_nodes: self.mat_nodes.len(),
            complex_values: self.ctable.len(),
            mat_vec_cache: self.ct_mat_vec.transient_len(),
            vec_add_cache: self.ct_vec_add.transient_len(),
            frozen_entries: self.vec_unique.frozen().len()
                + self.mat_unique.frozen().len()
                + self.ct_mat_vec.frozen().len()
                + self.ct_vec_add.frozen().len()
                + self.ct_inner.frozen().len()
                + self.ct_excited.frozen().len()
                + self.ct_collapse.frozen().len(),
        }
    }

    /// Lifetime unique/compute-table hit and miss counters (see
    /// [`TableStats`]).
    pub fn table_stats(&self) -> TableStats {
        let [_, complex_lookups, complex_inserts] = self.ctable.traffic;
        TableStats {
            complex_lookups,
            complex_inserts,
            ..self.counters
        }
    }

    /// Resets the table hit/miss counters to zero.
    pub fn reset_table_stats(&mut self) {
        self.counters = TableStats::default();
        self.ctable.traffic = [0; 3];
    }

    /// Clears all operation caches, every layer (not the unique tables).
    pub fn clear_caches(&mut self) {
        self.ct_mat_vec.clear();
        self.ct_vec_add.clear();
        self.ct_inner.clear();
        self.ct_excited.clear();
        self.ct_collapse.clear();
        self.epoch += 1;
    }

    /// Bounds every memoisation table: one whose layers since the mark grew
    /// beyond the limit loses them. The vector multiply and add caches, whose
    /// results may be scratch values, go together and take the scratch
    /// values since the mark with them. A trim invalidates the open
    /// checkpoints (see [`rollback`](Self::rollback)). Then drops the scratch
    /// values no cache entry refers to.
    pub(crate) fn maybe_trim_caches(&mut self) {
        let limit = self.cache_limit;
        let mut trimmed = self.ct_mat_vec.trim(limit) | self.ct_vec_add.trim(limit);
        if trimmed {
            self.ct_mat_vec.trim(0);
            self.ct_vec_add.trim(0);
            self.ctable.truncate_scratch(self.scratch_watermark);
        }
        self.ctable.release_scratch();
        trimmed |= self.ct_inner.trim(limit);
        trimmed |= self.ct_excited.trim(limit);
        trimmed |= self.ct_collapse.trim(limit);
        self.epoch += u64::from(trimmed);
    }

    // ------------------------------------------------------------------
    // Persistent / transient region management
    // ------------------------------------------------------------------

    /// Freezes the current package contents as the **persistent region**.
    ///
    /// Everything created so far — nodes, interned complex values — survives
    /// every subsequent [`reset_transient`](Self::reset_transient) call, and
    /// so does what the tables know about it: the unique tables and every
    /// memoised result move into an immutable **frozen layer** that copies
    /// of the package share. From then on a lookup whose key mentions only
    /// persistent ids consults the frozen layer first, so repeating what the
    /// template evaluated costs one probe; new entries go to a private live
    /// layer and die at the rewind — what a result is interned against
    /// depends on the table's history, so keeping one would make a warmed
    /// package differ from a fresh clone. Marking again extends the frozen
    /// layer. The matrix arena, which only operator construction grows, is
    /// shared by every copy (see `clone_from`) until one builds a matrix
    /// node after the mark.
    ///
    /// The compile phase of the simulator calls this once, after building
    /// all operator diagrams of a circuit and evaluating its error-free
    /// path.
    pub fn mark_persistent(&mut self) {
        self.vec_watermark = self.vec_nodes.len();
        self.mat_watermark = self.mat_nodes.len();
        self.complex_watermark = self.ctable.len();
        self.ctable.release_scratch();
        self.scratch_watermark = self.ctable.scratch.len();
        let weights = self.complex_watermark as u32;
        let seal = Age(self.vec_watermark as u32, weights);
        self.vec_unique.freeze(seal);
        (self.mat_unique).freeze(Age(self.mat_watermark as u32, weights));
        self.ct_mat_vec.freeze(seal);
        self.ct_vec_add.freeze(seal);
        self.ct_inner.freeze(seal);
        self.ct_excited.freeze(seal);
        self.ct_collapse.freeze(seal);
        debug_assert!(self.frozen_ids_are_persistent());
    }

    /// Opens a **checkpoint**: seals the live layer of every table a shot
    /// writes at the current arena and complex-table lengths and opens an
    /// empty one above it, for [`rollback`](Self::rollback) to return to.
    /// Checkpoints nest. A sealed layer holds only keys older than its seal,
    /// so a lookup probes it for those alone — the age rule the frozen layer
    /// applies at the watermarks. No matrix node may be built, and no mark
    /// or copy taken, while a checkpoint is open.
    pub fn checkpoint(&mut self) -> Checkpoint {
        debug_assert_eq!(self.mat_nodes.len(), self.mat_watermark);
        self.ctable.release_scratch();
        let (vec_nodes, complex_values) = (self.vec_nodes.len(), self.ctable.len());
        let seal = Age(vec_nodes as u32, complex_values as u32);
        self.vec_unique.seal(seal);
        self.ct_mat_vec.seal(seal);
        self.ct_vec_add.seal(seal);
        self.ct_inner.seal(seal);
        self.ct_excited.seal(seal);
        self.ct_collapse.seal(seal);
        Checkpoint {
            depth: self.ct_mat_vec.depth(),
            vec_nodes,
            complex_values,
            scratch_values: self.ctable.scratch.len(),
            epoch: self.epoch,
        }
    }

    /// Returns the package to its state at `checkpoint`, bit for bit, and
    /// says so: the arenas and the complex table are truncated to their
    /// lengths then and the newest layer of every table is dropped whole, at
    /// a cost that depends on the work since, not on what came before.
    ///
    /// Exact or not at all: a result found in a cache skips the nodes a
    /// recomputation makes and the child weights it interns for them, so a
    /// package that kept or lost one entry would intern differently from
    /// then on. After a trim (which
    /// empties the layers under the open checkpoints), a rewind or a copy,
    /// nothing is restored and `false` is returned; the caller starts over
    /// from the rewound template.
    ///
    /// # Panics
    ///
    /// Panics if an inner checkpoint is still open.
    pub fn rollback(&mut self, checkpoint: Checkpoint) -> bool {
        if checkpoint.epoch != self.epoch {
            return false;
        }
        assert_eq!(
            checkpoint.depth,
            self.ct_mat_vec.depth(),
            "inner checkpoint open"
        );
        self.vec_nodes.truncate(checkpoint.vec_nodes);
        self.vec_norms.truncate(checkpoint.vec_nodes);
        self.vec_bounds.truncate(checkpoint.vec_nodes);
        self.ctable.truncate(checkpoint.complex_values);
        self.ctable.truncate_scratch(checkpoint.scratch_values);
        self.vec_unique.unseal();
        self.ct_mat_vec.unseal();
        self.ct_vec_add.unseal();
        self.ct_inner.unseal();
        self.ct_excited.unseal();
        self.ct_collapse.unseal();
        true
    }

    /// Whether an id lies in the persistent region (the terminal does): one
    /// integer comparison with its watermark.
    pub(crate) fn vec_kept(&self, id: VecNodeId) -> bool {
        id.0.wrapping_add(1) as usize <= self.vec_watermark
    }

    pub(crate) fn mat_kept(&self, id: MatNodeId) -> bool {
        id.0.wrapping_add(1) as usize <= self.mat_watermark
    }

    pub(crate) fn weight_kept(&self, id: ComplexId) -> bool {
        (id.scratch_index()).map_or(id.index() < self.complex_watermark, |index| {
            index < self.scratch_watermark
        })
    }

    fn vec_edge_kept(&self, edge: &VecEdge) -> bool {
        self.vec_kept(edge.node) && self.weight_kept(edge.weight)
    }

    /// Whether every id a frozen entry mentions is persistent (a unique
    /// table's nodes were built before their ids, which settles their edges).
    fn frozen_ids_are_persistent(&self) -> bool {
        let (vec, weight) = (|id| self.vec_kept(id), |id| self.weight_kept(id));
        let edge = |e: &VecEdge| self.vec_edge_kept(e);
        let (nodes, mat_nodes) = (self.vec_unique.frozen(), self.mat_unique.frozen());
        let (mat_vec, vec_add) = (self.ct_mat_vec.frozen(), self.ct_vec_add.frozen());
        let (collapse, inner) = (self.ct_collapse.frozen(), self.ct_inner.frozen());
        let excited = self.ct_excited.frozen();
        (nodes.values()).all(|&id| vec(id))
            && (mat_nodes.values()).all(|&id| self.mat_kept(id))
            && (mat_vec.iter()).all(|(&(m, v), r)| self.mat_kept(m) && vec(v) && edge(r))
            && (vec_add.iter()).all(|(&(x, y, w), r)| vec(x) && vec(y) && weight(w) && edge(r))
            && (collapse.iter()).all(|(&(n, ..), r)| vec(n) && edge(r))
            && (inner.keys()).all(|&(a, b)| vec(a) && vec(b))
            && (excited.keys()).all(|&(n, ..)| vec(n))
    }

    /// Rolls the package back to the state frozen by
    /// [`mark_persistent`](Self::mark_persistent).
    ///
    /// All nodes and complex values created after the mark are forgotten
    /// (their ids become dangling — any [`VecEdge`] / [`MatEdge`] obtained
    /// after the mark must not be used again) and so is every table entry
    /// made since: the arenas are truncated at their watermarks and the
    /// live table layers (the sealed ones of open checkpoints too, which
    /// are closed) cleared, without visiting a node. The persistent
    /// diagrams and the frozen layer stay untouched: no hashing, no
    /// reconstruction, no freeing of their storage (a shared matrix arena
    /// is not even touched unless it grew past its watermark). Table and arena
    /// capacities are retained, so a shot loop that resets between shots
    /// stops allocating once it has warmed up.
    ///
    /// On a package without a mark this simply wipes everything back to the
    /// empty state.
    pub fn reset_transient(&mut self) {
        self.epoch += 1;
        self.vec_nodes.truncate(self.vec_watermark);
        self.vec_norms.truncate(self.vec_watermark);
        self.vec_bounds.truncate(self.vec_watermark);
        if self.mat_nodes.len() > self.mat_watermark {
            Arc::make_mut(&mut self.mat_nodes).truncate(self.mat_watermark);
            Arc::make_mut(&mut self.mat_identity).truncate(self.mat_watermark);
        }
        self.ctable.truncate(self.complex_watermark);
        self.ctable.truncate_scratch(self.scratch_watermark);
        self.visit_marks.truncate(self.vec_watermark);
        self.vec_unique.rewind();
        self.mat_unique.rewind();
        self.ct_mat_vec.rewind();
        self.ct_vec_add.rewind();
        self.ct_inner.rewind();
        self.ct_excited.rewind();
        self.ct_collapse.rewind();
    }

    /// Number of vector nodes in the transient region (created since the
    /// last [`mark_persistent`](Self::mark_persistent)).
    pub fn transient_vec_nodes(&self) -> usize {
        self.vec_nodes.len() - self.vec_watermark
    }

    /// `true` when no node or complex value has been created since the last
    /// [`mark_persistent`](Self::mark_persistent) — i.e. the package's
    /// diagram contents equal the frozen template exactly (memoisation
    /// caches may still hold entries; they never change computed values).
    pub fn transient_is_empty(&self) -> bool {
        self.vec_nodes.len() == self.vec_watermark
            && self.mat_nodes.len() == self.mat_watermark
            && self.ctable.len() == self.complex_watermark
    }

    // ------------------------------------------------------------------
    // Node construction with normalisation
    // ------------------------------------------------------------------

    /// Creates (or finds) a normalised vector node and returns the edge
    /// pointing to it.
    ///
    /// Normalisation divides both successor weights by the weight of largest
    /// magnitude and returns that factor as the weight of the produced edge,
    /// which keeps the representation canonical. Magnitudes equal up to the
    /// complex-table tolerance are a tie, resolved towards edge 0 (the rule
    /// `vec_add_rec` uses for its factor): after H or SWAP both successors
    /// carry the same modulus, and letting round-off pick the side would give
    /// one vector two nodes. An all-zero pair of successors collapses to the
    /// zero edge.
    pub fn make_vec_node(&mut self, var: u16, edges: [VecEdge; 2]) -> VecEdge {
        let mut edges = edges;
        for e in &mut edges {
            if e.weight.is_zero() {
                *e = VecEdge::zero();
            }
        }
        if edges[0].is_zero() && edges[1].is_zero() {
            return VecEdge::zero();
        }
        let mag0 = self.ctable.norm_sqr(edges[0].weight);
        let mag1 = self.ctable.norm_sqr(edges[1].weight);
        let norm_idx = usize::from(!self.ties_or_beats(mag0, mag1));
        let norm_weight = edges[norm_idx].weight;
        debug_assert!(!norm_weight.is_zero());
        let new_edges = [
            VecEdge {
                node: edges[0].node,
                weight: self.ctable.div(edges[0].weight, norm_weight),
            },
            VecEdge {
                node: edges[1].node,
                weight: self.ctable.div(edges[1].weight, norm_weight),
            },
        ];
        let node = VecNode {
            var,
            edges: new_edges,
        };
        let age =
            (new_edges.iter()).fold(Age::default(), |age, e| age.node(e.node.0).weight(e.weight));
        let id = match self.vec_unique.get(&node, age) {
            Some(&found) => {
                self.counters.vec_unique_hits += 1;
                found
            }
            None => {
                self.counters.vec_unique_misses += 1;
                let id = VecNodeId(node_index(self.vec_nodes.len()));
                let norm = (new_edges.iter().filter(|e| !e.is_zero())).fold(0.0, |total, e| {
                    total + self.ctable.norm_sqr(e.weight) * self.node_norm(e.node)
                });
                let [low, high] = new_edges.map(|e| self.vec_size_bound(e));
                let shared = new_edges[0].node == new_edges[1].node;
                let bound = 1 + low + if shared { 0 } else { high };
                self.vec_nodes.push(node);
                self.vec_norms.push(norm);
                self.vec_bounds.push(bound.min(u64::from(u32::MAX)) as u32);
                self.vec_unique.live.insert(node, id);
                id
            }
        };
        VecEdge {
            node: id,
            weight: norm_weight,
        }
    }

    /// Creates (or finds) a normalised matrix node and returns the edge
    /// pointing to it.
    ///
    /// The normalisation rule mirrors [`DdPackage::make_vec_node`] over the
    /// four quadrant edges (ties resolved towards the lowest index).
    pub fn make_mat_node(&mut self, var: u16, edges: [MatEdge; 4]) -> MatEdge {
        let mut edges = edges;
        for e in &mut edges {
            if e.weight.is_zero() {
                *e = MatEdge::zero();
            }
        }
        if edges.iter().all(|e| e.is_zero()) {
            return MatEdge::zero();
        }
        let mut norm_idx = 0;
        let mut best = self.ctable.norm_sqr(edges[0].weight);
        for (i, e) in edges.iter().enumerate().skip(1) {
            let mag = self.ctable.norm_sqr(e.weight);
            if !self.ties_or_beats(best, mag) {
                best = mag;
                norm_idx = i;
            }
        }
        let norm_weight = edges[norm_idx].weight;
        debug_assert!(!norm_weight.is_zero());
        let mut new_edges = [MatEdge::zero(); 4];
        for i in 0..4 {
            new_edges[i] = MatEdge {
                node: edges[i].node,
                weight: self.ctable.div(edges[i].weight, norm_weight),
            };
        }
        let node = MatNode {
            var,
            edges: new_edges,
        };
        let age =
            (new_edges.iter()).fold(Age::default(), |age, e| age.node(e.node.0).weight(e.weight));
        let id = match self.mat_unique.get(&node, age) {
            Some(&found) => {
                self.counters.mat_unique_hits += 1;
                found
            }
            None => {
                self.counters.mat_unique_misses += 1;
                let id = MatNodeId(node_index(self.mat_nodes.len()));
                // Identity on this level and below: off-diagonal quadrants
                // empty, both diagonal quadrants the same weight-one edge
                // into the terminal or another identity node.
                let [diag, upper, lower, diag_one] = node.edges;
                let identity = upper.is_zero()
                    && lower.is_zero()
                    && diag == diag_one
                    && diag.weight.is_one()
                    && (diag.node.is_terminal() || self.mat_identity[diag.node.index()]);
                Arc::make_mut(&mut self.mat_nodes).push(node);
                Arc::make_mut(&mut self.mat_identity).push(identity);
                self.mat_unique.live.insert(node, id);
                id
            }
        };
        MatEdge {
            node: id,
            weight: norm_weight,
        }
    }

    /// Whether a weight of squared modulus `mag` normalises a node ahead of
    /// one of `other`: it is larger, or equal up to the table tolerance.
    fn ties_or_beats(&self, mag: f64, other: f64) -> bool {
        mag >= other || other - mag <= self.ctable.tolerance() * (mag + other)
    }

    /// Squared norm of the sub-vector below `node` with a unit incoming
    /// weight: node data, read in O(1).
    #[inline]
    pub(crate) fn node_norm(&self, node: VecNodeId) -> f64 {
        if node.is_terminal() {
            1.0
        } else {
            self.vec_norms[node.index()]
        }
    }

    // ------------------------------------------------------------------
    // State constructors
    // ------------------------------------------------------------------

    /// The `n`-qubit all-zero computational basis state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or larger than `u16::MAX`.
    pub fn zero_state(&mut self, n: usize) -> VecEdge {
        self.basis_state_from_fn(n, |_| false)
    }

    /// The computational basis state selected by `bits`, where `bits[q]` is
    /// the value of qubit `q` (qubit 0 is the most significant).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != n` or `n == 0`.
    pub fn basis_state(&mut self, n: usize, bits: &[bool]) -> VecEdge {
        assert_eq!(bits.len(), n, "bits length must equal qubit count");
        self.basis_state_from_fn(n, |q| bits[q])
    }

    /// The computational basis state with index `index` (qubit 0 = most
    /// significant bit of the index, as in the paper's state-vector layout).
    pub fn basis_state_from_index(&mut self, n: usize, index: u64) -> VecEdge {
        assert!((1..=64).contains(&n), "qubit count must be within 1..=64");
        self.basis_state_from_fn(n, |q| (index >> (n - 1 - q)) & 1 == 1)
    }

    fn basis_state_from_fn(&mut self, n: usize, bit: impl Fn(usize) -> bool) -> VecEdge {
        assert!(n >= 1, "state must contain at least one qubit");
        assert!(n <= u16::MAX as usize, "qubit count exceeds u16 range");
        let mut edge = VecEdge::one();
        for var in (0..n).rev() {
            let mut children = [VecEdge::zero(); 2];
            children[usize::from(bit(var))] = edge;
            edge = self.make_vec_node(var as u16, children);
        }
        edge
    }

    // ------------------------------------------------------------------
    // Operator constructors
    // ------------------------------------------------------------------

    /// The identity operator on `n` qubits.
    pub fn identity_op(&mut self, n: usize) -> MatEdge {
        self.kron_operator(n, &[])
    }

    /// A single-qubit operator `m` acting on `target`, identity elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `target >= n`.
    pub fn single_qubit_op(&mut self, n: usize, target: usize, m: Matrix2) -> MatEdge {
        assert!(target < n, "target qubit out of range");
        self.kron_operator(n, &[(target, m)])
    }

    /// A Kronecker-product operator: `m_q` on each qubit `q` listed in
    /// `assignments`, identity on every other qubit.
    ///
    /// # Panics
    ///
    /// Panics if an assigned qubit index is out of range or repeated.
    pub fn kron_operator(&mut self, n: usize, assignments: &[(usize, Matrix2)]) -> MatEdge {
        assert!(n >= 1, "operator must act on at least one qubit");
        assert!(n <= u16::MAX as usize, "qubit count exceeds u16 range");
        for (i, (q, _)) in assignments.iter().enumerate() {
            assert!(*q < n, "assigned qubit {q} out of range for {n} qubits");
            assert!(
                assignments[i + 1..].iter().all(|(other, _)| other != q),
                "qubit {q} assigned twice"
            );
        }
        let mut edge = MatEdge::one();
        for var in (0..n).rev() {
            let m = assignments
                .iter()
                .find(|(q, _)| *q == var)
                .map(|(_, m)| *m)
                .unwrap_or_else(Matrix2::identity);
            edge = self.stack_mat_level(var as u16, &m, edge);
        }
        edge
    }

    /// A (multi-)controlled single-qubit operator: `m` is applied to `target`
    /// when all `controls` are `|1>`, otherwise the state is unchanged.
    ///
    /// Uses the decomposition `U = I + P1(controls) ⊗ (m - I)(target)`, which
    /// keeps the construction cost linear in the number of qubits.
    ///
    /// # Panics
    ///
    /// Panics if `target` or any control is out of range, or if `target`
    /// appears in `controls`.
    pub fn controlled_op(
        &mut self,
        n: usize,
        target: usize,
        controls: &[usize],
        m: Matrix2,
    ) -> MatEdge {
        assert!(target < n, "target qubit out of range");
        assert!(
            !controls.contains(&target),
            "target qubit cannot also be a control"
        );
        if controls.is_empty() {
            return self.single_qubit_op(n, target, m);
        }
        let mut assignments = Vec::with_capacity(controls.len() + 1);
        assignments.push((target, m.sub(&Matrix2::identity())));
        for &c in controls {
            assert!(c < n, "control qubit out of range");
            assignments.push((c, Matrix2::projector_one()));
        }
        let difference = self.kron_operator(n, &assignments);
        let identity = self.identity_op(n);
        self.mat_add(identity, difference)
    }

    /// A SWAP operator between qubits `a` and `b`.
    ///
    /// Built as the sum of the four transfer terms
    /// `|00><00| + |01><10| + |10><01| + |11><11|`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn swap_op(&mut self, n: usize, a: usize, b: usize) -> MatEdge {
        assert_ne!(a, b, "swap requires two distinct qubits");
        assert!(a < n && b < n, "swap qubit out of range");
        let p0 = Matrix2::projector_zero();
        let p1 = Matrix2::projector_one();
        let raise = Matrix2::from_real(0.0, 1.0, 0.0, 0.0); // |0><1|
        let lower = Matrix2::from_real(0.0, 0.0, 1.0, 0.0); // |1><0|
        let t00 = self.kron_operator(n, &[(a, p0), (b, p0)]);
        let t01 = self.kron_operator(n, &[(a, raise), (b, lower)]);
        let t10 = self.kron_operator(n, &[(a, lower), (b, raise)]);
        let t11 = self.kron_operator(n, &[(a, p1), (b, p1)]);
        let s = self.mat_add(t00, t01);
        let s = self.mat_add(s, t10);
        self.mat_add(s, t11)
    }

    /// Adds two matrix diagrams element-wise: the controlled and SWAP
    /// operators above are sums of Kronecker terms. One pass with a memo of
    /// its own, keyed on the ordered operand pair, which keeps the recursion
    /// linear where both operands repeat one node on both diagonal quadrants.
    /// A gate's sum meets about two pairs per qubit; the memo starts sized
    /// for that, as regrowing it from empty cost a QFT-16 compile 6 %.
    fn mat_add(&mut self, a: MatEdge, b: MatEdge) -> MatEdge {
        let mut memo = FxHashMap::with_capacity_and_hasher(64, Default::default());
        self.mat_add_rec(a, b, &mut memo)
    }

    fn mat_add_rec(
        &mut self,
        a: MatEdge,
        b: MatEdge,
        memo: &mut FxHashMap<(MatEdge, MatEdge), MatEdge>,
    ) -> MatEdge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node.is_terminal() && b.node.is_terminal() {
            let w = self.ctable.add(a.weight, b.weight);
            return MatEdge::terminal(w);
        }
        debug_assert!(
            !a.node.is_terminal() && !b.node.is_terminal(),
            "cannot add matrices of different heights"
        );
        let (x, y) = if (a.node, a.weight) <= (b.node, b.weight) {
            (a, b)
        } else {
            (b, a)
        };
        if let Some(&sum) = memo.get(&(x, y)) {
            return sum;
        }
        let xn = self.mat_nodes[x.node.index()];
        let yn = self.mat_nodes[y.node.index()];
        debug_assert_eq!(xn.var, yn.var, "operands decide different qubits");
        let mut children = [MatEdge::zero(); 4];
        for (i, child) in children.iter_mut().enumerate() {
            let ex = MatEdge {
                node: xn.edges[i].node,
                weight: self.ctable.mul(x.weight, xn.edges[i].weight),
            };
            let ey = MatEdge {
                node: yn.edges[i].node,
                weight: self.ctable.mul(y.weight, yn.edges[i].weight),
            };
            *child = self.mat_add_rec(ex, ey, memo);
        }
        let sum = self.make_mat_node(xn.var, children);
        memo.insert((x, y), sum);
        sum
    }

    /// `(⊗_{q ∈ qubits} diag(1, factor))·m`: scales every row of `m` by
    /// `factor` once per listed qubit that is `|1>` in it.
    ///
    /// One pass over the diagram with a memo of its own and no
    /// matrix-matrix multiply: a node deciding a listed qubit has its
    /// lower-row quadrants scaled, and the levels below the deepest listed
    /// qubit are shared, not rebuilt. The simulator folds the no-decay
    /// branch of amplitude damping, `diag(1, √(1−γ))` on every qubit a gate
    /// touched, into the gate this way.
    pub fn scale_rows(&mut self, m: MatEdge, qubits: &[usize], factor: f64) -> MatEdge {
        let factor = self.ctable.lookup(Complex::real(factor));
        self.scale_rows_rec(m, qubits, factor, &mut FxHashMap::default())
    }

    fn scale_rows_rec(
        &mut self,
        m: MatEdge,
        qubits: &[usize],
        factor: ComplexId,
        memo: &mut FxHashMap<MatNodeId, MatEdge>,
    ) -> MatEdge {
        if m.is_zero() || m.node.is_terminal() {
            return m;
        }
        let node = self.mat_nodes[m.node.index()];
        let var = usize::from(node.var);
        if qubits.iter().all(|&q| q < var) {
            return m;
        }
        let scaled = match memo.get(&m.node) {
            Some(&scaled) => scaled,
            None => {
                let mut edges = node.edges;
                for (quadrant, edge) in edges.iter_mut().enumerate() {
                    *edge = self.scale_rows_rec(*edge, qubits, factor, memo);
                    if quadrant >= 2 && qubits.contains(&var) {
                        edge.weight = self.ctable.mul(edge.weight, factor);
                    }
                }
                let scaled = self.make_mat_node(node.var, edges);
                memo.insert(m.node, scaled);
                scaled
            }
        };
        MatEdge {
            node: scaled.node,
            weight: self.ctable.mul(m.weight, scaled.weight),
        }
    }

    fn stack_mat_level(&mut self, var: u16, m: &Matrix2, below: MatEdge) -> MatEdge {
        let mut edges = [MatEdge::zero(); 4];
        for r in 0..2 {
            for c in 0..2 {
                let entry = m.entry(r, c);
                if entry.is_zero() || below.is_zero() {
                    continue;
                }
                let w = self.ctable.lookup(entry);
                let weight = self.ctable.mul(w, below.weight);
                edges[2 * r + c] = MatEdge {
                    node: below.node,
                    weight,
                };
            }
        }
        self.make_mat_node(var, edges)
    }
}

impl Default for DdPackage {
    fn default() -> Self {
        DdPackage::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_state_amplitudes() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(3);
        let v = dd.to_statevector(s, 3);
        assert!((v[0].re - 1.0).abs() < 1e-12);
        assert!(v[1..].iter().all(|a| a.abs() < 1e-12));
    }

    #[test]
    fn basis_state_round_trip() {
        let mut dd = DdPackage::new();
        for idx in 0..8u64 {
            let s = dd.basis_state_from_index(3, idx);
            let v = dd.to_statevector(s, 3);
            for (i, amp) in v.iter().enumerate() {
                let expected = if i as u64 == idx { 1.0 } else { 0.0 };
                assert!((amp.re - expected).abs() < 1e-12, "index {idx} entry {i}");
                assert!(amp.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn basis_state_bits_and_index_agree() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(3, &[true, false, true]); // |101> -> index 5
        let b = dd.basis_state_from_index(3, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn equal_states_share_nodes() {
        let mut dd = DdPackage::new();
        let a = dd.zero_state(4);
        let b = dd.zero_state(4);
        assert_eq!(a, b);
        // Only four nodes for four qubits: maximal sharing.
        assert_eq!(dd.stats().vec_nodes, 4);
    }

    #[test]
    fn make_vec_node_normalises_to_unit_max_weight() {
        let mut dd = DdPackage::new();
        let half = dd.lookup_complex(Complex::real(0.5));
        let quarter = dd.lookup_complex(Complex::real(0.25));
        let e = dd.make_vec_node(0, [VecEdge::terminal(half), VecEdge::terminal(quarter)]);
        // The larger weight (0.5) is pulled out.
        assert!(dd
            .complex_value(e.weight)
            .approx_eq(Complex::real(0.5), 1e-12));
        let node = dd.vec_node(e.node);
        assert!(node.edges[0].weight.is_one());
        assert!(dd
            .complex_value(node.edges[1].weight)
            .approx_eq(Complex::real(0.5), 1e-12));
    }

    #[test]
    fn make_vec_node_all_zero_collapses() {
        let mut dd = DdPackage::new();
        let e = dd.make_vec_node(0, [VecEdge::zero(), VecEdge::zero()]);
        assert!(e.is_zero());
    }

    #[test]
    fn identity_operator_preserves_states() {
        let mut dd = DdPackage::new();
        let id = dd.identity_op(3);
        let s = dd.basis_state_from_index(3, 6);
        let t = dd.mat_vec_mul(id, s);
        assert_eq!(s, t);
    }

    #[test]
    fn single_qubit_x_flips_the_right_qubit() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(3);
        let x1 = dd.single_qubit_op(3, 1, Matrix2::pauli_x());
        let t = dd.mat_vec_mul(x1, s);
        // Flipping qubit 1 (middle) of |000> gives |010> = index 2.
        let v = dd.to_statevector(t, 3);
        assert!((v[2].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_x_only_fires_when_control_set() {
        let mut dd = DdPackage::new();
        let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
        let s00 = dd.zero_state(2);
        let t = dd.mat_vec_mul(cx, s00);
        assert_eq!(t, s00, "CX must not act when control is |0>");
        let s10 = dd.basis_state_from_index(2, 2);
        let t = dd.mat_vec_mul(cx, s10);
        let expected = dd.basis_state_from_index(2, 3);
        assert_eq!(t, expected, "CX must flip target when control is |1>");
    }

    #[test]
    fn toffoli_matches_truth_table() {
        let mut dd = DdPackage::new();
        let ccx = dd.controlled_op(3, 2, &[0, 1], Matrix2::pauli_x());
        for idx in 0..8u64 {
            let s = dd.basis_state_from_index(3, idx);
            let t = dd.mat_vec_mul(ccx, s);
            let expected_idx = if idx >> 1 == 3 { idx ^ 1 } else { idx };
            let expected = dd.basis_state_from_index(3, expected_idx);
            assert_eq!(t, expected, "input index {idx}");
        }
    }

    #[test]
    fn swap_operator_exchanges_qubits() {
        let mut dd = DdPackage::new();
        let swap = dd.swap_op(3, 0, 2);
        for idx in 0..8u64 {
            let s = dd.basis_state_from_index(3, idx);
            let t = dd.mat_vec_mul(swap, s);
            let b0 = (idx >> 2) & 1;
            let b2 = idx & 1;
            let swapped = (idx & 0b010) | (b2 << 2) | b0;
            let expected = dd.basis_state_from_index(3, swapped);
            assert_eq!(t, expected, "input index {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "target qubit out of range")]
    fn out_of_range_target_panics() {
        let mut dd = DdPackage::new();
        let _ = dd.single_qubit_op(2, 2, Matrix2::pauli_x());
    }

    #[test]
    #[should_panic(expected = "qubit 1 assigned twice")]
    fn duplicate_assignment_panics() {
        let mut dd = DdPackage::new();
        let _ = dd.kron_operator(3, &[(1, Matrix2::pauli_x()), (1, Matrix2::pauli_z())]);
    }

    /// Runs a small "shot": H on qubit 0, CX 0->1, returns the final edge.
    fn evolve_bell(dd: &mut DdPackage, h: MatEdge, cx: MatEdge) -> VecEdge {
        let s = dd.zero_state(2);
        let s = dd.mat_vec_mul(h, s);
        dd.mat_vec_mul(cx, s)
    }

    #[test]
    fn reset_transient_restores_the_marked_state_exactly() {
        let mut dd = DdPackage::new();
        let h = dd.single_qubit_op(2, 0, Matrix2::hadamard());
        let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
        dd.mark_persistent();
        let marked = dd.stats();
        let marked_complex = dd.complex_table().len();

        // A pristine clone is the reference for what a "fresh" package with
        // the same compiled operators computes.
        let mut fresh = dd.clone();
        let reference = evolve_bell(&mut fresh, h, cx);

        let first = evolve_bell(&mut dd, h, cx);
        assert_eq!(first, reference);
        assert!(dd.transient_vec_nodes() > 0);

        dd.reset_transient();
        assert_eq!(dd.stats().vec_nodes, marked.vec_nodes);
        assert_eq!(dd.stats().mat_nodes, marked.mat_nodes);
        assert_eq!(dd.complex_table().len(), marked_complex);
        assert_eq!(dd.transient_vec_nodes(), 0);
        assert_eq!(dd.stats().mat_vec_cache, 0);

        // Replaying the same shot after the rollback reproduces the exact
        // same edges (ids and weights), i.e. reuse is unobservable.
        let replay = evolve_bell(&mut dd, h, cx);
        assert_eq!(replay, reference);

        // The same with a template that evaluated its error-free path
        // before the mark, so lookups are answered from the frozen layer:
        // a rewound package and a fresh clone agree on every counter, node
        // id and interned bit after a shot with an error in it.
        let (mut dd, ops) = ghz_template(4);
        assert!(dd.stats().frozen_entries > 0);
        let template = dd.clone();
        let mut fresh = dd.clone();
        let reference = noisy_shot(&mut fresh, &ops);
        let values = |dd: &DdPackage| -> Vec<(u64, u64)> {
            (0..dd.ctable.len() as u32)
                .map(|id| dd.complex_value(ComplexId(id)))
                .map(|value| (value.re.to_bits(), value.im.to_bits()))
                .collect()
        };
        for _ in 0..3 {
            assert_eq!(noisy_shot(&mut dd, &ops), reference);
            assert!(dd.transient_vec_nodes() > 0);
            assert_eq!(dd.stats(), fresh.stats());
            assert_eq!(values(&dd), values(&fresh));
            assert_eq!(dd.vec_nodes, fresh.vec_nodes);
            dd.reset_transient();
            assert_eq!(dd.stats(), template.stats());
        }
    }

    /// The operators of a noisy GHZ-`n` shot: H, the CX chain, a bit flip
    /// and the amplitude-damping keep branch on qubit 1.
    struct GhzOps {
        n: usize,
        gates: Vec<MatEdge>,
        flip: MatEdge,
        keep: MatEdge,
    }

    /// A marked template that evaluated the error-free GHZ path (with its
    /// damping exposure and the measures a shot takes) before the mark.
    fn ghz_template(n: usize) -> (DdPackage, GhzOps) {
        let mut dd = DdPackage::new();
        let mut gates = vec![dd.single_qubit_op(n, 0, Matrix2::hadamard())];
        for target in 1..n {
            gates.push(dd.controlled_op(n, target, &[target - 1], Matrix2::pauli_x()));
        }
        let ops = GhzOps {
            n,
            gates,
            flip: dd.single_qubit_op(n, 1, Matrix2::pauli_x()),
            keep: dd.single_qubit_op(n, 1, Matrix2::amplitude_damping_a1(0.002)),
        };
        shot(&mut dd, &ops, None);
        dd.mark_persistent();
        (dd, ops)
    }

    /// One shot from `|0...0>`: the gates, `flip_after` one of them the bit
    /// flip, then the keep branch, a threshold read, an addition and a
    /// projection. Returns every edge and number it computed.
    fn shot(
        dd: &mut DdPackage,
        ops: &GhzOps,
        flip_after: Option<usize>,
    ) -> (Vec<VecEdge>, [f64; 2]) {
        let zero = dd.zero_state(ops.n);
        let mut edges = vec![zero];
        let mut state = zero;
        for (index, gate) in ops.gates.iter().enumerate() {
            state = dd.mat_vec_mul(*gate, state);
            if flip_after == Some(index) {
                state = dd.mat_vec_mul(ops.flip, state);
            }
            edges.push(state);
        }
        let excited = dd.excited_norm_sqr(state, 1);
        let (kept_norm, kept) = dd.apply_kraus(ops.keep, state);
        edges.push(kept);
        edges.push(dd.vec_add(zero, kept));
        edges.push(dd.project(kept, ops.n - 1, true));
        (edges, [excited, kept_norm])
    }

    fn noisy_shot(dd: &mut DdPackage, ops: &GhzOps) -> (Vec<VecEdge>, [f64; 2]) {
        shot(dd, ops, Some(1))
    }

    /// Everything a rollback must restore, bit for bit.
    #[allow(clippy::type_complexity)]
    fn contents(
        dd: &DdPackage,
    ) -> (
        PackageStats,
        Vec<VecNode>,
        Vec<u64>,
        Vec<u32>,
        Vec<(u64, u64)>,
    ) {
        let values = (0..dd.ctable.len() as u32).map(|id| dd.complex_value(ComplexId(id)));
        (
            dd.stats(),
            dd.vec_nodes.clone(),
            dd.vec_norms.iter().map(|norm| norm.to_bits()).collect(),
            dd.vec_bounds.clone(),
            values.map(|v| (v.re.to_bits(), v.im.to_bits())).collect(),
        )
    }

    #[test]
    fn rollback_restores_the_checkpointed_package_exactly() {
        let (template, ops) = ghz_template(4);
        // Three checkpoints deep, a different shot before each and inside
        // the innermost; the twin does the same shots and never forks.
        // Each shot interns a value of its own too.
        let work = |dd: &mut DdPackage, level: usize| {
            let own = dd.lookup_complex(Complex::new(0.3, 0.01 * level as f64 + 0.001));
            (shot(dd, &ops, Some(level)), own)
        };
        let (mut dd, mut twin) = (template.clone(), template.clone());
        let mut opened = Vec::new();
        for level in 0..3 {
            assert_eq!(work(&mut dd, level), work(&mut twin, level));
            opened.push((dd.checkpoint(), twin.clone()));
        }
        let _ = work(&mut dd, 3);
        for (checkpoint, mut twin) in opened.into_iter().rev() {
            assert!(dd.rollback(checkpoint));
            assert_eq!(contents(&dd), contents(&twin));
            // The same follow-up work: the same edges, numbers and traffic.
            let before = (dd.table_stats(), twin.table_stats());
            assert_eq!(noisy_shot(&mut dd, &ops), noisy_shot(&mut twin, &ops));
            let traffic = dd.table_stats().since(&before.0);
            assert_eq!(traffic, twin.table_stats().since(&before.1));
            assert_eq!(contents(&dd), contents(&twin));
        }

        // A rewind with checkpoints open is the template again.
        let mut fresh = template.clone();
        let _ = dd.checkpoint();
        let _ = noisy_shot(&mut dd, &ops);
        let _ = dd.checkpoint();
        dd.reset_transient();
        assert_eq!(contents(&dd), contents(&fresh));
        let before = (dd.table_stats(), fresh.table_stats());
        assert_eq!(noisy_shot(&mut dd, &ops), noisy_shot(&mut fresh, &ops));
        let traffic = dd.table_stats().since(&before.0);
        assert_eq!(traffic, fresh.table_stats().since(&before.1));

        // A trim inside a checkpoint empties the layers below it: the
        // rollback says so instead of restoring half a package.
        dd.reset_transient();
        let checkpoint = dd.checkpoint();
        dd.set_cache_limit(1);
        let _ = noisy_shot(&mut dd, &ops);
        assert!(!dd.rollback(checkpoint));
        dd.reset_transient();
        let checkpoint = dd.checkpoint();
        assert!(dd.rollback(checkpoint));
    }

    /// One step of a random interleaving on a forked package.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Checkpoint,
        Gate(usize),
        Kraus(bool),
        Rollback,
        Trim,
        Rewind,
    }

    fn step((kind, arg): (u8, usize)) -> Step {
        match kind {
            0 | 1 => Step::Checkpoint,
            2 | 3 => Step::Gate(arg),
            4 => Step::Kraus(arg % 2 == 0),
            5 | 6 => Step::Rollback,
            7 => Step::Trim,
            _ => Step::Rewind,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn random_forks_roll_back_to_a_never_forked_twin(
            steps in collection::vec((0..9u8, 0..64usize), 1..48),
        ) {
            // The forked package runs every step; the twin runs the same
            // work but never opens a checkpoint — at a rollback it returns
            // to a copy taken when the checkpoint opened.
            let (template, ops) = ghz_template(5);
            let decay = ops.gates.len();
            let mut kraus = template.clone();
            let decay_op = kraus.single_qubit_op(5, 2, Matrix2::amplitude_damping_a0(0.3));
            let keep_op = kraus.single_qubit_op(5, 2, Matrix2::amplitude_damping_a1(0.3));
            kraus.mark_persistent();
            let (mut dd, mut twin) = (kraus.clone(), kraus.clone());
            let zero = dd.zero_state(ops.n);
            let (mut state, mut twin_state) = (zero, zero);
            // Open checkpoints: the mark, the twin and state then, and
            // whether a trim or a rewind intervened since.
            let mut open: Vec<(Checkpoint, DdPackage, VecEdge, bool)> = Vec::new();
            for step in steps.into_iter().map(step) {
                match step {
                    Step::Checkpoint if open.len() < 4 => {
                        open.push((dd.checkpoint(), twin.clone(), state, false));
                    }
                    Step::Checkpoint => {}
                    Step::Gate(arg) => {
                        let gate = match arg % (decay + 1) {
                            g if g < decay => ops.gates[g],
                            _ => ops.flip,
                        };
                        state = dd.mat_vec_mul(gate, state);
                        twin_state = twin.mat_vec_mul(gate, twin_state);
                    }
                    Step::Kraus(decays) => {
                        let op = if decays { decay_op } else { keep_op };
                        let ((p, next), (twin_p, twin_next)) =
                            (dd.apply_kraus(op, state), twin.apply_kraus(op, twin_state));
                        prop_assert_eq!(p.to_bits(), twin_p.to_bits());
                        // A decayed-away branch is zero: start over from |0...0>.
                        (state, twin_state) = match next.is_zero() {
                            true => (zero, zero),
                            false => (next, twin_next),
                        };
                    }
                    Step::Rollback => {
                        let Some((checkpoint, saved, saved_state, intervened)) = open.pop() else {
                            continue;
                        };
                        let restored = dd.rollback(checkpoint);
                        prop_assert_eq!(restored, !intervened);
                        if restored {
                            (twin, twin_state, state) = (saved, saved_state, saved_state);
                        } else {
                            // The caller starts over from the rewound template.
                            dd.reset_transient();
                            twin.reset_transient();
                            (state, twin_state) = (zero, zero);
                            open.iter_mut().for_each(|entry| entry.3 = true);
                        }
                    }
                    Step::Trim => {
                        let live = dd.stats();
                        let trims = live.mat_vec_cache > 1 || live.vec_add_cache > 1;
                        dd.set_cache_limit(1);
                        twin.set_cache_limit(1);
                        state = dd.mat_vec_mul(ops.gates[0], state);
                        twin_state = twin.mat_vec_mul(ops.gates[0], twin_state);
                        dd.set_cache_limit(DEFAULT_CACHE_LIMIT);
                        twin.set_cache_limit(DEFAULT_CACHE_LIMIT);
                        open.iter_mut().for_each(|entry| entry.3 |= trims);
                    }
                    Step::Rewind => {
                        dd.reset_transient();
                        twin.reset_transient();
                        (state, twin_state) = (zero, zero);
                        open.iter_mut().for_each(|entry| entry.3 = true);
                    }
                }
                // Node for node, weights bit for bit.
                prop_assert_eq!(state, twin_state);
                prop_assert_eq!(contents(&dd), contents(&twin));
            }
        }
    }

    #[test]
    fn repeating_what_the_template_evaluated_costs_no_work() {
        let (mut dd, ops) = ghz_template(6);
        let template = (dd.stats(), dd.table_stats());
        // The error-free shot again: every multiply, add, norm, threshold
        // and projection is a frozen hit — no miss, no node, no value, no
        // live entry.
        let _ = shot(&mut dd, &ops, None);
        let traffic = dd.table_stats().since(&template.1);
        assert!(traffic.compute_hits > 0 && traffic.vec_unique_hits > 0);
        assert_eq!((traffic.compute_misses, traffic.vec_unique_misses), (0, 0));
        assert_eq!(dd.stats(), template.0);
        assert!(dd.transient_is_empty());

        // With an error after the second gate only the levels above it are
        // new: the shot costs less than on cold tables ...
        let mut cold = dd.clone();
        cold.clear_caches();
        let before = (dd.table_stats(), cold.table_stats());
        assert_eq!(noisy_shot(&mut dd, &ops).1, noisy_shot(&mut cold, &ops).1);
        let warm_misses = dd.table_stats().since(&before.0).compute_misses;
        let cold_misses = cold.table_stats().since(&before.1).compute_misses;
        assert!(0 < warm_misses && warm_misses < cold_misses);

        // ... while a state the template never met, transient from the
        // top node down, costs what it costs without a frozen compute
        // layer: its keys probe the live maps alone.
        dd.reset_transient();
        cold.reset_transient();
        let before = (dd.table_stats(), cold.table_stats());
        for package in [&mut dd, &mut cold] {
            let mut state = package.basis_state_from_index(ops.n, 0b101101);
            for gate in &ops.gates {
                state = package.mat_vec_mul(*gate, state);
            }
            let zero = package.zero_state(ops.n);
            let _ = package.vec_add(state, zero);
        }
        let warm = dd.table_stats().since(&before.0);
        assert!(warm.compute_misses > 0);
        assert_eq!(warm, cold.table_stats().since(&before.1));
    }

    #[test]
    fn marking_twice_extends_the_frozen_layer() {
        let (mut dd, ops) = ghz_template(5);
        let first = dd.stats().frozen_entries;
        let sibling = dd.clone();
        let reference = noisy_shot(&mut dd, &ops);
        let live = dd.stats().mat_vec_cache;
        assert!(live > 0);
        dd.mark_persistent();
        // Old ∪ new, in this package only: the sibling keeps the layer it
        // shared before.
        assert!(dd.stats().frozen_entries >= first + live);
        assert_eq!(dd.stats().mat_vec_cache, 0);
        assert_eq!(sibling.stats().frozen_entries, first);
        // The noisy shot is part of the template now, and stays across
        // rewinds; the first template's entries are still there.
        for _ in 0..2 {
            let before = (dd.stats(), dd.table_stats());
            assert_eq!(noisy_shot(&mut dd, &ops), reference);
            let _ = shot(&mut dd, &ops, None);
            assert_eq!(dd.table_stats().since(&before.1).compute_misses, 0);
            assert_eq!(dd.stats(), before.0);
            dd.reset_transient();
        }
    }

    #[test]
    fn reset_transient_without_a_mark_wipes_everything() {
        let mut dd = DdPackage::new();
        let _ = dd.zero_state(3);
        let _ = dd.single_qubit_op(3, 1, Matrix2::hadamard());
        dd.reset_transient();
        assert_eq!(dd.stats().vec_nodes, 0);
        assert_eq!(dd.stats().mat_nodes, 0);
        // Only the canonical 0 and 1 survive in the complex table.
        assert_eq!(dd.complex_table().len(), 2);
    }

    #[test]
    fn transient_nodes_identical_to_persistent_ones_are_reunified() {
        let mut dd = DdPackage::new();
        let persistent = dd.zero_state(4);
        dd.mark_persistent();
        // Recreating the same state after the mark must find the persistent
        // nodes, not duplicate them ...
        let again = dd.zero_state(4);
        assert_eq!(again, persistent);
        assert_eq!(dd.transient_vec_nodes(), 0);
        // ... and resetting must keep them valid.
        dd.reset_transient();
        let after_reset = dd.zero_state(4);
        assert_eq!(after_reset, persistent);
    }

    #[test]
    fn scratch_values_stay_bounded_by_the_trims() {
        // Thousands of gates on one package, never rewound, past a small
        // cache limit: the scratch values go with the multiply and add
        // cache entries that may refer to them, and a call leaves none
        // behind that no entry refers to.
        let n = 6;
        let mut dd = DdPackage::new();
        let mut gates = Vec::new();
        for q in 0..n {
            let u = Matrix2::u3(0.3 + q as f64, 0.7, 1.1 * q as f64);
            gates.push(dd.single_qubit_op(n, q, u));
            gates.push(dd.controlled_op(n, (q + 1) % n, &[q], u));
        }
        dd.set_cache_limit(64);
        let mut state = dd.zero_state(n);
        let (mut pushed, mut most) = (0, 0);
        for _ in 0..100 {
            for &gate in &gates {
                let before = dd.ctable.scratch.len();
                state = dd.mat_vec_mul(gate, state);
                pushed += dd.ctable.scratch.len().saturating_sub(before);
                most = most.max(dd.ctable.scratch.len());
            }
        }
        // 408 at most; the gates pushed 64 548.
        assert!(most <= 16 * 64, "{most} scratch values held");
        assert!(pushed >= 20 * most, "only {pushed} scratch values pushed");
        assert!((dd.norm_sqr(state) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trim_clears_only_the_oversized_table() {
        let mut dd = DdPackage::new();
        // Grow the mat-vec cache while the add cache stays small: multiply
        // distinct single-qubit ops onto distinct states. The limit is
        // lowered only afterwards so the loop itself never trims.
        let mut states = Vec::new();
        for idx in 0..6u64 {
            let s = dd.basis_state_from_index(3, idx);
            let op = dd.single_qubit_op(3, (idx % 3) as usize, Matrix2::hadamard());
            states.push(dd.mat_vec_mul(op, s));
        }
        assert!(
            dd.stats().mat_vec_cache > 4,
            "test setup must overflow the mat-vec cache, got {}",
            dd.stats().mat_vec_cache
        );
        dd.set_cache_limit(4);
        let add_entries = dd.stats().vec_add_cache;
        // The next cached operation triggers the trim: the oversized mat-vec
        // table is cleared. The add table, which shares its scratch values,
        // goes with it (it holds no entry here); what the addition then
        // computes is kept.
        let a = states[0];
        let b = states[1];
        let _ = dd.vec_add(a, b);
        assert_eq!(dd.stats().mat_vec_cache, 0);
        assert!(dd.stats().vec_add_cache >= add_entries);
    }

    /// The squared norm below `node`, summed from scratch.
    fn recursive_norm(dd: &DdPackage, node: VecNodeId) -> f64 {
        if node.is_terminal() {
            return 1.0;
        }
        (dd.vec_nodes[node.index()].edges.iter())
            .filter(|e| !e.is_zero())
            .fold(0.0, |total, e| {
                total + dd.ctable.norm_sqr(e.weight) * recursive_norm(dd, e.node)
            })
    }

    #[test]
    fn node_norms_are_the_recursive_sums_bit_for_bit() {
        // A noisy QFT-8 package: gates, a bit flip and damping keeps, with
        // shots after the mark and rewinds between them.
        let n = 8;
        let mut dd = DdPackage::new();
        let mut gates = Vec::new();
        for target in 0..n {
            gates.push(dd.single_qubit_op(n, target, Matrix2::hadamard()));
            for control in target + 1..n {
                let angle = std::f64::consts::PI / f64::from(1 << (control - target));
                gates.push(dd.controlled_op(n, target, &[control], Matrix2::phase(angle)));
            }
        }
        for q in 0..n / 2 {
            gates.push(dd.swap_op(n, q, n - 1 - q));
        }
        let keep: Vec<MatEdge> = (0..n)
            .map(|q| dd.single_qubit_op(n, q, Matrix2::amplitude_damping_a1(0.05)))
            .collect();
        let flip = dd.single_qubit_op(n, n - 1, Matrix2::pauli_x());
        let shot = |dd: &mut DdPackage, flip_after: Option<usize>| {
            let mut state = dd.zero_state(n);
            for (index, gate) in gates.iter().enumerate() {
                state = dd.mat_vec_mul(*gate, state);
                if flip_after == Some(index) {
                    state = dd.mat_vec_mul(flip, state);
                }
                state = dd.apply_kraus(keep[index % n], state).1;
            }
        };
        shot(&mut dd, None);
        dd.mark_persistent();
        for flip_after in [3, 9, 17, 3] {
            shot(&mut dd, Some(flip_after));
            assert!(dd.transient_vec_nodes() > 0);
            assert_eq!(dd.vec_norms.len(), dd.vec_nodes.len());
            assert_eq!(dd.vec_bounds.len(), dd.vec_nodes.len());
            for id in 0..dd.vec_nodes.len() as u32 {
                let node = VecNodeId(id);
                assert_eq!(
                    dd.node_norm(node).to_bits(),
                    recursive_norm(&dd, node).to_bits()
                );
                let edge = VecEdge {
                    node,
                    weight: ComplexId::ONE,
                };
                assert!(dd.vec_size_bound(edge) >= dd.vec_node_count(edge) as u64);
            }
            dd.reset_transient();
            assert_eq!(dd.vec_norms.len(), dd.vec_watermark);
            assert_eq!(dd.vec_bounds.len(), dd.vec_watermark);
        }
    }

    #[test]
    fn scale_rows_is_the_diagonal_times_the_gate() {
        let n = 5;
        let s = (1.0f64 - 0.3).sqrt();
        let mut dd = DdPackage::new();
        let gates = [
            (dd.single_qubit_op(n, 2, Matrix2::hadamard()), vec![2]),
            (dd.controlled_op(n, 3, &[1], Matrix2::pauli_x()), vec![1, 3]),
            (dd.controlled_op(n, 0, &[4], Matrix2::pauli_x()), vec![4, 0]),
            (
                dd.controlled_op(n, 1, &[3], Matrix2::phase(0.7)),
                vec![3, 1],
            ),
            (dd.swap_op(n, 0, 3), vec![0, 3]),
            (
                dd.controlled_op(n, 2, &[0, 4], Matrix2::u3(0.3, 0.8, -0.2)),
                vec![0, 4, 2],
            ),
        ];
        for (gate, qubits) in gates {
            let kept = dd.scale_rows(gate, &qubits, s);
            let (dense, got) = (dd.to_matrix(gate, n), dd.to_matrix(kept, n));
            for (row, (expected, got)) in dense.iter().zip(&got).enumerate() {
                let excited = qubits.iter().filter(|&&q| row >> (n - 1 - q) & 1 == 1);
                let scale = s.powi(excited.count() as i32);
                for (e, g) in expected.iter().zip(got) {
                    assert!(e.scale(scale).approx_eq(*g, 1e-12), "{qubits:?} row {row}");
                }
            }
        }
    }

    #[test]
    fn table_stats_count_unique_and_compute_traffic() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(4);
        let h = dd.single_qubit_op(4, 0, Matrix2::hadamard());
        let stats = dd.table_stats();
        assert!(stats.vec_unique_misses >= 4, "zero_state builds 4 nodes");
        assert!(stats.mat_unique_misses > 0);
        // Applying the same operator twice: the second pass replays cached
        // results, so compute hits must appear.
        let t = dd.mat_vec_mul(h, s);
        let _ = dd.mat_vec_mul(h, t);
        let _ = dd.mat_vec_mul(h, s);
        let after = dd.table_stats();
        assert!(after.compute_misses > stats.compute_misses);
        assert!(after.compute_hits > 0, "repeated ops must hit the cache");

        // Deltas subtract counter-wise and saturate.
        let delta = after.since(&stats);
        assert_eq!(
            delta.compute_misses,
            after.compute_misses - stats.compute_misses
        );
        assert_eq!(stats.since(&after).compute_misses, 0);

        // Counters describe the package lifetime: a rewind keeps them, a
        // reset clears them, clone copies them, and clone_from preserves
        // the destination's own history.
        dd.mark_persistent();
        dd.reset_transient();
        assert_eq!(dd.table_stats(), after);
        let cloned = dd.clone();
        assert_eq!(cloned.table_stats(), after);
        let mut other = DdPackage::new();
        let probe = other.zero_state(2);
        let _ = probe;
        let own = other.table_stats();
        other.clone_from(&dd);
        assert_eq!(other.table_stats(), own, "re-seat must keep own counters");
        dd.reset_table_stats();
        assert_eq!(dd.table_stats(), TableStats::default());
    }

    #[test]
    fn table_stats_are_deterministic_across_identical_runs() {
        // The counters are plain integers bumped in serial recursion order,
        // so two fresh packages doing the same work must agree exactly.
        fn run() -> TableStats {
            let n = 5;
            let mut dd = DdPackage::new();
            let mut state = dd.zero_state(n);
            for q in 0..n {
                let h = dd.single_qubit_op(n, q, Matrix2::hadamard());
                state = dd.mat_vec_mul(h, state);
                let p = dd.single_qubit_op(n, q, Matrix2::phase(0.1 + 0.37 * q as f64));
                state = dd.mat_vec_mul(p, state);
            }
            for q in 0..n - 1 {
                let cx = dd.controlled_op(n, q + 1, &[q], Matrix2::pauli_x());
                state = dd.mat_vec_mul(cx, state);
            }
            // Undo the CX chain: every intermediate state was built on the
            // way in, so rebuilding it on the way out finds its nodes in the
            // unique table (the hits asserted below).
            for q in (0..n - 1).rev() {
                let cx = dd.controlled_op(n, q + 1, &[q], Matrix2::pauli_x());
                state = dd.mat_vec_mul(cx, state);
            }
            let _ = dd.norm_sqr(state);
            dd.table_stats()
        }
        let first = run();
        assert!(first.compute_hits > 0 && first.compute_misses > 0);
        assert!(first.vec_unique_hits > 0 && first.vec_unique_misses > 0);
        assert_eq!(run(), first);
    }
}
