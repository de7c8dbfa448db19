//! Canonical storage of complex edge weights.
//!
//! Decision diagram canonicity requires that two numerically equal edge
//! weights are represented by the *same* handle, so that node hashing and
//! unique-table lookups work on exact integer identifiers rather than on
//! floating point values. The [`ComplexTable`] interns every complex value
//! that a node keeps as an edge weight and hands out stable [`ComplexId`]s.
//! Values that differ by less than the table tolerance map to the same id,
//! which absorbs floating point round-off accumulated during decision diagram
//! operations (the approach of the JKU DD package, cf. Zulehner et al.,
//! ICCAD 2019).
//!
//! ## First-comer representatives, not grid points
//!
//! Matching is *ball*-based: a looked-up value joins the first interned
//! entry within `tolerance` of it (per component), and that first value —
//! bits and all — stays the canonical representative of its neighbourhood.
//! Storing the first *actual* value matters: if entries were instead snapped
//! to tolerance-grid points, every arithmetic step would re-quantise through
//! representatives carrying ~`tolerance/2` error, so two mathematically
//! equal amplitudes computed along different operation routes would diverge
//! at the same scale as the matching cell and land in different cells —
//! node sharing collapses and diagram sizes explode (measured: a 16-qubit
//! QFT grows from 16 to ~15k nodes, at *any* grid pitch, because the
//! injected noise scales with the pitch). First-comer representatives keep
//! the stored values accurate to genuine float round-off (~1e-15), so
//! differently-routed computations of the same amplitude stay deep inside
//! one matching ball and reconverge onto one id.
//!
//! Values within tolerance of the exact constants `0` and `1` snap to those
//! constants so the `is_zero`/`is_one` fast paths stay reliable.
//!
//! Only what a node keeps is interned — its child weights, the addition
//! cache's ratio key and every weight a public package call returns — so
//! first-comers are kept weights. The products and sums the vector kernels
//! compute on the way down are **scratch values**: pushed onto a plain
//! array after the 0/1 snap and named by tagged ids. Multiply and add cache
//! entries may refer to them, so the package truncates the array with those
//! caches. Scratch ids never leave the crate.

use crate::complex::Complex;
use crate::fxhash::FxHashMap;

/// Handle to an interned complex value inside a [`ComplexTable`].
///
/// Ids are only meaningful for the table that produced them. The two most
/// common weights have fixed ids: [`ComplexId::ZERO`] and [`ComplexId::ONE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComplexId(pub(crate) u32);

impl ComplexId {
    /// The id of the value `0`.
    pub const ZERO: ComplexId = ComplexId(0);
    /// The id of the value `1`.
    pub const ONE: ComplexId = ComplexId(1);

    /// Returns `true` when this id refers to the value `0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == ComplexId::ZERO
    }

    /// Returns `true` when this id refers to the value `1`.
    #[inline]
    pub fn is_one(self) -> bool {
        self == ComplexId::ONE
    }

    /// Raw index of the interned value (mainly useful for statistics).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The position of a scratch value, `None` for an interned one.
    #[inline]
    pub(crate) fn scratch_index(self) -> Option<usize> {
        (self.0 & SCRATCH != 0).then_some((self.0 ^ SCRATCH) as usize)
    }
}

/// Tag bit of the ids of scratch values (see the module docs).
const SCRATCH: u32 = 1 << 31;

/// `x.round() as i64` by integer conversion: baseline x86-64 has no
/// rounding instruction, so `f64::round` is a libm call. Below 2^52 the
/// remainder after truncation is exact, so a half-step test on it rounds
/// halves away from zero as `round` does; from 2^52 on `x` is an integer.
#[inline]
fn round_to_i64(x: f64) -> i64 {
    if x.abs() >= 4_503_599_627_370_496.0 {
        return x.round() as i64;
    }
    let whole = x as i64;
    let rest = x - whole as f64;
    whole + i64::from(rest >= 0.5) - i64::from(rest <= -0.5)
}

/// Default tolerance under which two complex values are considered equal.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;

/// How a result is kept: [`ComplexTable::lookup`] or as a scratch value.
type Keep = fn(&mut ComplexTable, Complex) -> ComplexId;

/// End-of-chain marker of [`ComplexTable::next`].
const NO_NEXT: u32 = u32::MAX;

/// Interning table for complex edge weights with tolerance-ball lookup.
///
/// # Examples
///
/// ```
/// use qsdd_dd::{Complex, ComplexTable};
///
/// let mut table = ComplexTable::new();
/// let a = table.lookup(Complex::new(0.5, 0.0));
/// let b = table.lookup(Complex::new(0.5 + 1e-13, 0.0));
/// assert_eq!(a, b); // identical within tolerance
/// ```
#[derive(Debug)]
pub struct ComplexTable {
    values: Vec<Complex>,
    /// Spatial index: bucket cell -> oldest entry whose value lies in that
    /// cell. Cells span `4 * tolerance`, so a ball probe only needs those
    /// of the cell and its eight neighbours the ball overlaps.
    buckets: FxHashMap<(i64, i64), u32>,
    /// `next[i]` is the entry interned after entry `i` in the same cell
    /// ([`NO_NEXT`] at the end), so a cell's entries are visited in
    /// insertion order. Almost every cell holds a single entry; chaining
    /// through this array instead of a `Vec<u32>` per cell shrinks a map
    /// slot from 41 to 25 bytes and drops one heap allocation per cell,
    /// which on noisy QFT-16 (~60k transient values per shot) is the
    /// difference between the largest table of the package being 5.2 MiB
    /// or 3.2 MiB.
    next: Vec<u32>,
    /// Scratch values, by the untagged index of their ids.
    pub(crate) scratch: Vec<Complex>,
    /// One past the highest scratch value a cache entry may refer to.
    pinned: usize,
    tolerance: f64,
    /// Lookups, their tolerance-ball searches and the values they interned,
    /// over this table's life: `clone_from` keeps them, as the package's
    /// table counters do.
    pub(crate) traffic: [u64; 3],
}

impl Clone for ComplexTable {
    fn clone(&self) -> Self {
        ComplexTable {
            values: self.values.clone(),
            buckets: self.buckets.clone(),
            next: self.next.clone(),
            scratch: self.scratch.clone(),
            pinned: self.pinned,
            tolerance: self.tolerance,
            traffic: self.traffic,
        }
    }

    // Hand-rolled so that re-seating a long-lived execution context onto a
    // new program template reuses the existing allocations.
    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
        self.buckets.clone_from(&source.buckets);
        self.next.clone_from(&source.next);
        self.scratch.clone_from(&source.scratch);
        self.pinned = source.pinned;
        self.tolerance = source.tolerance;
    }
}

impl ComplexTable {
    /// Creates a table with the [`DEFAULT_TOLERANCE`].
    pub fn new() -> Self {
        Self::with_tolerance(DEFAULT_TOLERANCE)
    }

    /// Creates a table with a custom equality tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not strictly positive.
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        let mut table = ComplexTable {
            values: Vec::new(),
            buckets: FxHashMap::default(),
            next: Vec::new(),
            scratch: Vec::new(),
            pinned: 0,
            tolerance,
            traffic: [0; 3],
        };
        // Insert 0 and 1 at the fixed positions expected by ComplexId.
        let zero = table.insert(Complex::ZERO);
        let one = table.insert(Complex::ONE);
        debug_assert_eq!(zero, ComplexId::ZERO);
        debug_assert_eq!(one, ComplexId::ONE);
        table
    }

    /// The equality tolerance of this table.
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Number of interned values (including the built-in constants).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when only the built-in constants are interned.
    pub fn is_empty(&self) -> bool {
        self.values.len() <= 2
    }

    /// The complex value an id stands for.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this table.
    #[inline]
    pub fn value(&self, id: ComplexId) -> Complex {
        match id.scratch_index() {
            None => self.values[id.0 as usize],
            Some(index) => self.scratch[index],
        }
    }

    /// Position of one component in units of bucket cells.
    ///
    /// A cell spans four tolerances so that near-boundary values only
    /// require inspecting the immediate neighbour cells.
    #[inline]
    fn cell_position(&self, x: f64) -> f64 {
        x / (self.tolerance * 4.0)
    }

    /// Bucket-cell coordinates of `value`.
    #[inline]
    fn key(&self, value: Complex) -> (i64, i64) {
        let cell = |x: f64| round_to_i64(self.cell_position(x));
        (cell(value.re), cell(value.im))
    }

    /// The cells along one axis that can hold a component within tolerance
    /// of `x`: its own and, when `x` lies within a tolerance of a boundary —
    /// a quarter cell, plus a few ulps for the rounding of both positions
    /// and of the difference `approx_eq` takes — the neighbour behind it.
    #[inline]
    fn cells(&self, x: f64) -> std::ops::RangeInclusive<i64> {
        let at = self.cell_position(x);
        let home = round_to_i64(at);
        let off = at - home as f64;
        let reach = 0.25 + 4.0 * f64::EPSILON * (at.abs() + 1.0);
        let (below, above) = (off < reach - 0.5, off > 0.5 - reach);
        home - i64::from(below)..=home + i64::from(above)
    }

    /// Searches the cells the tolerance box of `value` overlaps — one, two
    /// or four of the value's cell and its eight neighbours, in the order a
    /// scan of all nine visits them, so the first match is the same — for
    /// an entry within tolerance.
    fn find(&self, value: Complex) -> Option<ComplexId> {
        let im_cells = self.cells(value.im);
        for kr in self.cells(value.re) {
            for ki in im_cells.clone() {
                let mut idx = match self.buckets.get(&(kr, ki)) {
                    Some(&oldest) => oldest,
                    None => continue,
                };
                while idx != NO_NEXT {
                    if self.values[idx as usize].approx_eq(value, self.tolerance) {
                        return Some(ComplexId(idx));
                    }
                    idx = self.next[idx as usize];
                }
            }
        }
        None
    }

    /// Appends `value` as a new representative.
    fn insert(&mut self, value: Complex) -> ComplexId {
        let idx = u32::try_from(self.values.len())
            .ok()
            .filter(|&idx| idx < SCRATCH)
            .expect("complex table exhausted its id space");
        self.values.push(value);
        self.next.push(NO_NEXT);
        let mut tail = *self.buckets.entry(self.key(value)).or_insert(idx);
        if tail != idx {
            while self.next[tail as usize] != NO_NEXT {
                tail = self.next[tail as usize];
            }
            self.next[tail as usize] = idx;
        }
        ComplexId(idx)
    }

    /// Interns `value`, returning the id of an existing entry within
    /// tolerance if one exists.
    ///
    /// # Panics
    ///
    /// Panics if `value` contains NaN components.
    pub fn lookup(&mut self, value: Complex) -> ComplexId {
        assert!(!value.is_nan(), "cannot intern NaN complex value");
        self.traffic[0] += 1;
        if let Some(snapped) = self.snap(value) {
            return snapped;
        }
        self.traffic[1] += 1;
        if let Some(found) = self.find(value) {
            return found;
        }
        self.traffic[2] += 1;
        self.insert(value)
    }

    /// The canonical 0 or 1 when `value` lies within tolerance of it.
    #[inline]
    fn snap(&self, value: Complex) -> Option<ComplexId> {
        let near = |c: Complex| value.approx_eq(c, self.tolerance);
        (near(Complex::ZERO).then_some(ComplexId::ZERO))
            .or_else(|| near(Complex::ONE).then_some(ComplexId::ONE))
    }

    /// Keeps `value` as a scratch value: the 0/1 snap, then a push.
    fn push_scratch(&mut self, value: Complex) -> ComplexId {
        if let Some(snapped) = self.snap(value) {
            return snapped;
        }
        let index = u32::try_from(self.scratch.len())
            .ok()
            .filter(|&index| index < SCRATCH)
            .expect("scratch values exhausted their id space");
        self.scratch.push(value);
        ComplexId(index | SCRATCH)
    }

    /// The id a lookup of `id`'s value returns: `id` itself unless it names
    /// a scratch value.
    pub(crate) fn canonical(&mut self, id: ComplexId) -> ComplexId {
        (id.scratch_index()).map_or(id, |index| self.lookup(self.scratch[index]))
    }

    /// Whether a lookup of `id`'s value returns `id`, without looking.
    pub(crate) fn is_canonical(&self, id: ComplexId) -> bool {
        let v = self.value(id);
        id.scratch_index().is_none() && self.snap(v).or_else(|| self.find(v)) == Some(id)
    }

    /// Looks up the product of two interned values.
    pub fn mul(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        self.product(a, b, Self::lookup)
    }

    /// The product of two values, as a scratch value.
    pub(crate) fn mul_scratch(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        self.product(a, b, Self::push_scratch)
    }

    #[inline]
    fn product(&mut self, a: ComplexId, b: ComplexId, keep: Keep) -> ComplexId {
        if a.is_zero() || b.is_zero() {
            return ComplexId::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let v = self.value(a) * self.value(b);
        keep(self, v)
    }

    /// Looks up the sum of two interned values.
    pub fn add(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        self.sum(a, b, Self::lookup)
    }

    /// The sum of two values, as a scratch value.
    pub(crate) fn add_scratch(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        self.sum(a, b, Self::push_scratch)
    }

    #[inline]
    fn sum(&mut self, a: ComplexId, b: ComplexId, keep: Keep) -> ComplexId {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let v = self.value(a) + self.value(b);
        keep(self, v)
    }

    /// Looks up the quotient of two values (`a` may be a scratch value).
    ///
    /// # Panics
    ///
    /// Panics if `b` is the zero id.
    pub fn div(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        assert!(!b.is_zero(), "division by interned zero");
        if a.is_zero() {
            return ComplexId::ZERO;
        }
        if b.is_one() {
            return self.canonical(a);
        }
        if a == b {
            return ComplexId::ONE;
        }
        let v = self.value(a) / self.value(b);
        self.lookup(v)
    }

    /// Looks up the complex conjugate of an interned value.
    pub fn conj(&mut self, a: ComplexId) -> ComplexId {
        if a.is_zero() || a.is_one() {
            return a;
        }
        let v = self.value(a).conj();
        self.lookup(v)
    }

    /// Squared magnitude of an interned value.
    #[inline]
    pub fn norm_sqr(&self, a: ComplexId) -> f64 {
        self.value(a).norm_sqr()
    }

    /// Lookup statistics `(lookups, hits)` of this table.
    pub fn stats(&self) -> (u64, u64) {
        (self.traffic[0], self.traffic[0] - self.traffic[2])
    }

    /// Notes that a cache entry refers to `id`.
    #[inline]
    pub(crate) fn pin(&mut self, id: ComplexId) {
        self.pinned = (self.pinned).max(id.scratch_index().map_or(0, |index| index + 1));
    }

    /// Forgets the scratch values from `len` on, which nothing refers to.
    pub(crate) fn truncate_scratch(&mut self, len: usize) {
        self.scratch.truncate(len);
        self.pinned = self.pinned.min(len);
    }

    /// Forgets the scratch values no cache entry refers to.
    pub(crate) fn release_scratch(&mut self) {
        self.scratch.truncate(self.pinned);
    }

    /// Forgets every value interned after the first `len` entries, keeping
    /// the map's allocations for reuse.
    ///
    /// Ids `>= len` become dangling; the caller ([`crate::DdPackage`]'s
    /// transient reset) guarantees nothing references them afterwards.
    pub(crate) fn truncate(&mut self, len: usize) {
        if self.values.len() <= len {
            return;
        }
        for idx in len..self.values.len() {
            // Each entry lives in exactly one chain — the cell of its own
            // value — and chains are in insertion order, so the entries to
            // drop are a chain's tail: cut the chain before its first
            // dropped entry, or drop the whole cell.
            let key = self.key(self.values[idx]);
            let oldest = match self.buckets.get(&key) {
                Some(&oldest) => oldest,
                None => continue, // cell already dropped by an earlier idx
            };
            if oldest as usize >= len {
                self.buckets.remove(&key);
                continue;
            }
            let mut kept = oldest as usize;
            while self.next[kept] != NO_NEXT && (self.next[kept] as usize) < len {
                kept = self.next[kept] as usize;
            }
            self.next[kept] = NO_NEXT;
        }
        self.values.truncate(len);
        self.next.truncate(len);
    }
}

impl Default for ComplexTable {
    fn default() -> Self {
        ComplexTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_one_have_fixed_ids() {
        let mut t = ComplexTable::new();
        assert_eq!(t.lookup(Complex::ZERO), ComplexId::ZERO);
        assert_eq!(t.lookup(Complex::ONE), ComplexId::ONE);
        assert!(t.lookup(Complex::new(1e-14, -1e-14)).is_zero());
        assert!(t.lookup(Complex::new(1.0 + 1e-14, 0.0)).is_one());
    }

    #[test]
    fn nearby_values_share_an_id() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.25, -0.75));
        let b = t.lookup(Complex::new(0.25 + 1e-12, -0.75 - 1e-12));
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn distinct_values_get_distinct_ids() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.5, 0.0));
        let b = t.lookup(Complex::new(0.5, 0.5));
        let c = t.lookup(Complex::new(-0.5, 0.0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn first_comer_value_is_the_representative() {
        // Ball matching: whichever of two nearby values is interned first
        // becomes the stored representative, bits and all. Canonicity needs
        // the representative to track a *real* computed value (grid points
        // would inject cell-scale noise into every downstream operation).
        let u = Complex::new(0.3 + 0.2e-10, 0.7);
        let v = Complex::new(0.3 - 0.2e-10, 0.7);
        let mut t1 = ComplexTable::new();
        let a1 = t1.lookup(u);
        assert_eq!(t1.lookup(v), a1);
        assert_eq!(t1.value(a1).re.to_bits(), u.re.to_bits());
        let mut t2 = ComplexTable::new();
        let a2 = t2.lookup(v);
        assert_eq!(t2.lookup(u), a2);
        assert_eq!(t2.value(a2).re.to_bits(), v.re.to_bits());
    }

    #[test]
    fn boundary_straddling_values_still_unify() {
        // Ball matching must unify values within tolerance even when they
        // fall in different spatial index cells (the failure mode of pure
        // grid quantisation).
        let mut t = ComplexTable::with_tolerance(1e-10);
        let cell = 4e-10;
        for i in 1..50 {
            let near_boundary = (i as f64 + 0.5) * cell;
            let a = t.lookup(Complex::new(near_boundary - 0.4e-10, 0.0));
            let b = t.lookup(Complex::new(near_boundary + 0.4e-10, 0.0));
            assert_eq!(a, b, "split at boundary {i}");
        }
        // More than a tolerance apart: always distinct.
        let a = t.lookup(Complex::new(0.5, 0.0));
        let c = t.lookup(Complex::new(0.5 + 2.5e-10, 0.0));
        assert_ne!(a, c);
    }

    #[test]
    fn arithmetic_helpers_match_direct_computation() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.3, 0.4));
        let b = t.lookup(Complex::new(-0.1, 0.9));
        let prod = t.mul(a, b);
        assert!(t
            .value(prod)
            .approx_eq(Complex::new(0.3, 0.4) * Complex::new(-0.1, 0.9), 1e-12));
        let sum = t.add(a, b);
        assert!(t.value(sum).approx_eq(Complex::new(0.2, 1.3), 1e-12));
        let quot = t.div(prod, b);
        assert_eq!(quot, a);
        let conj = t.conj(a);
        assert!(t.value(conj).approx_eq(Complex::new(0.3, -0.4), 1e-12));
    }

    #[test]
    fn mul_fast_paths() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.3, 0.4));
        assert_eq!(t.mul(ComplexId::ZERO, a), ComplexId::ZERO);
        assert_eq!(t.mul(a, ComplexId::ZERO), ComplexId::ZERO);
        assert_eq!(t.mul(ComplexId::ONE, a), a);
        assert_eq!(t.mul(a, ComplexId::ONE), a);
        assert_eq!(t.div(a, a), ComplexId::ONE);
    }

    #[test]
    #[should_panic(expected = "division by interned zero")]
    fn division_by_zero_panics() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.3, 0.4));
        let _ = t.div(a, ComplexId::ZERO);
    }

    #[test]
    fn table_does_not_grow_for_repeated_values() {
        let mut t = ComplexTable::new();
        for _ in 0..1000 {
            t.lookup(Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0));
        }
        assert_eq!(t.len(), 3);
        let (lookups, hits) = t.stats();
        assert_eq!(lookups, 1000);
        assert_eq!(hits, 999);
    }

    #[test]
    fn truncate_forgets_the_tail_and_frees_its_keys() {
        let mut t = ComplexTable::new();
        let kept = t.lookup(Complex::new(0.5, 0.25));
        let mark = t.len();
        let dropped = t.lookup(Complex::new(0.125, -0.125));
        assert_eq!(dropped.index(), mark);
        t.truncate(mark);
        assert_eq!(t.len(), mark);
        // The kept entry still resolves; re-interning the dropped value
        // allocates a fresh id at the old position.
        assert_eq!(t.lookup(Complex::new(0.5, 0.25)), kept);
        let again = t.lookup(Complex::new(0.125, -0.125));
        assert_eq!(again.index(), mark);
    }

    #[test]
    fn truncate_keeps_cell_mates_of_dropped_entries() {
        // Distinct entries can share one spatial cell (cells span four
        // tolerances); truncating the younger ones must not evict the
        // older, and the cell's chain must accept new entries afterwards.
        let mut t = ComplexTable::with_tolerance(1e-10);
        let kept = t.lookup(Complex::new(0.5, 0.0));
        let mark = t.len();
        let dropped = t.lookup(Complex::new(0.5 + 1.5e-10, 0.0));
        let also_dropped = t.lookup(Complex::new(0.5, 1.5e-10));
        assert_ne!(kept, dropped);
        assert_ne!(dropped, also_dropped);
        t.truncate(mark);
        assert_eq!(t.lookup(Complex::new(0.5, 0.0)), kept);
        let again = t.lookup(Complex::new(0.5, 1.5e-10));
        assert_eq!(again.index(), mark);
        assert_eq!(t.lookup(Complex::new(0.5, 1.5e-10)), again);
        assert_eq!(t.len(), mark + 1);
    }

    /// The scan [`ComplexTable::find`] narrows: the value's cell and all
    /// eight neighbours.
    fn nine_cell_scan(table: &ComplexTable, value: Complex) -> Option<ComplexId> {
        let (kr, ki) = table.key(value);
        for dr in -1..=1 {
            for di in -1..=1 {
                let Some(&oldest) = table.buckets.get(&(kr + dr, ki + di)) else {
                    continue;
                };
                let mut idx = oldest;
                while idx != NO_NEXT {
                    if table.values[idx as usize].approx_eq(value, table.tolerance) {
                        return Some(ComplexId(idx));
                    }
                    idx = table.next[idx as usize];
                }
            }
        }
        None
    }

    /// `x` moved by `ulps` representable values.
    fn step(x: f64, ulps: i32) -> f64 {
        (0..ulps.abs()).fold(x, |x, _| if ulps < 0 { x.next_down() } else { x.next_up() })
    }

    /// One component of a stored value and of a value looked up next to
    /// it. The stored one lies anywhere in the unit range, at a large
    /// magnitude, or within a few ulps of a cell boundary (either sign,
    /// small and large cell indices); the looked-up one lies a tolerance
    /// away from it, give or take a hair — a few ulps, or a relative 1e-12
    /// — so that matches come from the farthest cell a match can sit in.
    fn component() -> impl Strategy<Value = (f64, f64)> {
        let cells = -40_000_000i64..40_000_000;
        (
            0..4u8,
            -1.0f64..1.0,
            cells,
            -3..=3i32,
            -3..=3i32,
            -1.0f64..1.0,
        )
            .prop_map(|(kind, uniform, cell, on_boundary, on_reach, hair)| {
                let boundary = (cell as f64 + 0.5) * 4.0 * DEFAULT_TOLERANCE;
                let stored = match kind {
                    0 => uniform,
                    1 => uniform * 1e8,
                    _ => step(boundary, on_boundary),
                };
                let reach = match kind {
                    2 => DEFAULT_TOLERANCE * (1.0 + 1e-12 * hair),
                    _ => DEFAULT_TOLERANCE,
                };
                (stored, step(stored + reach.copysign(uniform), on_reach))
            })
    }

    /// Values to round: uniform ones at any scale, `k + 0.5` give or take
    /// a few ulps (either sign), `±0`, and magnitudes from 2^52 up, past the
    /// `i64` range.
    fn rounding_input() -> impl Strategy<Value = f64> {
        let halves = -(1i64 << 51)..(1i64 << 51);
        (0..4u8, -1.0f64..1.0, halves, -3..=3i32, 0..64i32).prop_map(
            |(kind, uniform, k, ulps, exponent)| match kind {
                0 => uniform * 2f64.powi(exponent - 8),
                1 => step(k as f64 + 0.5, ulps),
                2 => 0.0f64.copysign(uniform),
                _ => uniform * 2f64.powi(53 + exponent / 4),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn integer_rounding_is_f64_round(x in rounding_input()) {
            prop_assert_eq!(round_to_i64(x), x.round() as i64, "{:e}", x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn narrow_probe_finds_what_the_nine_cell_scan_finds(
            values in collection::vec((component(), component()), 1..32),
        ) {
            let mut table = ComplexTable::new();
            for ((stored_re, near_re), (stored_im, near_im)) in values {
                let probe = |table: &ComplexTable| {
                    for re in [stored_re, near_re] {
                        for im in [stored_im, near_im] {
                            let value = Complex::new(re, im);
                            prop_assert_eq!(table.find(value), nine_cell_scan(table, value));
                        }
                    }
                };
                probe(&table);
                table.lookup(Complex::new(stored_re, stored_im));
                probe(&table);
            }
        }
    }
}
