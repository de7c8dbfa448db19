//! A hash table in layers: what the package knew at the mark, at each open
//! checkpoint, and since.

use std::hash::Hash;
use std::sync::Arc;

use crate::complex_table::ComplexId;
use crate::fxhash::FxHashMap;

/// How young a key is: one past the largest node id and the largest weight
/// id it mentions. A layer sealed at arena lengths `Age(nodes, weights)`
/// only holds keys whose ids are all older, so a key younger than a seal
/// cannot be in its layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Age(pub(crate) u32, pub(crate) u32);

impl Age {
    /// Also mentions the node of raw id `node` (the terminal is the oldest).
    #[inline]
    pub(crate) fn node(self, node: u32) -> Age {
        Age(self.0.max(node.wrapping_add(1)), self.1)
    }

    /// Also mentions the interned value `weight`.
    #[inline]
    pub(crate) fn weight(self, weight: ComplexId) -> Age {
        Age(self.0, self.1.max(weight.index() as u32 + 1))
    }

    #[inline]
    fn fits(self, seal: Age) -> bool {
        self.0 <= seal.0 && self.1 <= seal.1
    }
}

/// An immutable **frozen** map, shared by every copy of the package that
/// marked it, under the maps the open checkpoints sealed (oldest first) and
/// a **live** map that takes every new entry.
///
/// A key is in one layer at most: it is only inserted after missing them
/// all. A lookup probes the frozen layer, then the sealed ones newest first
/// as long as the key's [`Age`] fits their seals, then the live map; a key
/// with an id younger than the mark skips the frozen layer. A rewind clears
/// every map but the frozen one; a rollback drops the live map whole and
/// makes the newest sealed one live again. Neither looks at an entry.
#[derive(Debug)]
pub(crate) struct Layered<K, V> {
    /// Written by [`Layered::freeze`] alone, at the arena lengths `seal`.
    frozen: Arc<FxHashMap<K, V>>,
    seal: Age,
    sealed: Vec<(Age, FxHashMap<K, V>)>,
    pub(crate) live: FxHashMap<K, V>,
    /// Emptied maps, kept with their allocations for the next seal.
    spare: Vec<FxHashMap<K, V>>,
}

impl<K, V> Default for Layered<K, V> {
    fn default() -> Self {
        Layered {
            frozen: Arc::default(),
            seal: Age::default(),
            sealed: Vec::new(),
            live: FxHashMap::default(),
            spare: Vec::new(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Layered<K, V> {
    /// The entry of `key`, a key of age `age`.
    #[inline]
    pub(crate) fn get(&self, key: &K, age: Age) -> Option<&V> {
        if age.fits(self.seal) {
            if let found @ Some(_) = self.frozen.get(key) {
                return found;
            }
        }
        for (seal, layer) in self.sealed.iter().rev() {
            if !age.fits(*seal) {
                break;
            }
            if let found @ Some(_) = layer.get(key) {
                return found;
            }
        }
        self.live.get(key)
    }

    /// The frozen layer, to read.
    pub(crate) fn frozen(&self) -> &FxHashMap<K, V> {
        &self.frozen
    }

    /// Number of open checkpoints.
    pub(crate) fn depth(&self) -> usize {
        self.sealed.len()
    }

    /// Entries made since the mark: the sealed layers and the live one.
    pub(crate) fn transient_len(&self) -> usize {
        let sealed = self.sealed.iter().map(|(_, layer)| layer.len());
        self.live.len() + sealed.sum::<usize>()
    }

    /// Empties every layer made since the mark once they hold more than
    /// `limit` entries together — what the one live layer of a package
    /// without checkpoints would hold; returns whether it did.
    pub(crate) fn trim(&mut self, limit: usize) -> bool {
        let over = self.transient_len() > limit;
        if over {
            self.live.clear();
            self.sealed.iter_mut().for_each(|(_, layer)| layer.clear());
        }
        over
    }

    /// Empties every layer, the frozen one included (this package only).
    pub(crate) fn clear(&mut self) {
        self.frozen = Arc::default();
        self.trim(0);
    }

    /// Closes the live layer at `seal` and opens an empty one above it.
    pub(crate) fn seal(&mut self, seal: Age) {
        let fresh = self.spare.pop().unwrap_or_default();
        self.sealed
            .push((seal, std::mem::replace(&mut self.live, fresh)));
    }

    /// Drops the live layer and makes the newest sealed one live again.
    pub(crate) fn unseal(&mut self) {
        let (_, below) = self.sealed.pop().expect("a sealed layer to return to");
        let mut dropped = std::mem::replace(&mut self.live, below);
        dropped.clear();
        self.spare.push(dropped);
    }

    /// Closes the newest seal keeping every entry: the live layer's entries
    /// join the sealed one below, which is live again.
    pub(crate) fn merge_down(&mut self) {
        let (_, mut below) = self.sealed.pop().expect("a sealed layer to return to");
        below.extend(self.live.drain());
        let emptied = std::mem::replace(&mut self.live, below);
        self.spare.push(emptied);
    }

    /// Drops every layer made since the mark.
    pub(crate) fn rewind(&mut self) {
        while !self.sealed.is_empty() {
            self.unseal();
        }
        self.live.clear();
    }

    /// Moves the live layer into the frozen one (old ∪ live) at `seal`; a
    /// frozen map other packages share is copied first, never changed.
    pub(crate) fn freeze(&mut self, seal: Age) {
        assert!(self.sealed.is_empty(), "a checkpoint is open at the mark");
        let live = std::mem::take(&mut self.live);
        if self.frozen.is_empty() {
            self.frozen = Arc::new(live);
        } else {
            Arc::make_mut(&mut self.frozen).extend(live);
        }
        self.seal = seal;
    }

    /// Shares `source`'s frozen layer and copies its live one into the
    /// allocation already here (a template's is empty and owns none, which
    /// `HashMap::clone_from` would copy too), dropping the layers of this
    /// copy's checkpoints; `source` may have none open.
    pub(crate) fn clone_from(&mut self, source: &Self) {
        assert!(source.sealed.is_empty(), "a checkpoint is open at a copy");
        self.rewind();
        (self.frozen, self.seal) = (Arc::clone(&source.frozen), source.seal);
        if !source.live.is_empty() {
            self.live.clone_from(&source.live);
        }
    }
}
