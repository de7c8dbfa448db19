//! A hash table in two layers: what the package knew at the mark, and since.

use std::hash::Hash;
use std::sync::Arc;

use crate::fxhash::FxHashMap;

/// An immutable **frozen** map, shared by every copy of the package that
/// marked it, under a **live** map of this copy alone that takes every new
/// entry and is all a rewind has to clear. Frozen entries only mention
/// persistent ids, so only a key the caller knows to be persistent can be
/// among them; any other key probes the live map alone, like a single-layer
/// table.
#[derive(Debug)]
pub(crate) struct Layered<K, V> {
    /// Written by [`Layered::freeze`] alone.
    frozen: Arc<FxHashMap<K, V>>,
    pub(crate) live: FxHashMap<K, V>,
}

impl<K, V> Default for Layered<K, V> {
    fn default() -> Self {
        Layered {
            frozen: Arc::default(),
            live: FxHashMap::default(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Layered<K, V> {
    /// The entry of `key`, from the frozen layer first if `persistent`.
    #[inline]
    pub(crate) fn get(&self, key: &K, persistent: bool) -> Option<&V> {
        let frozen = persistent.then(|| self.frozen.get(key)).flatten();
        frozen.or_else(|| self.live.get(key))
    }

    /// The frozen layer, to read.
    pub(crate) fn frozen(&self) -> &FxHashMap<K, V> {
        &self.frozen
    }

    /// Drops the live layer once it holds more than `limit` entries.
    pub(crate) fn trim(&mut self, limit: usize) {
        if self.live.len() > limit {
            self.live.clear();
        }
    }

    /// Moves the live layer into the frozen one (old ∪ live); a frozen map
    /// other packages share is copied first, never changed.
    pub(crate) fn freeze(&mut self) {
        let live = std::mem::take(&mut self.live);
        if self.frozen.is_empty() {
            self.frozen = Arc::new(live);
        } else {
            Arc::make_mut(&mut self.frozen).extend(live);
        }
    }

    /// Shares `source`'s frozen layer and copies its live one into the
    /// allocation already here (a template's is empty and owns none, which
    /// `HashMap::clone_from` would copy too).
    pub(crate) fn clone_from(&mut self, source: &Self) {
        self.frozen = Arc::clone(&source.frozen);
        if source.live.is_empty() {
            self.live.clear();
        } else {
            self.live.clone_from(&source.live);
        }
    }
}
