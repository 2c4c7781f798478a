//! Generational slab: stable, reusable indices for interned values.
//!
//! The event scheduler (and anything else that wants to move small keys
//! around instead of large values) stores payloads in a [`Slab`] and
//! passes [`SlabKey`]s through its internal data structures. A key is
//! `index + generation`: the generation is bumped every time a slot is
//! vacated, so a stale key (one whose value was already removed) can
//! never silently alias a newer tenant of the same slot — lookups and
//! removals with a stale key return `None`.
//!
//! The slab never shrinks; vacated slots go on an internal free list and
//! are reused in LIFO order, so a steady-state workload (insert/remove
//! balanced, as in an event queue) performs **zero allocations** after
//! warm-up.
//!
//! # Example
//!
//! ```
//! use tcc_types::slab::Slab;
//!
//! let mut s: Slab<&str> = Slab::new();
//! let k = s.insert("hello");
//! assert_eq!(s.get(k), Some(&"hello"));
//! assert_eq!(s.remove(k), Some("hello"));
//! assert_eq!(s.get(k), None); // stale key: generation mismatch
//! ```

/// A generational index into a [`Slab`].
///
/// 8 bytes total: 32-bit slot index + 32-bit generation. Copyable and
/// orderable so it can live inside heap entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabKey {
    index: u32,
    generation: u32,
}

impl SlabKey {
    /// The raw slot index (for diagnostics only — do not fabricate keys).
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation this key was minted at.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A generational slab allocator (see module docs).
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty slab with room for `cap` values before any
    /// allocation.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Slab<T> {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Interns `value`, returning its key. Reuses a vacated slot when one
    /// is available; only grows (allocates) when the slab is full.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            // A free-list entry whose slot holds a value would make this
            // insert drop a live tenant and alias its key; checked in
            // release too, since the event queue runs on it.
            assert!(slot.value.is_none(), "free-list slot occupied");
            slot.value = Some(value);
            SlabKey {
                index,
                generation: slot.generation,
            }
        } else {
            let index = u32::try_from(self.slots.len()).expect("slab exceeds u32::MAX slots");
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            SlabKey {
                index,
                generation: 0,
            }
        }
    }

    /// Borrows the value behind `key`, or `None` if the key is stale.
    #[must_use]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let slot = self.slots.get(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Removes and returns the value behind `key`, bumping the slot's
    /// generation so `key` (and any copies of it) go stale. Returns
    /// `None` if the key is already stale.
    ///
    /// A stale key is not checked here: the caller owns what it means.
    /// The event queue turns `None` into the typed
    /// `QueueCorruption::MissingPayload` error, in every build.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(key.index);
        self.len -= 1;
        Some(value)
    }

    /// Drops all live values and resets the slab to empty, keeping the
    /// allocated capacity. All outstanding keys go stale.
    pub fn clear(&mut self) {
        self.free.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.value.take().is_some() {
                slot.generation = slot.generation.wrapping_add(1);
            }
            self.free.push(i as u32);
        }
        self.free.reverse(); // reuse low indices first
        self.len = 0;
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get(b), Some(&20));
        assert_eq!(s.remove(a), Some(10));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None);
    }

    #[test]
    fn slots_are_reused_and_generations_advance() {
        let mut s = Slab::new();
        let a = s.insert("a");
        assert_eq!(s.remove(a), Some("a"));
        let b = s.insert("b");
        // Same slot, different generation: the stale key must not alias.
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), Some(&"b"));
        // Removing through the stale key leaves the new tenant alone.
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"b"));
    }

    #[test]
    fn steady_state_reuses_capacity() {
        let mut s = Slab::new();
        let keys: Vec<_> = (0..64).map(|i| s.insert(i)).collect();
        for k in keys {
            s.remove(k);
        }
        let before = s.slots.len();
        for round in 0..100 {
            let keys: Vec<_> = (0..64).map(|i| s.insert(round * 64 + i)).collect();
            for k in keys {
                s.remove(k);
            }
        }
        assert_eq!(s.slots.len(), before, "steady state must not grow the slab");
    }

    #[test]
    fn clear_invalidates_outstanding_keys() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), None);
        let c = s.insert(3);
        assert_eq!(s.get(c), Some(&3));
    }
}
