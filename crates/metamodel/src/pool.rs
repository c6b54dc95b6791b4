//! Interning of immutable artifacts that many owners derive alike.
//!
//! Every peer on a host derives the same things from a type it has
//! met: a conformance contract per `(received, expected)` pair, an
//! object template per class. Computed per peer, each is an equal but
//! private copy, and a host of a thousand members touches a thousand
//! copies of one contract. A [`Pool`] hands each owner the `Arc` of an
//! equal value that is already alive, so they all read one copy.
//!
//! A pool holds only [`Weak`]s: an artifact lives exactly as long as
//! some owner holds it, and a pooled value is only ever returned to a
//! caller that brought an equal one, so sharing never changes what an
//! owner reads. Each use site keeps its pool in a `thread_local!` and
//! reaches it through [`intern_local`]: a host runs its members on one
//! thread, so a per-thread pool is a per-host pool, with no lock and no
//! handle to thread through the layers.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Weak};
use std::thread::LocalKey;

/// The fewest slots a pool keeps before it sweeps dead ones.
const MIN_SWEEP: usize = 64;

/// One live value per key, held weakly and matched by equality.
///
/// A key names where a value came from (a type guid, a guid pair); the
/// value itself decides whether it may be shared. Dead slots are swept
/// when the slot count reaches twice the live count of the last sweep
/// (at least 64), so interning is amortized O(1) and the pool never
/// holds more than twice its live values plus a constant.
#[derive(Debug)]
pub struct Pool<K, T> {
    slots: RefCell<HashMap<K, Weak<T>>>,
    /// Slot count at which the next insertion sweeps.
    sweep_at: Cell<usize>,
}

impl<K: Hash + Eq, T: PartialEq> Default for Pool<K, T> {
    fn default() -> Self {
        Pool::new()
    }
}

impl<K: Hash + Eq, T: PartialEq> Pool<K, T> {
    /// An empty pool.
    pub fn new() -> Pool<K, T> {
        Pool {
            slots: RefCell::new(HashMap::new()),
            sweep_at: Cell::new(MIN_SWEEP),
        }
    }

    /// The live value pooled under `key` if it equals `*fresh`;
    /// otherwise `fresh` itself, pooled under `key` unless an unequal
    /// value is alive there (the first one keeps the slot).
    pub fn intern(&self, key: K, fresh: &Arc<T>) -> Arc<T> {
        // The borrow cannot be taken twice (nothing below calls back into
        // the pool), but a pool that is busy simply does not share.
        let Ok(mut slots) = self.slots.try_borrow_mut() else {
            return Arc::clone(fresh);
        };
        if let Some(live) = slots.get(&key).and_then(Weak::upgrade) {
            return if *live == **fresh {
                live
            } else {
                Arc::clone(fresh)
            };
        }
        if slots.len() >= self.sweep_at.get() && !slots.contains_key(&key) {
            slots.retain(|_, slot| slot.strong_count() > 0);
            self.sweep_at.set(MIN_SWEEP.max(2 * slots.len()));
        }
        slots.insert(key, Arc::downgrade(fresh));
        Arc::clone(fresh)
    }

    /// Number of slots, dead ones not yet swept included.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.borrow().len()
    }
}

/// [`Pool::intern`] in this thread's `pool`; `fresh` itself once the
/// thread is tearing its locals down.
pub fn intern_local<K: Hash + Eq, T: PartialEq>(
    pool: &'static LocalKey<Pool<K, T>>,
    key: K,
    fresh: Arc<T>,
) -> Arc<T> {
    pool.try_with(|p| p.intern(key, &fresh)).unwrap_or(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_equal_live_value_is_shared_and_an_unequal_one_is_not() {
        let pool: Pool<u32, String> = Pool::new();
        let first = pool.intern(7, &Arc::new("a".to_string()));
        let again = pool.intern(7, &Arc::new("a".to_string()));
        assert!(Arc::ptr_eq(&first, &again), "an equal value shares");
        let other = Arc::new("b".to_string());
        let unequal = pool.intern(7, &other);
        assert!(
            Arc::ptr_eq(&unequal, &other),
            "an unequal value stays its own"
        );
        assert!(!Arc::ptr_eq(&unequal, &first));
        assert!(Arc::ptr_eq(
            &pool.intern(7, &Arc::new("a".to_string())),
            &first
        ));
    }

    #[test]
    fn a_dropped_value_is_not_held_and_its_slot_is_reused() {
        let pool: Pool<u32, String> = Pool::new();
        let first = pool.intern(1, &Arc::new("a".to_string()));
        let weak = Arc::downgrade(&first);
        drop(first);
        assert!(weak.upgrade().is_none(), "the pool holds no strong count");
        let fresh = Arc::new("a".to_string());
        assert!(Arc::ptr_eq(&pool.intern(1, &fresh), &fresh));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn interning_and_dropping_many_distinct_values_stays_within_the_sweep_bound() {
        let pool: Pool<u32, u32> = Pool::new();
        let kept: Vec<Arc<u32>> = (0..8).map(|k| pool.intern(k, &Arc::new(k))).collect();
        for k in 8..10_008 {
            drop(pool.intern(k, &Arc::new(k)));
            assert!(
                pool.len() <= MIN_SWEEP.max(2 * kept.len()),
                "{} slots after {k} values",
                pool.len()
            );
        }
        for (k, v) in (0..8).zip(&kept) {
            assert!(
                Arc::ptr_eq(&pool.intern(k, &Arc::new(k)), v),
                "live ones stay"
            );
        }
    }

    thread_local! {
        static LOCAL: Pool<u8, u8> = Pool::new();
    }

    #[test]
    fn a_local_pool_shares_within_its_thread() {
        let a = intern_local(&LOCAL, 0, Arc::new(5));
        let b = intern_local(&LOCAL, 0, Arc::new(5));
        assert!(Arc::ptr_eq(&a, &b));
        let elsewhere = std::thread::scope(|s| {
            s.spawn(|| intern_local(&LOCAL, 0, Arc::new(5)))
                .join()
                .unwrap()
        });
        assert!(!Arc::ptr_eq(&a, &elsewhere), "each thread has its own pool");
    }
}
