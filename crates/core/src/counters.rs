//! The stats spine: one field listing per counter struct, from which both
//! the shard fold and the run-window rebase are derived.
//!
//! Every statistic the tile reports is a tree of `u64` counters. A serve
//! pass folds per-lane shards into the totals ([`Counters::fold`]); a run
//! window reports `now − start` over the same tree ([`Counters::since`]).
//! Each struct names its fields once, in a `counters!` invocation, and
//! gets both operations from that one list, so they cannot drift apart.
//! Every counter is a sum except a running peak (`max`), the only kind of
//! field a subtraction cannot window: `rebase` leaves it alone and whoever
//! owns the live value resets it when the window opens (`Tile::snapshot`).

/// A tree of counters that folds shard-wise and windows by subtraction.
pub trait Counters: Clone {
    /// Folds an independently accumulated shard into `self`: every counter
    /// a sum, every peak a maximum. Both are commutative and associative,
    /// so any shard order reduces to the same record (the permutation
    /// proofs are in `tests/stats_merge.rs`).
    fn fold(&mut self, shard: &Self);

    /// Rebases every cumulative counter against a window-start snapshot
    /// (`start` must be an earlier state of `self`). Peaks stay as they are.
    fn rebase(&mut self, start: &Self);

    /// The window `self − start`.
    #[must_use]
    fn since(&self, start: &Self) -> Self {
        let mut window = self.clone();
        window.rebase(start);
        window
    }
}

impl Counters for u64 {
    #[inline]
    fn fold(&mut self, shard: &Self) {
        *self += shard;
    }

    #[inline]
    fn rebase(&mut self, start: &Self) {
        *self -= start;
    }
}

impl<T: Counters, const N: usize> Counters for [T; N] {
    #[inline]
    fn fold(&mut self, shard: &Self) {
        for (a, b) in self.iter_mut().zip(shard) {
            a.fold(b);
        }
    }

    #[inline]
    fn rebase(&mut self, start: &Self) {
        for (a, b) in self.iter_mut().zip(start) {
            a.rebase(b);
        }
    }
}

/// Element-wise; a shard that reaches further (a lane that touched a higher
/// rank, bank or requestor id) extends the vector with its tail.
impl<T: Counters> Counters for Vec<T> {
    fn fold(&mut self, shard: &Self) {
        let common = self.len().min(shard.len());
        for (a, b) in self.iter_mut().zip(shard) {
            a.fold(b);
        }
        self.extend_from_slice(&shard[common..]);
    }

    fn rebase(&mut self, start: &Self) {
        for (a, b) in self.iter_mut().zip(start) {
            a.rebase(b);
        }
    }
}

/// `None` is the empty record: it folds as zero and rebases nothing.
impl<T: Counters> Counters for Option<T> {
    fn fold(&mut self, shard: &Self) {
        match (self.as_mut(), shard) {
            (Some(a), Some(b)) => a.fold(b),
            (None, Some(b)) => *self = Some(b.clone()),
            (_, None) => {}
        }
    }

    fn rebase(&mut self, start: &Self) {
        if let (Some(a), Some(b)) = (self.as_mut(), start) {
            a.rebase(b);
        }
    }
}

/// Derives [`Counters`] for a struct from one listing of its fields:
/// `sum` fields add on fold and subtract on rebase, `max` fields keep the
/// larger value on fold, and `same` fields are identities both sides must
/// agree on. A leading `pub` also provides the inherent `merge` spelling,
/// so callers need not import the trait.
macro_rules! counters {
    (pub $ty:ty: $($listing:tt)+) => {
        $crate::counters::counters!($ty: $($listing)+);

        impl $ty {
            /// Folds an independently accumulated shard into `self`
            /// ([`Counters::fold`](crate::counters::Counters::fold)).
            #[inline]
            pub fn merge(&mut self, shard: &Self) {
                $crate::counters::Counters::fold(self, shard);
            }
        }
    };
    ($ty:ty: $(same { $($same:ident),+ })? sum { $($sum:ident),+ $(,)? } $(max { $($max:ident),+ })?) => {
        impl $crate::counters::Counters for $ty {
            #[inline]
            fn fold(&mut self, shard: &Self) {
                $($(debug_assert_eq!(self.$same, shard.$same, "shards fold per {}", stringify!($same));)+)?
                $($crate::counters::Counters::fold(&mut self.$sum, &shard.$sum);)+
                $($(self.$max = self.$max.max(shard.$max);)+)?
            }

            #[inline]
            fn rebase(&mut self, start: &Self) {
                $($crate::counters::Counters::rebase(&mut self.$sum, &start.$sum);)+
            }
        }
    };
}
pub(crate) use counters;
