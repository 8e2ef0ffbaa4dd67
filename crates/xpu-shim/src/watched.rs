//! Mutation epochs: a counter kept beside a value and bumped by every
//! mutable borrow of it.

/// `T` behind a mutation epoch. [`get_mut`](Self::get_mut) is the only way
/// to change `T`, and it bumps a counter first, so an observer that
/// remembers the [`epoch`](Self::epoch) knows `T` is untouched for as long
/// as the epoch stays put. The converse does not hold: a borrow that ends
/// up changing nothing still moves the epoch.
///
/// Interior-mutable fields of `T` (a `Cell`, a `RefCell`) change through
/// [`get`](Self::get) and so sit outside the epoch. Owners use exactly that
/// for bookkeeping their observers never read.
#[derive(Debug, Default)]
pub struct Watched<T> {
    value: T,
    epoch: u64,
}

impl<T> Watched<T> {
    /// Wraps `value` at epoch 0.
    pub fn new(value: T) -> Watched<T> {
        Watched { value, epoch: 0 }
    }

    /// Shared access; leaves the epoch alone.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// Mutable access; bumps the epoch.
    pub fn get_mut(&mut self) -> &mut T {
        self.epoch += 1;
        &mut self.value
    }

    /// How many mutable borrows `T` has seen.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::Watched;

    #[test]
    fn only_mutable_borrows_move_the_epoch() {
        let mut w = Watched::new(vec![1]);
        assert_eq!((w.get().len(), w.epoch()), (1, 0));
        w.get_mut().push(2);
        let _ = w.get_mut();
        assert_eq!((w.get().len(), w.epoch()), (2, 2));
    }
}
