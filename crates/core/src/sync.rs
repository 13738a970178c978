//! Poison-free locks with a `lock() -> guard` API, plus the
//! [`Published`] cell used for atomic index publication.
//!
//! The workspace builds fully offline with no external crates, so these
//! thin wrappers over [`std::sync::Mutex`] / [`std::sync::RwLock`]
//! replace the `parking_lot` dependency while keeping its ergonomic
//! call sites. Poisoning is deliberately swallowed: every guarded value
//! in this workspace is plain data (page maps, counters, scratch pools)
//! whose invariants hold between individual operations, so a panic
//! mid-critical-section cannot leave state worth quarantining.

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock` ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the guarded value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Access the guarded value through exclusive borrow (no locking).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A reader-writer lock whose `read`/`write` ignore poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value` in a new unlocked reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the guarded value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access, blocking the current thread.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Acquire exclusive write access, blocking the current thread.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Access the guarded value through exclusive borrow (no locking).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A publication cell: readers borrow a consistent snapshot of `T`
/// while a writer prepares a replacement off to the side and installs
/// it atomically (the arc-swap pattern, built from an [`RwLock`] so the
/// workspace stays dependency-free). A published value is never
/// mutated, only replaced.
#[derive(Debug, Default)]
pub struct Published<T> {
    cell: RwLock<T>,
}

impl<T> Published<T> {
    /// Publish an initial value.
    pub fn new(value: T) -> Self {
        Published {
            cell: RwLock::new(value),
        }
    }

    /// Borrow the currently-published value for reading. Any number of
    /// readers share the snapshot; an install waits for them to finish
    /// and readers arriving during an install see either the old or the
    /// new value in full — never a torn mix.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.cell.read()
    }

    /// Atomically replace the published value, returning the previous
    /// one. The exclusive section is a pointer-sized swap: prepare the
    /// replacement *before* calling install.
    pub fn install(&self, value: T) -> T {
        std::mem::replace(&mut *self.cell.write(), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn lock_survives_poison() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A poisoned std mutex would error here; the shim recovers.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2, 3]);
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
        assert_eq!(l.into_inner(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn published_install_returns_old() {
        let p = Published::new("old");
        assert_eq!(*p.read(), "old");
        let prev = p.install("new");
        assert_eq!(prev, "old");
        assert_eq!(*p.read(), "new");
    }

    #[test]
    fn published_readers_never_see_torn_state() {
        // Publish (a, a) pairs; concurrent readers must always observe
        // a matched pair even while installs race them.
        let p = std::sync::Arc::new(Published::new((0u64, 0u64)));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let p = p.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let g = p.read();
                        assert_eq!(g.0, g.1, "torn publication observed");
                    }
                })
            })
            .collect();
        for i in 1..=500u64 {
            p.install((i, i));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*p.read(), (500, 500));
    }
}
