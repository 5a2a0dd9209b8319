//! A shared-slice primitive for the native engines' disjoint-write pattern.
//!
//! Partition-centric PageRank writes are *structurally* disjoint: each
//! thread owns a fixed vertex range (accumulator and rank writes stay inside
//! it) and a fixed slot range of every message bin. `std` has no safe way to
//! hand different threads interleaved mutable views chosen at runtime, so
//! the engines share one [`SharedSlice`] and uphold the disjointness
//! contract themselves — the same pattern the paper's C++ uses implicitly,
//! here confined to one audited module.
//!
//! # Enforcement
//!
//! The contract is enforced on two fronts (DESIGN.md §10, §15):
//!
//! * **statically** by `hipa-audit`: every file touching `SharedSlice` must
//!   carry a `//! disjointness:` header naming the partition plan that keeps
//!   its indices disjoint (a plan symbol that must exist in the tree), and
//!   every `unsafe` site a `SAFETY:` comment — and bare `std::thread`
//!   parallelism is banned outside the instrumented pool, so no thread
//!   escapes the checker below;
//! * **dynamically** by the `check-disjoint` / `check-hb` cargo features:
//!   every element carries shadow state ([`crate::hb::shadow`]) checked
//!   against FastTrack-style vector clocks that the rayon shim threads
//!   through every pool synchronization edge (scope spawn/join, barriers,
//!   claim cursors — `rayon::hb`). Two *unordered* writes to one element
//!   panic with both thread tags, the index, and the unordered clocks under
//!   either feature; `check-hb` additionally tracks reads (an adaptive
//!   epoch that promotes to a read vector clock under concurrent readers)
//!   and catches read-write and write-read races the write-only subset
//!   cannot see. Writes *ordered* by a modeled edge — e.g. two scopes
//!   separated by a join — are not flagged: the checker verifies the
//!   synchronization discipline, not a per-lifetime single-writer rule.
//!
//! The shadow tables are pooled and generation-stamped (the `WriterTags`
//! predecessor zeroed an `O(len)` table on every construction; serve and
//! SpMV build fresh slices per phase, so construction is now O(1) amortised
//! — see `crate::hb` for the cost model). Debug builds additionally verify
//! bounds on every access. The `*_unchecked` accessors drop the release-mode
//! bounds check for loops whose indices one check bounded up front (the
//! PCPM kernels, `crate::pcpm::PcpmKernels`); `hipa-audit` confines them to
//! that module, and they keep the shadow hooks and the debug bound. With the
//! features off, the shadow machinery does
//! not exist: accesses compile to a single raw-pointer read/write, and
//! ranks are bitwise identical either way (the shadow state never feeds the
//! arithmetic).

use std::cell::UnsafeCell;

/// A slice whose elements may be written concurrently by multiple threads,
/// provided no element is accessed by two threads without synchronisation.
pub struct SharedSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
    #[cfg(feature = "check-disjoint")]
    shadow: crate::hb::shadow::ShadowTable,
}

#[cfg(feature = "check-disjoint")]
impl<T> Drop for SharedSlice<'_, T> {
    fn drop(&mut self) {
        crate::hb::shadow::ShadowTable::release(std::mem::take(&mut self.shadow));
    }
}

// SAFETY: `SharedSlice` only adds the *capability* for shared mutation; the
// soundness obligation (disjoint element access across threads, or access
// separated by a barrier) is documented on `write`/`get`/`update` and
// upheld by the engines: every write index is derived from the writing
// thread's own partition plan.
unsafe impl<T: Send + Sync> Sync for SharedSlice<'_, T> {}
// SAFETY: same argument as `Sync` above — moving the wrapper to another
// thread moves only the capability, not any element access.
unsafe impl<T: Send + Sync> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a uniquely borrowed slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        #[cfg(feature = "check-disjoint")]
        let shadow = crate::hb::shadow::ShadowTable::acquire(slice.len());
        // SAFETY: `&mut [T]` guarantees unique access; `UnsafeCell<T>` has
        // the same layout as `T`, so the cast is valid. All further aliasing
        // goes through raw-pointer reads/writes below.
        let data = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        SharedSlice {
            data,
            #[cfg(feature = "check-disjoint")]
            shadow,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writes `value` at `i`.
    ///
    /// # Safety
    /// No other thread may read or write element `i` concurrently (writes by
    /// the same thread, or phases separated by a barrier, are fine).
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-disjoint")]
        self.shadow.on_write(i);
        // SAFETY: caller upholds exclusive access to element `i`; the index
        // is bounds-checked above in debug builds.
        unsafe { *self.data[i].get() = value };
    }

    /// Reads element `i`.
    ///
    /// # Safety
    /// No other thread may write element `i` concurrently. (`check-disjoint`
    /// validates writes only: a pure read-write race is outside the
    /// write-epoch subset's scope. `check-hb` tracks reads too and catches
    /// it from either side — the read panics if it races a recorded write,
    /// or the later write panics against the recorded read.)
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-hb")]
        self.shadow.on_read(i);
        // SAFETY: caller guarantees no concurrent writer for element `i`.
        unsafe { *self.data[i].get() }
    }

    /// Hints that element `i` will be accessed soon (the `SharedSlice`
    /// counterpart of [`crate::prefetch::prefetch_read`]). A prefetch hint
    /// performs no memory access and has no architectural effect, so this
    /// is *safe* under any concurrent writes and never touches the
    /// `check-disjoint` tag table. Out-of-range `i` is ignored; compiles to
    /// nothing without the `prefetch` feature or off x86_64.
    #[inline(always)]
    pub fn prefetch(&self, i: usize) {
        #[cfg(all(feature = "prefetch", target_arch = "x86_64"))]
        if i < self.data.len() {
            // SAFETY: `i` is in-bounds so the pointer is valid to form;
            // `_mm_prefetch` is a hint that performs no access, so no
            // aliasing or race obligations arise.
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    self.data[i].get() as *const i8,
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
        #[cfg(not(all(feature = "prefetch", target_arch = "x86_64")))]
        let _ = i;
    }

    /// Applies `f` to element `i` in place (read-modify-write).
    ///
    /// # Safety
    /// No other thread may access element `i` concurrently.
    #[inline]
    pub unsafe fn update(&self, i: usize, f: impl FnOnce(&mut T)) {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-disjoint")]
        self.shadow.on_write(i);
        // SAFETY: caller upholds exclusive access to element `i` for the
        // duration of `f`.
        unsafe { f(&mut *self.data[i].get()) };
    }

    /// [`Self::write`] without the release-mode bounds check, for kernels
    /// whose indices a one-time check already bounded (the PCPM kernels in
    /// `crate::pcpm`). The race-checker hooks and the debug bound stay.
    ///
    /// # Safety
    /// `i < self.len()`, plus [`Self::write`]'s contract.
    #[inline(always)]
    pub unsafe fn write_unchecked(&self, i: usize, value: T) {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-disjoint")]
        self.shadow.on_write(i);
        // SAFETY: the caller guarantees `i` is in bounds and exclusive
        // access to element `i`.
        unsafe { *self.data.get_unchecked(i).get() = value };
    }

    /// [`Self::get`] without the release-mode bounds check (see
    /// [`Self::write_unchecked`]).
    ///
    /// # Safety
    /// `i < self.len()`, plus [`Self::get`]'s contract.
    #[inline(always)]
    pub unsafe fn get_unchecked(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-hb")]
        self.shadow.on_read(i);
        // SAFETY: the caller guarantees `i` is in bounds and no concurrent
        // writer for element `i`.
        unsafe { *self.data.get_unchecked(i).get() }
    }

    /// [`Self::update`] without the release-mode bounds check (see
    /// [`Self::write_unchecked`]).
    ///
    /// # Safety
    /// `i < self.len()`, plus [`Self::update`]'s contract.
    #[inline(always)]
    pub unsafe fn update_unchecked(&self, i: usize, f: impl FnOnce(&mut T)) {
        debug_assert!(i < self.data.len());
        #[cfg(feature = "check-disjoint")]
        self.shadow.on_write(i);
        // SAFETY: the caller guarantees `i` is in bounds and exclusive
        // access to element `i` for the duration of `f`.
        unsafe { f(&mut *self.data.get_unchecked(i).get()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_roundtrip() {
        let mut v = vec![0u32; 8];
        {
            let s = SharedSlice::new(&mut v);
            for i in 0..8 {
                // SAFETY: single-threaded — no concurrent access.
                unsafe { s.write(i, i as u32 * 2) };
            }
            // SAFETY: single-threaded — no concurrent access.
            unsafe { s.update(3, |x| *x += 1) };
            // SAFETY: single-threaded — no concurrent access.
            assert_eq!(unsafe { s.get(3) }, 7);
        }
        assert_eq!(v, vec![0, 2, 4, 7, 8, 10, 12, 14]);
    }

    #[test]
    fn unchecked_accessors_roundtrip() {
        let mut v = vec![0u32; 4];
        {
            let s = SharedSlice::new(&mut v);
            // SAFETY: single-threaded, and every index is below 4.
            unsafe {
                s.write_unchecked(0, 5);
                s.update_unchecked(3, |x| *x += 2);
                assert_eq!(s.get_unchecked(0), 5);
            }
        }
        assert_eq!(v, vec![5, 0, 0, 2]);
    }

    #[test]
    fn disjoint_parallel_writes() {
        let n = 1024;
        let mut v = vec![0usize; n];
        {
            let s = SharedSlice::new(&mut v);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let s = &s;
                    scope.spawn(move || {
                        let lo = t * n / 4;
                        let hi = (t + 1) * n / 4;
                        for i in lo..hi {
                            // SAFETY: ranges are disjoint per thread.
                            unsafe { s.write(i, i) };
                        }
                    });
                }
            });
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    /// The runtime checker half of the soundness contract: two threads
    /// writing the same element must panic with both tags and the index.
    /// Bare `std::thread` spawns/joins are *not* modeled synchronization
    /// edges (only the instrumented pool, barriers, and claim cursors are),
    /// so the two writers stay unordered even though the scope fully
    /// serialises them — which makes this negative control deterministic.
    /// The second writer catches its own panic (`thread::scope` would
    /// replace the payload on join).
    #[cfg(feature = "check-disjoint")]
    #[test]
    fn overlapping_writes_panic_under_check_disjoint() {
        let n = 64;
        let mut v = vec![0usize; n];
        let s = SharedSlice::new(&mut v);
        let msg = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    for i in 0..n {
                        // SAFETY: sole writer so far; bounds are valid.
                        unsafe { s.write(i, i) };
                    }
                })
                .join()
                .expect("first writer completes");
            scope
                .spawn(|| {
                    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // SAFETY: deliberately overlapping — the checker
                        // must catch this (bounds are still valid).
                        unsafe { s.write(7, 0) };
                    }))
                    .expect_err("overlap must panic");
                    err.downcast_ref::<String>().cloned().expect("string payload")
                })
                .join()
                .expect("second writer caught its panic")
        });
        assert!(
            msg.contains("check-disjoint: overlapping SharedSlice write at index 7"),
            "unexpected message: {msg}"
        );
    }

    /// The unchecked accessors keep the shadow hooks: the same overlap as
    /// above, through `write_unchecked` and then `update_unchecked`, panics
    /// on the second writer.
    #[cfg(feature = "check-disjoint")]
    #[test]
    fn overlapping_unchecked_writes_panic_under_check_disjoint() {
        let n = 64;
        let mut v = vec![0usize; n];
        let s = SharedSlice::new(&mut v);
        let msg = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    for i in 0..n {
                        // SAFETY: sole writer so far; `i < n`.
                        unsafe { s.write_unchecked(i, i) };
                    }
                })
                .join()
                .expect("first writer completes");
            scope
                .spawn(|| {
                    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // SAFETY: deliberately overlapping — the checker
                        // must catch this (7 < n).
                        unsafe { s.update_unchecked(7, |x| *x += 1) };
                    }))
                    .expect_err("overlap must panic");
                    err.downcast_ref::<String>().cloned().expect("string payload")
                })
                .join()
                .expect("second writer caught its panic")
        });
        assert!(
            msg.contains("check-disjoint: overlapping SharedSlice write at index 7"),
            "unexpected message: {msg}"
        );
    }
}
