//! Workspace-local stand-in for `rayon`.
//!
//! The build environment has no crates.io access, so the data-parallel
//! surface the workspace uses — `par_chunks_mut(..).for_each`, optionally
//! `.enumerate()`, `par_iter().map(..).collect()` and
//! `current_num_threads()` — is reimplemented on
//! `std::thread::scope`. Work is split into one contiguous group per
//! available core; results of `collect` preserve input order. Single-item or
//! single-core inputs run inline with zero thread overhead.
//!
//! Swapping the real rayon back in is a per-crate `Cargo.toml` change; call
//! sites don't move.

use std::sync::OnceLock;

/// Number of threads a fan-out may use: the available core count, read once
/// per process. `std::thread::available_parallelism` re-reads cgroup files
/// on every call (tens of µs on a containerized Linux host), which would
/// otherwise be paid per chunk.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Number of worker threads for `n` independent items.
fn threads_for(n: usize) -> usize {
    current_num_threads().min(n.max(1))
}

/// Runs `f(index, item)` over all items, fanning out across cores.
fn parallel_indexed<I: Send, F: Fn(usize, I) + Sync>(items: Vec<I>, f: F) {
    let nt = threads_for(items.len());
    if nt <= 1 {
        for (i, item) in items.into_iter().enumerate() {
            f(i, item);
        }
        return;
    }
    let per = items.len().div_ceil(nt);
    let mut groups: Vec<Vec<(usize, I)>> = Vec::with_capacity(nt);
    let mut it = items.into_iter().enumerate();
    loop {
        let g: Vec<(usize, I)> = it.by_ref().take(per).collect();
        if g.is_empty() {
            break;
        }
        groups.push(g);
    }
    let f = &f;
    std::thread::scope(|s| {
        for g in groups {
            s.spawn(move || {
                for (i, item) in g {
                    f(i, item);
                }
            });
        }
    });
}

/// `slice.par_chunks_mut(n)` entry point.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel equivalent of [`slice::chunks_mut`].
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Pending parallel iteration over mutable chunks.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Attaches chunk indices, matching rayon's `enumerate()`.
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut(self)
    }

    /// Applies `f` to every chunk, in parallel.
    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        let chunks: Vec<&mut [T]> = self.slice.chunks_mut(self.size).collect();
        parallel_indexed(chunks, |_, c| f(c));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumerateChunksMut<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> EnumerateChunksMut<'_, T> {
    /// Applies `f` to every `(index, chunk)` pair, in parallel.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        let chunks: Vec<&mut [T]> = self.0.slice.chunks_mut(self.0.size).collect();
        parallel_indexed(chunks, |i, c| f((i, c)));
    }
}

/// `collection.par_iter()` entry point.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: 'a;
    /// Parallel equivalent of `.iter()`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowed parallel iterator.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every item through `f` (lazily; drive with `collect`).
    pub fn map<R, F: Fn(&'a T) -> R>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// Mapped parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Evaluates in parallel, preserving input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let n = self.items.len();
        let nt = threads_for(n);
        if nt <= 1 {
            return self.items.iter().map(&self.f).collect::<Vec<R>>().into();
        }
        let per = n.div_ceil(nt);
        let f = &self.f;
        let out: Vec<R> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .items
                .chunks(per)
                .map(|chunk| s.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
                .collect();
            let mut all = Vec::with_capacity(n);
            for h in handles {
                all.extend(h.join().expect("rayon-shim worker panicked"));
            }
            all
        });
        out.into()
    }
}

/// Drop-in for `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_touches_every_chunk() {
        let mut v = vec![0u64; 1000];
        v.par_chunks_mut(7).for_each(|c| {
            for x in c {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn enumerate_matches_sequential_indices() {
        let mut v = vec![0usize; 64];
        v.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
            for x in c {
                *x = i;
            }
        });
        let expect: Vec<usize> = (0..64).map(|k| k / 8).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x as u64 * 2).collect();
        assert_eq!(doubled, (0..1000u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_is_stable_and_positive() {
        let n = super::current_num_threads();
        assert!(n >= 1);
        assert_eq!(super::current_num_threads(), n);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let v: Vec<u8> = Vec::new();
        let out: Vec<u8> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let mut one = [5u8];
        one.par_chunks_mut(3).for_each(|c| c[0] += 1);
        assert_eq!(one[0], 6);
    }
}
