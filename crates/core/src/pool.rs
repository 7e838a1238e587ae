//! Order-preserving scoped parallel map (std::thread only — the workspace
//! builds offline, so no rayon) used by the rip-up victim scan and the
//! LP constraint generator.
//!
//! Every caller maps a handful of roughly uniform items, so the items are
//! split into one contiguous chunk per worker and no load balancing is
//! attempted. Determinism is unaffected by scheduling: callers must make
//! `f` a pure function of `(index, item)`, and results are returned in
//! item order regardless of which worker computed them.

/// Applies `f` to every item on up to `threads` OS threads and returns
/// the results in item order. With `threads <= 1` (or fewer than two
/// items) everything runs on the caller's thread and no threads are
/// spawned.
///
/// A panic inside `f` propagates to the caller after the scope joins
/// (callers that need isolation wrap `f` in `catch_unwind`).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                scope.spawn(move || {
                    let base = c * chunk;
                    part.iter().enumerate().map(|(i, t)| f(base + i, t)).collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = parallel_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |_, &x| x * x), vec![1, 4, 9]);
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let items: Vec<usize> = (0..4096).collect();
        let claims: Vec<AtomicUsize> = (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
        for threads in [2, 3, 8] {
            let out = parallel_map(&items, threads, |i, &x| {
                claims[i].fetch_add(1, Ordering::Relaxed);
                x
            });
            assert_eq!(out.len(), items.len());
        }
        for c in &claims {
            assert_eq!(c.load(Ordering::Relaxed), 3, "once per parallel_map call");
        }
    }
}
