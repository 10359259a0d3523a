//! Deterministic thread fan-out for embarrassingly parallel sweeps.
//!
//! The synthesis pipeline contains several loops whose iterations are pure
//! functions of their index — multi-seed SA restarts, recovery-ladder reseed
//! attempts, Table-I comparison runs, and `mfb faults --sweep` Monte-Carlo
//! trials. [`par_map_ordered`] runs such a loop on a scoped thread pool
//! (std only, no extra dependencies) and hands the results back **in input
//! order**, so a caller that folds them sequentially produces byte-identical
//! output regardless of how many worker threads ran.
//!
//! Worker count comes from [`thread_limit`] — the `MFB_THREADS` environment
//! variable when set (clamped to ≥ 1), otherwise
//! [`std::thread::available_parallelism`] — capped at the machine's core
//! count: oversubscribing CPU-bound workers only costs wall time, and the
//! ordered reassembly makes worker count invisible in the output.
//! `MFB_THREADS=1` short-circuits to a plain serial loop — exactly the
//! pre-parallelism code path.
//!
//! Panic semantics mirror the serial loop: if an item's closure panics, the
//! payload of the **lowest-index** panicking item is resumed on the caller's
//! thread after all workers join (a serial loop would have panicked at that
//! same item; later items would simply never have run, and their results are
//! discarded here too).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The number of worker threads a deterministic sweep uses.
///
/// `MFB_THREADS` (parsed as `usize`, values `< 1` clamp to `1`) when set,
/// else every core; either way capped at
/// [`std::thread::available_parallelism`] (or `1` when that is unknown).
/// `MFB_THREADS` is a cap, not a demand: more CPU-bound workers than cores
/// only add oversubscription, and callers that size work batches by this
/// value would otherwise run batches larger than the pool.
#[must_use]
pub fn thread_limit() -> usize {
    let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    match std::env::var("MFB_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).clamp(1, cores),
        Err(_) => cores,
    }
}

/// Maps `f` over `0..len` on up to [`thread_limit`] scoped threads and
/// returns the results in index order.
///
/// `f` must be a pure function of its index (it may read shared state
/// through the closure, but iteration `i`'s result must not depend on
/// whether iteration `j` ran). With `MFB_THREADS=1`, or when `len < 2`,
/// this degenerates to the plain serial `for` loop it replaces.
pub fn par_map_ordered<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = thread_limit().min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // Workers inherit the spawning thread's trace subscriber so a single
    // trace covers the whole parallel region.
    let obs = mfb_obs::current();
    let mut gathered: Vec<Vec<(usize, thread::Result<R>)>> = thread::scope(|scope| {
        let next = &next;
        let f = &f;
        // Spawn every worker before joining any (a lazy iterator here
        // would serialize the pool).
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let obs = obs.clone();
            handles.push(scope.spawn(move || {
                let _obs_guard = obs.as_ref().map(mfb_obs::install);
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    local.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
                }
                local
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("mfb worker thread must not die outside f"))
            .collect()
    });

    let mut slots: Vec<Option<thread::Result<R>>> = (0..len).map(|_| None).collect();
    for (i, r) in gathered.drain(..).flatten() {
        slots[i] = Some(r);
    }
    let mut out = Vec::with_capacity(len);
    for slot in slots {
        match slot.expect("every index claimed exactly once") {
            Ok(r) => out.push(r),
            // Re-raise the first (lowest-index) panic, as the serial loop
            // would have.
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = par_map_ordered(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_item_work() {
        assert_eq!(par_map_ordered(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_ordered(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn lowest_index_panic_wins() {
        let caught = catch_unwind(|| {
            par_map_ordered(16, |i| {
                if i % 5 == 2 {
                    panic!("boom {i}");
                }
                i
            })
        });
        let payload = caught.expect_err("must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom 2");
    }
}
