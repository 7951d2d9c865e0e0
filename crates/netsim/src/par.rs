//! Ordered fan-out: run a function over a slice on worker threads and get
//! the results back in input order.
//!
//! Every parallel stage of the pipeline goes through [`try_map`]: campaign
//! work units, report sections, `repro` artifacts and export chunks.
//! Workers claim the next index from one shared atomic counter, so a slow
//! item (a full drive day) never holds up the rest, and each worker keeps
//! its `(index, result)` pairs. After the join the pairs are put back in
//! index order, so the output never depends on scheduling. With one worker
//! the loop runs on the caller's thread and nothing is spawned.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// What one worker hands back: its results, or the error that stopped it.
type WorkerOutput<R, E> = Result<Vec<(usize, R)>, (usize, E)>;

/// `f` over `items` on up to `jobs` workers; results in input order.
pub fn map<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    match try_map(items, jobs, |item| Ok::<R, Infallible>(f(item))) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// [`map`] for a fallible `f`. Once any call returns `Err`, no worker
/// claims a new index; calls already running on other workers finish.
/// The error of the lowest failing index is returned. A panic in `f`
/// re-raises on the caller's thread after every worker has stopped.
pub fn try_map<T: Sync, R: Send, E: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let work = || -> WorkerOutput<R, E> {
        let mut done = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(item) = items.get(i) else { break };
            match f(item) {
                Ok(r) => done.push((i, r)),
                Err(e) => {
                    stop.store(true, Ordering::SeqCst);
                    return Err((i, e));
                }
            }
        }
        Ok(done)
    };
    let workers = jobs.clamp(1, items.len().max(1));
    let outputs: Vec<WorkerOutput<R, E>> = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        })
    };
    let mut results = Vec::with_capacity(items.len());
    let mut first_err: Option<(usize, E)> = None;
    for output in outputs {
        match output {
            Ok(done) => results.extend(done),
            Err((i, e)) => {
                if first_err.as_ref().is_none_or(|&(j, _)| i < j) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    // Every index below `items.len()` was claimed exactly once and, with
    // no error, produced a result: the sorted pairs are the whole output.
    results.sort_unstable_by_key(|&(i, _)| i);
    Ok(results.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::{Arc, Mutex};

    #[test]
    fn results_keep_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [1, 2, 7, items.len() + 3] {
            assert_eq!(map(&items, jobs, |x| x * x + 1), expected, "jobs={jobs}");
        }
        assert!(map(&[] as &[u64], 4, |x| *x).is_empty());
    }

    thread_local! {
        /// Raises its flag when the thread holding it exits.
        static ON_EXIT: RefCell<Option<SetOnDrop>> = const { RefCell::new(None) };
    }

    struct SetOnDrop(Arc<AtomicBool>);

    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn no_index_is_claimed_after_the_first_err() {
        const FAIL_AT: usize = 9;
        let items: Vec<usize> = (0..40).collect();
        let claims = |jobs: usize, hold: &(dyn Fn(usize) + Sync)| {
            let claimed = Mutex::new(Vec::new());
            let r = try_map(&items, jobs, |&i| {
                claimed.lock().unwrap().push(i);
                hold(i);
                if i == FAIL_AT {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(r, Err(FAIL_AT), "jobs={jobs}");
            let mut claimed = claimed.into_inner().unwrap();
            claimed.sort_unstable();
            claimed
        };
        assert_eq!(claims(1, &|_| {}), (0..=FAIL_AT).collect::<Vec<_>>());
        for jobs in [2, 7, items.len() + 3] {
            // The failing worker's thread exits only after its loop has
            // returned, and so after it raised the stop flag. Every other
            // worker is held on the index it claimed past the failure until
            // then; a worker that claims again has ignored the flag.
            let exited = Arc::new(AtomicBool::new(false));
            let hold = |i: usize| {
                if i == FAIL_AT {
                    let guard = SetOnDrop(Arc::clone(&exited));
                    ON_EXIT.with(|slot| *slot.borrow_mut() = Some(guard));
                } else if i > FAIL_AT {
                    while !exited.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
            };
            let claimed = claims(jobs, &hold);
            // Claims follow the counter: a prefix, each index once, and at
            // most one index past the failure per other worker.
            let workers = jobs.min(items.len());
            assert_eq!(claimed, (0..claimed.len()).collect::<Vec<_>>(), "jobs={jobs}");
            assert!(claimed.len() <= FAIL_AT + workers, "jobs={jobs}: {claimed:?}");
        }
    }
}
