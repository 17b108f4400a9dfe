//! The one worker pool of the workspace: a claim loop over scoped threads.
//!
//! Work that splits into independent, numbered slots — the points of a
//! sweep, the jobs of a sharded run, the slices of a routing table — is
//! handed to [`claim_slots`], which runs the slots on up to a given number
//! of threads, each claiming the next slot from a shared counter, and
//! returns the results in slot order. Which worker ran which slot is never
//! visible in the result, so any worker count gives the same output.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The cores this process may run on; 1 when the platform cannot say.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Evaluate `work(0..n)` on up to `workers` threads, the calling thread
/// one of them, each claiming the next slot from a shared counter, and
/// return the results in slot order. The caller starts on the slots while
/// the other workers start, so a worker that is slow to be scheduled
/// leaves its share to the rest. A panic in `work` is propagated, with its
/// payload, once every worker has stopped.
pub fn claim_slots<R, W>(workers: usize, n: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, work(i)));
        }
        local
    };
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(claim)).collect();
        collected.extend(claim());
        for h in others {
            match h.join() {
                Ok(local) => collected.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    collected.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(collected.iter().enumerate().all(|(k, &(i, _))| k == i));
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool returns slot order whatever the worker count, also with
    /// more workers than slots and with slot 0 finishing last, and hands a
    /// panic in `work` to the caller.
    #[test]
    fn claim_slots_orders_by_slot_and_propagates_panics() {
        let n = 7;
        for workers in [1, 3, n + 5] {
            let done = AtomicUsize::new(0);
            let out = claim_slots(workers, n, |i| {
                // Whenever a second worker exists to run the other slots,
                // slot 0 waits for all of them.
                while i == 0 && workers > 1 && done.load(Ordering::SeqCst) < n - 1 {
                    std::thread::yield_now();
                }
                done.fetch_add(1, Ordering::SeqCst);
                i * i
            });
            assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
            let caught = std::panic::catch_unwind(|| {
                claim_slots(workers, n, |i| assert_ne!(i, 4, "slot four"))
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.contains("slot four"), "{msg}");
        }
        assert_eq!(claim_slots(4, 0, |i| i), Vec::<usize>::new());
    }
}
