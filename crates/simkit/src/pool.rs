//! The one worker pool of the workspace: a claim loop over scoped threads.
//!
//! Work that splits into independent, numbered slots — the points of a
//! sweep, the jobs of a sharded run, the slices of a routing table — is
//! handed to [`claim_slots`], which runs the slots on up to a given number
//! of threads, each claiming the next slot from a shared counter, and
//! returns the results in slot order. Which worker ran which slot is never
//! visible in the result, so any worker count gives the same output.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The cores this process may run on; 1 when the platform cannot say.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Evaluate `work(0..n)` on up to `workers` threads, the calling thread
/// one of them, each claiming the next slot from a shared counter, and
/// return the results in slot order. The caller starts on the slots while
/// the other workers start, so a worker that is slow to be scheduled
/// leaves its share to the rest. A panic in `work` stops the claiming:
/// each other worker finishes at most the slot it is running, and the
/// panic is propagated, with its payload, once every worker has stopped.
pub fn claim_slots<R, W>(workers: usize, n: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    /// Sets the stop when dropped by a panic's unwinding.
    struct StopOnUnwind<'a>(&'a AtomicBool);
    impl Drop for StopOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Relaxed);
            }
        }
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let claim = || {
        let _stop_on_unwind = StopOnUnwind(&stop);
        let mut local = Vec::new();
        while !stop.load(Ordering::Relaxed) {
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

    /// After a slot panics, no worker claims another slot: slot 0 panics
    /// once every worker holds a slot, the others finish theirs well after
    /// the panic unwinds (however long the panic hook took), and then only
    /// those slots have started. The panic's payload reaches the caller.
    #[test]
    fn a_panic_stops_the_claiming() {
        /// Raised when slot 0's unwinding drops it, after the panic hook.
        struct Unwound<'a>(&'a AtomicBool);
        impl Drop for Unwound<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let (workers, n) = (4, 1_000);
        let started = AtomicUsize::new(0);
        let unwound = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(|| {
            claim_slots(workers, n, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    while started.load(Ordering::SeqCst) < workers {
                        std::thread::yield_now();
                    }
                    let _unwound = Unwound(&unwound);
                    panic!("slot zero");
                }
                while !unwound.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // Time for the unwinding to reach the claim loop.
                std::thread::sleep(std::time::Duration::from_millis(100));
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().expect("a literal panic");
        assert_eq!(*msg, "slot zero");
        let started = started.into_inner();
        assert!(started <= 2 * workers, "{started} of {n} slots started");
    }
}
