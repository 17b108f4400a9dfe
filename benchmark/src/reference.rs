//! Host calibration: a fixed reference kernel run between slices of the
//! timed work, so that time is reported as on a quiet host.
//!
//! This machine is a few cores of a shared host, and its speed flips
//! between two levels several times a second (a fixed piece of work takes
//! 2.0 ms or 3.0 ms, seldom anything between); how much of a minute is spent
//! at the slow level drifts from none to nearly all. Raw wall time of one
//! repetition therefore ranges over 60 % on one commit. The kernel is a
//! small event simulation of this package's own (binary heap, random cell
//! updates, one formatted record per event): it touches no repo crate, so no
//! PR changes it, and it slows down when the workloads do. Dividing each
//! slice of work by the mean slowness of the bursts on either side removes
//! between half and three quarters of that range (README.md has the
//! measurements, and what calibration cannot remove).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write;
use std::time::{Duration, Instant};

/// What one reference event costs between slices on this class of host when
/// it is quiet, ns. Calibrated time = wall time ÷ (measured cost ÷ this), so
/// on a quiet host calibrated and wall time agree.
pub const NOMINAL_NS_PER_EVENT: f64 = 200.0;

/// Events in one burst: about 2 ms.
const BURST: u32 = 10_000;

/// A burst older than this no longer says how fast the host is now.
const STALE: Duration = Duration::from_millis(1);

struct Kernel {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    cells: Vec<[u64; 8]>,
    line: Vec<u8>,
    rng: u64,
    /// Keeps the optimiser from dropping the work.
    sink: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            heap: (0..4096u32)
                .map(|id| Reverse((u64::from(id) * 7919 % 10_007, id)))
                .collect(),
            cells: vec![[0; 8]; 1 << 14],
            line: Vec::with_capacity(1 << 16),
            rng: 0x9E37_79B9_7F4A_7C15,
            sink: 0,
        }
    }

    /// One burst; ns per event. The kernel's memory is read through first,
    /// untimed, so that the timed events find it in cache whatever ran
    /// before: a burst that starts cold costs 250 ns an event or 205,
    /// depending on whether its 1 MiB survived the slice before it in the
    /// second-level cache, and that says nothing about the host's speed.
    fn burst(&mut self) -> f64 {
        let mut touched = self.cells.iter().fold(0u64, |a, c| a.wrapping_add(c[0]));
        touched = (self.heap.iter()).fold(touched, |a, e| a.wrapping_add(e.0 .0));
        self.sink = self.sink.wrapping_add(touched);
        let t = Instant::now();
        for _ in 0..BURST {
            let Reverse((now, id)) = self.heap.pop().expect("every event schedules another");
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let slot = (self.rng >> 20) as usize & (self.cells.len() - 1);
            let cell = &mut self.cells[slot];
            cell[0] = cell[0].wrapping_add(now);
            cell[(id & 7) as usize] ^= self.rng;
            if cell[1] & 3 == 0 {
                cell[2] = cell[2].wrapping_add(1);
            }
            self.sink = self.sink.wrapping_add(cell[3]);
            if self.line.len() > (1 << 15) {
                self.line.clear();
            }
            let _ = writeln!(
                self.line,
                "{{\"t_ns\":{now},\"node\":{id},\"port\":{},\"flow\":{},\"seq\":{slot}}}",
                id & 15,
                self.rng & 0xffff,
            );
            self.heap.push(Reverse((now + 1 + (self.rng & 1023), id)));
        }
        std::hint::black_box(self.sink);
        t.elapsed().as_secs_f64() * 1e9 / f64::from(BURST)
    }
}

/// A stopwatch that brackets what it times with reference bursts.
pub struct Meter {
    kernel: Kernel,
    /// The latest burst: ns per event, and when it ended.
    latest: f64,
    at: Instant,
    /// Bursts so far, and the host seconds they took together.
    bursts: u32,
    pub burst_s: f64,
}

/// One timed slice: host seconds, and the same on a quiet host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub wall_s: f64,
    pub cal_s: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.wall_s += other.wall_s;
        self.cal_s += other.cal_s;
    }
}

impl Meter {
    pub fn new() -> Self {
        let mut kernel = Kernel::new();
        // Fault the kernel's memory in and let its heap reach steady state.
        for _ in 0..5 {
            kernel.burst();
        }
        let latest = kernel.burst();
        Meter {
            kernel,
            latest,
            at: Instant::now(),
            bursts: 0,
            burst_s: 0.0,
        }
    }

    fn burst(&mut self) -> f64 {
        self.latest = self.kernel.burst();
        self.at = Instant::now();
        self.bursts += 1;
        self.burst_s += self.latest * f64::from(BURST) / 1e9;
        self.latest
    }

    /// Time `work` (keep it to tens of milliseconds: the host changes speed
    /// several times a second) between two bursts.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timed) {
        let before = if self.at.elapsed() > STALE {
            self.burst()
        } else {
            self.latest
        };
        let t = Instant::now();
        let out = work();
        let wall_s = t.elapsed().as_secs_f64();
        let after = self.burst();
        let slowness = (before + after) / 2.0 / NOMINAL_NS_PER_EVENT;
        (
            out,
            Timed {
                wall_s,
                cal_s: wall_s / slowness,
            },
        )
    }

    /// Mean ns per reference event over every burst so far: how slow the
    /// host was, against [`NOMINAL_NS_PER_EVENT`].
    pub fn ns_per_event(&self) -> f64 {
        self.burst_s * 1e9 / (f64::from(self.bursts.max(1)) * f64::from(BURST))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_is_wall_time_over_the_hosts_slowness() {
        let mut m = Meter::new();
        let ((), t) = m.time(|| std::thread::sleep(Duration::from_millis(3)));
        assert!(t.wall_s >= 0.003);
        // Two bursts bracket the work, and the ratio is their mean slowness.
        assert!(m.bursts >= 1);
        let slowness = t.wall_s / t.cal_s;
        assert!(slowness > 0.2 && slowness < 20.0, "{slowness}");
        assert!(m.ns_per_event() > 0.0);
    }
}
