//! Open-loop arrival schedules and the pacer that fires them.
//!
//! A request's latency is counted from the instant it was *due*, not from
//! when the generator got round to sending it, so a stall in the server
//! (or in the generator) is charged to every request it delayed. How late
//! the generator itself ran is reported beside the latencies.

use std::time::{Duration, Instant};

/// Due times (ns from the start of the phase), one per request, never
/// decreasing. `burst` consecutive requests share one due time; bursts
/// are evenly spaced so that `rate_per_s` requests fall due each second.
pub fn due_times_ns(rate_per_s: f64, burst: usize, seconds: f64) -> Vec<u64> {
    let burst = burst.max(1);
    let total = (rate_per_s * seconds).floor() as usize;
    let gap_ns = burst as f64 * 1e9 / rate_per_s;
    (0..total)
        .map(|i| ((i / burst) as f64 * gap_ns).round() as u64)
        .collect()
}

/// What the pacer needs from time; the tests substitute a fake.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Blocks until roughly `ns`; may return early or late.
    fn wait_until_ns(&self, ns: u64);
}

/// Wall clock: sleeps while the due time is far off, then spins, because
/// `thread::sleep` alone overshoots by about a tenth of the latencies
/// being measured. On the 2-vCPU reference box a 200 µs spin left the
/// generator 80 µs late at p95 (it woke behind a busy worker); 600 µs
/// brought p95 under 1 µs at the price of 60 % of a core at 1000 req/s.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    start: Instant,
}

/// Distance from the due time at which sleeping hands over to spinning.
const SPIN_NS: u64 = 600_000;

impl WallClock {
    pub fn start_now() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn wait_until_ns(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now + SPIN_NS {
            std::thread::sleep(Duration::from_nanos(ns - now - SPIN_NS));
        }
        while self.now_ns() < ns {
            std::hint::spin_loop();
        }
    }
}

/// Fires `fire(index, due_ns)` for every due time in order, never before
/// it is due, and returns how late each firing started (ns). A late
/// generator does not skip or re-space requests: the backlog is sent at
/// once, as independent users would have sent it.
pub fn pace<C: Clock>(clock: &C, due_ns: &[u64], mut fire: impl FnMut(usize, u64)) -> Vec<u64> {
    let mut late = Vec::with_capacity(due_ns.len());
    for (i, &due) in due_ns.iter().enumerate() {
        if clock.now_ns() < due {
            clock.wait_until_ns(due);
        }
        late.push(clock.now_ns().saturating_sub(due));
        fire(i, due);
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn even_schedule_spaces_requests_by_the_rate() {
        let due = due_times_ns(1000.0, 1, 0.01);
        assert_eq!(due.len(), 10);
        assert_eq!(due[0], 0);
        assert_eq!(due[1], 1_000_000);
        assert_eq!(due[9], 9_000_000);
    }

    #[test]
    fn bursts_share_a_due_time_and_keep_the_rate() {
        let due = due_times_ns(1600.0, 16, 0.05);
        assert_eq!(due.len(), 80);
        // 1600/s in bursts of 16 = one burst every 10 ms.
        assert!(due[..16].iter().all(|&d| d == 0));
        assert!(due[16..32].iter().all(|&d| d == 10_000_000));
        assert_eq!(due[79], 40_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A clock that only moves when told to: waiting jumps to the target
    /// plus a fixed overshoot, and every firing costs a fixed service time.
    struct FakeClock {
        now: Cell<u64>,
        overshoot: u64,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn wait_until_ns(&self, ns: u64) {
            self.now.set(ns + self.overshoot);
        }
    }

    #[test]
    fn pacer_never_fires_early_and_accounts_lateness() {
        let clock = FakeClock {
            now: Cell::new(0),
            overshoot: 7,
        };
        let due = vec![0, 100, 200, 200, 200, 1000];
        let mut fired = Vec::new();
        let late = pace(&clock, &due, |i, d| {
            fired.push((i, d, clock.now_ns()));
            // Sending takes 150 ns, so the burst at 200 backs up.
            clock.now.set(clock.now_ns() + 150);
        });
        assert_eq!(
            fired.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert!(fired.iter().all(|&(_, d, at)| at >= d), "fired before due");
        // 0: on time. 1: previous send ended at 150 > 100, 50 late.
        // 2: previous ended at 300, 100 late; 3: 250 late; 4: 400 late.
        // 5: waits, overshoots by 7.
        assert_eq!(late, vec![0, 50, 100, 250, 400, 7]);
    }
}
