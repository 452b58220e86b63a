//! Host-speed calibration.
//!
//! On a shared host the speed a process gets drifts by tens of percent
//! over seconds and minutes, which swamps the program changes a
//! benchmark must see. So every timed workload also times a fixed
//! calibration kernel, in short probes between its units, and converts
//! each unit's host time to *reference time*: the time the unit would
//! have taken had the kernel run at [`REFERENCE_KERNEL_MS`], judged by
//! the probes nearest the unit. The kernel calls no crate code, so no
//! change to the program moves it; a program that gets faster gets
//! faster in reference time by the same share.
//!
//! Single-threaded workloads probe between their units. A workload that
//! keeps every core busy itself is probed from a second thread while it
//! runs; a probe counts the kernel's time on the CPU, so waiting for a
//! core the workload's own threads hold is not taken for a slow host.

use crate::inputs::Rng;
use crate::report::median;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The kernel's time on the 2-vCPU Xeon host the benchmark was sized on,
/// rounded: reference times read close to host times there.
pub const REFERENCE_KERNEL_MS: f64 = 5.0;

/// Probes within this many seconds of a unit judge its host speed.
const WINDOW_S: f64 = 0.5;

/// The calibration kernel: string building, hashing and sorting over a
/// small vocabulary, then random reads and writes over a 2 MiB table.
pub fn kernel() -> u64 {
    let mut rng = Rng::new(0xCA11B);
    let mut counts: HashMap<String, u32> = HashMap::new();
    let mut word = String::new();
    for _ in 0..20_000 {
        word.clear();
        let _ = write!(word, "term{}", rng.below(4_096));
        *counts.entry(word.clone()).or_default() += 1;
    }
    let mut ranked: Vec<(u32, &String)> = counts.iter().map(|(k, c)| (*c, k)).collect();
    ranked.sort();
    let mut table = vec![0u64; 1 << 18];
    for _ in 0..200_000 {
        let i = rng.below(table.len());
        table[i] = table[i].wrapping_add(rng.next_u64());
    }
    let acc = ranked
        .iter()
        .take(64)
        .fold(ranked.len() as u64, |a, (c, k)| {
            a.wrapping_mul(31)
                .wrapping_add(u64::from(*c) + k.len() as u64)
        });
    table.iter().fold(acc, |a, &x| a ^ x)
}

/// On-CPU nanoseconds of the calling thread so far, from
/// `/proc/thread-self/schedstat`; `None` where that is not available.
/// The yield brings the scheduler's account of the thread up to date.
fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Milliseconds of one kernel run: its time on the CPU where the
/// platform reports it, its wall time elsewhere.
fn kernel_run_ms() -> f64 {
    let cpu_before = thread_cpu_ns();
    let start = Instant::now();
    std::hint::black_box(kernel());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    match (cpu_before, thread_cpu_ns()) {
        (Some(before), Some(after)) if after > before => (after - before) as f64 / 1e6,
        _ => wall_ms,
    }
}

/// Kernel probes of one run, on a clock that starts with the run.
pub struct HostClock {
    origin: Instant,
    /// (seconds since origin, kernel milliseconds).
    probes: Vec<(f64, f64)>,
    /// Probes within this many seconds of a span judge its host speed.
    window_s: f64,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            origin: Instant::now(),
            probes: Vec::new(),
            window_s: WINDOW_S,
        }
    }
}

impl HostClock {
    /// A clock that judges a span by the probes within `window_s` of
    /// it. Probes taken beside the workload's own threads need a wider
    /// window than [`WINDOW_S`]: such a probe reads differently with
    /// whatever runs on the other core, and that lasts for a while.
    pub fn with_window(window_s: f64) -> Self {
        HostClock {
            window_s,
            ..HostClock::default()
        }
    }

    /// Seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Time `n` kernel runs.
    pub fn probe(&mut self, n: usize) {
        for _ in 0..n {
            let at = self.now();
            self.probes.push((at, kernel_run_ms()));
        }
    }

    /// Run `body` on this thread while a second thread times one kernel
    /// run every `interval_s`, from the start of `body` to its end.
    pub fn probe_during<T>(&mut self, interval_s: f64, body: impl FnOnce() -> T) -> T {
        let done = AtomicBool::new(false);
        let origin = self.origin;
        let (out, probes) = std::thread::scope(|s| {
            let prober = s.spawn(|| {
                let mut probes = Vec::new();
                while !done.load(Ordering::Acquire) {
                    let at = origin.elapsed().as_secs_f64();
                    probes.push((at, kernel_run_ms()));
                    std::thread::park_timeout(Duration::from_secs_f64(interval_s));
                }
                probes
            });
            let out = body();
            done.store(true, Ordering::Release);
            prober.thread().unpark();
            (out, prober.join().expect("the prober does not panic"))
        });
        self.probes.extend(probes);
        out
    }

    /// Time one kernel run if the last is at least `interval_s` old.
    pub fn probe_every(&mut self, interval_s: f64) {
        let last = self.probes.last().map_or(f64::NEG_INFINITY, |p| p.0);
        if self.now() - last >= interval_s {
            self.probe(1);
        }
    }

    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// Median kernel milliseconds over the whole run.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.kernel_times(f64::NEG_INFINITY, f64::INFINITY))
    }

    fn kernel_times(&self, from: f64, to: f64) -> Vec<f64> {
        self.probes
            .iter()
            .filter(|p| p.0 >= from && p.0 <= to)
            .map(|p| p.1)
            .collect()
    }

    /// Reference-time factor for a span `[from, to]` of the clock: the
    /// reference kernel time over the median of the probes within the
    /// clock's window of the span (of all probes, when none is that near).
    pub fn factor(&self, from: f64, to: f64) -> f64 {
        let near = self.kernel_times(from - self.window_s, to + self.window_s);
        let ms = if near.is_empty() {
            self.kernel_ms()
        } else {
            median(&near)
        };
        if ms > 0.0 {
            REFERENCE_KERNEL_MS / ms
        } else {
            1.0
        }
    }
}

/// One unit's span on a [`HostClock`] and its host milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub from: f64,
    pub to: f64,
    pub host_ms: f64,
}

impl Span {
    /// Time `body` on `clock`.
    pub fn time<T>(clock: &HostClock, body: impl FnOnce() -> T) -> (T, Span) {
        let from = clock.now();
        let start = Instant::now();
        let out = body();
        let host_ms = start.elapsed().as_secs_f64() * 1e3;
        (
            out,
            Span {
                from,
                to: clock.now(),
                host_ms,
            },
        )
    }

    /// The span's time in reference milliseconds.
    pub fn reference_ms(&self, clock: &HostClock) -> f64 {
        self.host_ms * clock.factor(self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_follows_the_nearest_probes() {
        let probes = vec![(0.0, 10.0), (0.1, 10.0), (5.0, 2.5), (5.1, 2.5)];
        let clock = HostClock {
            probes: probes.clone(),
            ..HostClock::default()
        };
        assert_eq!(clock.factor(0.0, 0.2), REFERENCE_KERNEL_MS / 10.0);
        assert_eq!(clock.factor(5.0, 5.05), REFERENCE_KERNEL_MS / 2.5);
        // Nothing within the window: all probes judge.
        assert_eq!(clock.factor(2.0, 2.1), REFERENCE_KERNEL_MS / 6.25);
        let span = Span {
            from: 0.0,
            to: 0.2,
            host_ms: 8.0,
        };
        assert_eq!(span.reference_ms(&clock), 4.0);
        let whole = HostClock {
            probes,
            ..HostClock::with_window(f64::INFINITY)
        };
        assert_eq!(whole.factor(0.0, 0.2), REFERENCE_KERNEL_MS / 6.25);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
