//! What the harness asks of the machine: CPU affinity, peak resident
//! memory, the last-level cache size, and a measured memory bandwidth.

use std::hint::black_box;
use std::time::Instant;

/// A CPU affinity mask in the kernel's `cpu_set_t` layout (1,024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMask([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuMask {
    /// A mask holding only `cpu`.
    pub fn single(cpu: usize) -> Self {
        let mut words = [0u64; 16];
        words[cpu / 64] = 1 << (cpu % 64);
        Self(words)
    }

    /// The calling thread's allowed CPUs, or `None` if the kernel
    /// refuses to say.
    pub fn current() -> Option<Self> {
        let mut words = [0u64; 16];
        // SAFETY: `words` is 128 writable bytes and that size is what
        // is passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&words), words.as_mut_ptr()) };
        (rc == 0).then_some(Self(words))
    }

    /// Restricts the calling thread (and every thread it spawns later)
    /// to this mask; `false` if the kernel refused.
    pub fn apply(&self) -> bool {
        // SAFETY: the pointer covers the 128 readable bytes whose size
        // is passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }

    /// The lowest CPU in the mask.
    pub fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }
}

/// Pins the calling thread to the first CPU of its allowed mask and
/// reads the mask back. Returns the mask held before (to restore for
/// the one scaling probe) and the CPU now pinned to — `None` if the pin
/// did not take, which is reported, not fatal.
pub fn pin_to_first_cpu() -> (Option<CpuMask>, Option<usize>) {
    let before = CpuMask::current();
    let Some(cpu) = before.and_then(|m| m.first()) else {
        return (before, None);
    };
    let want = CpuMask::single(cpu);
    let pinned = want.apply() && CpuMask::current() == Some(want);
    (before, pinned.then_some(cpu))
}

/// The `<key> <n> kB` field of a `/proc` file, in kB.
fn proc_kb(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_kb("/proc/self/status", "VmHWM:").map(|kb| kb as f64 / 1000.0)
}

/// Size in bytes of the largest cache level CPU 0 reports.
pub fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
}

/// A measured STREAM-triad bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Best-of-passes bandwidth, GB/s (three arrays of traffic per
    /// element; write-allocate traffic is not counted).
    pub gbs: f64,
    /// Bytes per array.
    pub array_bytes: u64,
    /// The last-level cache the arrays were sized against.
    pub llc_bytes: u64,
}

/// Runs `a[i] = b[i] + s·c[i]` over arrays of four times the
/// last-level cache each (so no pass is served from cache), capped at
/// an eighth of available memory per array, and reports the best of
/// three passes.
pub fn triad() -> Triad {
    /// Assumed when sysfs does not report a cache hierarchy.
    const FALLBACK_LLC: u64 = 32 << 20;
    let llc = llc_bytes().unwrap_or(FALLBACK_LLC);
    let available = proc_kb("/proc/meminfo", "MemAvailable:").map_or(u64::MAX, |kb| kb * 1024);
    let array_bytes = (4 * llc).min(available / 8);
    let n = (array_bytes / 4) as usize;
    let b = vec![1.5f32; n];
    let c = vec![2.5f32; n];
    let mut a = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for pass in 0..3 {
        let s = black_box(1.0 + pass as f32);
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    Triad {
        gbs: 3.0 * 4.0 * n as f64 / best / 1e9,
        array_bytes: 4 * n as u64,
        llc_bytes: llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_arithmetic() {
        let m = CpuMask::single(70);
        assert_eq!(m.first(), Some(70));
        assert_eq!(CpuMask([0; 16]).first(), None);
    }

    #[test]
    fn pin_reads_back_and_restores() {
        // Runs on its own test thread, so the pin does not leak into
        // other tests.
        let (before, pinned) = pin_to_first_cpu();
        let before = before.expect("affinity is readable on Linux");
        let cpu = pinned.expect("pinning to an allowed CPU succeeds");
        assert_eq!(Some(cpu), before.first());
        let now = CpuMask::current().unwrap();
        assert_eq!(now, CpuMask::single(cpu));
        assert!(before.apply());
        assert_eq!(CpuMask::current(), Some(before));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
