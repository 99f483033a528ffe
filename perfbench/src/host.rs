//! The host side of a run: the reference loop that fingerprints host speed
//! (and gives the normalised figures recorded beside the raw ones), the
//! counting allocator, and readers for `/proc` (the process's CPU time
//! and peak resident memory, the machine's stolen CPU time).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Reference-loop iterations per second, over every core, that a
/// normalised figure is scaled to: the median the loop measured on the
/// 2-core reference host (see the README), so normalised figures read on
/// the same scale as raw ones there.
pub const NOMINAL_REF_RATE: f64 = 2.1e8;

/// Iterations of one reference-loop pass per core (about 10 ms each).
const REF_ITERS: u64 = 2_500_000;

/// Counts every allocation the process makes, so the layer replay can
/// charge allocations to the call they happen in.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` made by the whole process so far.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// One pass of the reference loop: eight independent add-rotate-xor
/// chains (the operation mix of SHA-256), so the loop is bound by the
/// core's integer throughput, as the sink's hashing is, and not by one
/// dependency chain's latency.
fn ref_pass(iters: u64) -> u64 {
    let mut s = [
        0x9E37_79B9_7F4A_7C15u64,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
        0x2545_F491_4F6C_DD1D,
        0x6A09_E667_F3BC_C908,
        0xBB67_AE85_84CA_A73B,
        0x3C6E_F372_FE94_F82B,
        0xA54F_F53A_5F1D_36F1,
    ];
    for i in 0..iters {
        for (k, x) in s.iter_mut().enumerate() {
            *x = x.rotate_right(6) ^ x.rotate_right(11) ^ x.wrapping_add(i ^ k as u64);
        }
    }
    black_box(s.iter().fold(0, |a, &x| a ^ x))
}

/// Runs the reference loop on every core at once and returns the summed
/// rate in iterations per second.
pub fn ref_rate(cores: usize) -> f64 {
    let barrier = Barrier::new(cores);
    let elapsed: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cores)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let t = Instant::now();
                    ref_pass(black_box(REF_ITERS));
                    t.elapsed()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference loop thread"))
            .collect()
    });
    let slowest = elapsed.into_iter().max().unwrap_or(Duration::from_nanos(1));
    (REF_ITERS * cores as u64) as f64 / slowest.as_secs_f64()
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (sum of the first field of each task's `schedstat`).
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `(steal, total)` jiffies over every CPU of the machine so far, from
/// `/proc/stat`: steal is time the hypervisor gave to other guests while
/// this machine's CPUs had work.
pub fn cpu_steal_jiffies() -> (u64, u64) {
    let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
