//! What the operating system says about this process: peak resident set,
//! CPU time, context switches, threads, and a counting allocator for the
//! kernel's allocations-per-frame figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while [`count_allocs`] runs and otherwise only
/// delegates, so the timed loops pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made (by any thread) while `f` runs.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed) - before
}

fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").expect("VmHWM in /proc/self/status") / 1024.0
}

/// Hands the pages the allocator holds free back to the kernel (glibc's
/// `malloc_trim`; nothing elsewhere). Without it what a retired gateway
/// freed stays resident in its threads' arenas, its replacement grows new
/// ones, and `VmHWM` reads by how many gateways the run went through.
pub fn release_free_pages() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and only returns free
        // heap pages to the kernel; live allocations are untouched.
        unsafe { malloc_trim(0) };
    }
}

/// Live threads of this process.
pub fn threads() -> f64 {
    status_field("Threads:").expect("Threads in /proc/self/status")
}

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU time and context switches of the whole process so far, threads
/// that have already ended included.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_ms: f64,
    pub ctx_switches: f64,
}

pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` (two timevals and
    // fourteen longs on 64-bit Linux) and `getrusage` writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF)");
    let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    Usage {
        cpu_ms: ms(ru.utime) + ms(ru.stime),
        // ru_nvcsw and ru_nivcsw are the last two longs.
        ctx_switches: (ru.longs[12] + ru.longs[13]) as f64,
    }
}
