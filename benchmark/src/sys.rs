//! The few facts the benchmark reads from the operating system: CPU time
//! of this process and thread, peak resident memory, load average, cores —
//! and the one thing it sets: which CPUs a pass may run on.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` with the layout 64-bit
    // Linux expects, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process — the driver
/// and the in-process workers together.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// `VmHWM` of this process in MiB: the largest resident set it ever had.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The three load averages, as `/proc/loadavg` prints them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// the highest-numbered CPU it is allowed on (CPU 0 takes most of the
/// box's interrupts). Returns that CPU, or `None` when the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a writable buffer of the `size` bytes passed;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of the `size` bytes passed.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(word * 64 + bit)
}
