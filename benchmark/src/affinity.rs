//! CPU placement for the two-thread workloads.
//!
//! Both two-thread workloads pair a producer with a consumer: the
//! service's generator and shard, the streamed replay's decoder and
//! simulation. Where the scheduler put both on one core they took turns
//! instead of overlapping, and a pass ran up to twice as long; it chooses
//! afresh for every pass's new threads, so throughput flipped between the
//! two modes from pass to pass. Pinning them to different cores removes
//! that choice. Threads inherit the CPU mask of the thread that
//! spawns them, so pinning the calling thread before it starts a thread
//! places that thread too.

use std::os::raw::{c_int, c_ulong};

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;
const WORD_BITS: usize = c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// CPUs the calling thread may run on, in increasing order (empty where
/// the mask cannot be read).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * WORD_BITS)
        .filter(|&cpu| mask[cpu / WORD_BITS] >> (cpu % WORD_BITS) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpu`; returns whether it took.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * WORD_BITS {
        return false;
    }
    let mut mask = [0 as c_ulong; MASK_WORDS];
    mask[cpu / WORD_BITS] |= 1 << (cpu % WORD_BITS);
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Two distinct CPUs the process may use, if it has two.
pub fn two_cpus() -> Option<(usize, usize)> {
    let cpus = allowed_cpus();
    match cpus.as_slice() {
        [a, b, ..] => Some((*a, *b)),
        _ => None,
    }
}
