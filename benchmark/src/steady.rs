//! Process settings that make one run repeat the last: rank-to-core binding and an
//! allocator that keeps what it is given. Neither changes what the program under
//! test does; both remove a source of run-to-run difference that has nothing to do
//! with it.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// The cores this process may run on, ascending.
fn allowed_cores() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the `cpusetsize` bytes
    // passed; pid 0 names the calling thread. The kernel writes at most that many.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|core| set[core / 64] >> (core % 64) & 1 == 1)
        .collect()
}

/// Bind the calling thread to the `slot`-th core the process is allowed on (modulo
/// the number of allowed cores), as an MPI launcher's `--bind-to core` does.
/// Failure is ignored: an unbound run is noisier, not wrong.
///
/// Two rank threads that wake each other through a condvar run in one of two
/// regimes, and the scheduler picks one per run: stacked on one core (cheap
/// wake-ups, serialized compute) or spread over two (parallel compute, a
/// cross-core wake-up per blocking call). Unbound, `steps_per_s` is bimodal on the
/// reference container (about 4.8k or 8.0k steps/s on `halo_p2p`, run by run).
/// Bound, every run is in the second regime — the one in which the checkpoint
/// writes of different ranks really run in parallel.
pub fn bind_current_thread(slot: usize) {
    let cores = allowed_cores();
    if cores.is_empty() {
        return;
    }
    let core = cores[slot % cores.len()];
    let mut set: CpuSet = [0; 16];
    set[core / 64] |= 1 << (core % 64);
    // SAFETY: `set` is a live buffer of exactly the `cpusetsize` bytes passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// Make glibc's allocator serve region-sized blocks from the heap and never give
/// freed memory back, as it ends up doing anyway in a long-running job once its
/// dynamic thresholds have adapted. Call once, before any thread starts.
///
/// Left alone, every 256 KiB region of every image clone and every restored image
/// is its own `mmap`/`munmap` pair until those thresholds creep up, and each one
/// costs first-touch page faults — in a VM the noisiest thing the benchmark would
/// measure: a 32 MiB restart reads 17 ms falling to 10 ms over a run, and its
/// run-to-run spread is 23% against 8% with this setting.
pub fn keep_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores two allocator parameters; it is called from the
    // main thread before any other thread exists. On a libc without these
    // parameters it returns 0 and changes nothing.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}
