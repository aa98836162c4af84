//! The process's CPU time: every thread's time on a CPU, exited threads
//! included (`CLOCK_PROCESS_CPUTIME_ID`).
//!
//! The scheduler charges a thread only for time it ran: time its virtual
//! CPU was descheduled by the hypervisor (steal) or the thread waited for
//! a CPU is not counted. CPU time per request therefore measures the work
//! the program did for it, not how busy the rest of the host was.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the whole process has used so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
