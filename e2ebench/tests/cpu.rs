//! The process CPU clock, alone in its own test binary: every other
//! thread in the process would add to what it reads.

use e2ebench::cpu::process_cpu;
use std::time::{Duration, Instant};

#[test]
fn process_cpu_counts_work_on_every_thread_but_not_waiting() {
    let spin = |d: Duration| {
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < d {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    };
    let c0 = process_cpu();
    std::thread::spawn(move || spin(Duration::from_millis(60)))
        .join()
        .unwrap();
    let after_spin = process_cpu() - c0;
    std::thread::sleep(Duration::from_millis(100));
    let after_sleep = process_cpu() - c0;
    // The exited thread's 60 ms of work counts (less only if the host took
    // the CPU away mid-spin); the 100 ms asleep adds next to nothing.
    assert!(after_spin >= Duration::from_millis(20), "{after_spin:?}");
    assert!(
        after_sleep - after_spin < Duration::from_millis(20),
        "{after_spin:?} -> {after_sleep:?}"
    );
}
