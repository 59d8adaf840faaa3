//! Process-level readings.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("presat-perf reads Linux process clocks and needs a 64-bit Linux target");

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time used so far by all of the process's threads, ended ones
/// included, in milliseconds. On a KVM guest with steal-time accounting
/// it leaves out the time the host ran something else on our CPUs, which
/// wall-clock time counts whenever a thread of a parallel call waits for
/// one that was descheduled.
pub fn cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the clock id
    // is one every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
}

/// CPU milliseconds since `start`, a reading of [`cpu_ms`].
pub fn cpu_ms_since(start: f64) -> f64 {
    cpu_ms() - start
}

/// CPUs this process may run on.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size (`VmHWM` of `/proc/self/status`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(cpu_count() >= 1);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }

    #[test]
    fn cpu_clock_counts_the_work_of_ended_threads() {
        let before = cpu_ms();
        std::thread::spawn(move || {
            while cpu_ms_since(before) < 20.0 {
                std::hint::black_box(0);
            }
        })
        .join()
        .expect("spinner");
        assert!(cpu_ms_since(before) >= 20.0);
    }
}
