//! Keeps the CPUs from going idle while the benchmark runs.
//!
//! On a virtual machine an idle CPU halts, and waking a halted vCPU waits on
//! the host's scheduler, whose delay depends on what else the host runs. The
//! single-client TCP workloads wake a thread on every message, so without
//! this their run-to-run spread was set by that delay rather than by the
//! program. One spinning thread per CPU, at the lowest scheduling class
//! (`SCHED_IDLE`), takes only time nothing else wants: a benchmark thread
//! that becomes runnable preempts it at once. Where the class cannot be set
//! the spinners do not run, since a spinner at normal priority would compete
//! with the workload.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The running spinners; dropping this stops them and waits for each.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Starts one idle-class spinner per CPU this process may run on.
    /// Returns how many run alongside the handle (0 off Linux or when the
    /// idle class is refused).
    pub fn start() -> (Spinners, usize) {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = sys::allowed_cpus();
        let mut threads = Vec::new();
        let (tx, rx) = std::sync::mpsc::channel();
        for cpu in cpus {
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            let spawned =
                std::thread::Builder::new().name(format!("idle-spin-{cpu}")).spawn(move || {
                    let ok = sys::become_idle_class(cpu);
                    let _ = tx.send(ok);
                    if ok {
                        spin(&stop);
                    }
                });
            if let Ok(h) = spawned {
                threads.push(h);
            }
        }
        let running = rx.iter().take(threads.len()).filter(|ok| *ok).count();
        (Spinners { stop, threads }, running)
    }
}

/// Busy work without `pause` hints: a pause loop on a virtual machine can
/// trap to the host, which is the halt this thread is meant to avoid.
fn spin(stop: &AtomicBool) {
    let mut x = 1u64;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..1024 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of glibc and musl: 1024 bits.
    type CpuSet = [u64; 16];

    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    const SCHED_IDLE: i32 = 5;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }

    /// CPUs in this process's affinity mask.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..set.len() * 64).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Pins the calling thread to `cpu` (best effort) and moves it to the
    /// idle scheduling class; false if the class was refused.
    pub fn become_idle_class(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: both calls read plain-data arguments of the sizes passed
        // and act on the calling thread only (pid 0).
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
            sched_setscheduler(0, SCHED_IDLE, &param) == 0
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn become_idle_class(_cpu: usize) -> bool {
        false
    }
}
