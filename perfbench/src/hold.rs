//! Keeps every CPU of the machine busy at the lowest priority while a
//! run measures, so that no CPU of a virtual machine ever halts.
//!
//! On a shared host an idle virtual CPU is descheduled by the
//! hypervisor, and waking it again (for every request handed from one
//! thread to another) can take milliseconds when other guests are busy:
//! the guest books that wait as `steal`. A run of `zipf_head` saw 150 to
//! 1,064 ticks of steal and its throughput and p90 moved by half between
//! runs; with one holder per CPU the same runs saw 6 to 32 ticks. A
//! holder is a child process (`perfbench --hold-cpu`) under
//! `SCHED_IDLE`: the kernel gives it a CPU only when no thread of the
//! benchmark wants one, and preempts it at once when one wakes. Being a
//! separate process, its CPU time is not in the benchmark's own
//! readings. It stops when its standard input closes (the benchmark
//! ended, however it ended) or after [`MAX_HOLD`].

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const FLAG: &str = "--hold-cpu";

/// A holder never outlives this, even if nothing tells it to stop.
const MAX_HOLD: Duration = Duration::from_secs(175);

/// At most this many holders, whatever the machine reports.
const MAX_HOLDERS: usize = 8;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// The holder's body: lowest priority, then spin until told to stop.
pub fn hold() {
    // SAFETY: a plain system call on the calling thread with a valid
    // parameter block.
    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 }) };
    if idle != 0 {
        // Without SCHED_IDLE the holder would compete with the
        // benchmark for the CPU: better to hold nothing.
        return;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        flag.store(true, Ordering::Relaxed);
    });
    let deadline = Instant::now() + MAX_HOLD;
    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
        for _ in 0..1_000 {
            std::hint::spin_loop();
        }
    }
}

/// The running holders; dropping this stops them and waits for each.
pub struct Holders(Vec<Child>);

impl Holders {
    /// Starts one holder per CPU this process may use.
    pub fn start() -> std::io::Result<Holders> {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let exe = std::env::current_exe()?;
        let mut holders = Holders(Vec::new());
        for _ in 0..cpus.min(MAX_HOLDERS) {
            holders.0.push(
                Command::new(&exe)
                    .arg(FLAG)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::null())
                    .spawn()?,
            );
        }
        Ok(holders)
    }
}

impl Drop for Holders {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
        }
        for child in &mut self.0 {
            let _ = child.wait();
        }
    }
}
