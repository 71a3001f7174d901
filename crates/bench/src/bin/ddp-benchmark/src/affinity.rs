//! Steady scheduling for `wire_relay`, which hands every frame through five
//! threads. Left to the default policy on two virtual CPUs, the wake-ups of
//! one frame cross CPUs in whichever pattern the scheduler last settled on:
//! the median relay latency of one build read anywhere from 16 to 80 µs from
//! run to run. On one CPU the latency is steady, but one run in six still
//! relays a third slower from its first frame to its last, with twice the
//! context switches: the wake-up preemption pattern has two stable states.
//! `SCHED_BATCH` (a woken thread never preempts the running one) has one.
//! So the workload runs on one CPU under `SCHED_BATCH`, and says so.

/// Restores the calling thread's CPU mask and scheduling policy when dropped.
pub struct Pinned {
    #[cfg(target_os = "linux")]
    previous: linux::CpuSet,
}

/// Restrict the calling thread, and every thread it spawns from here on, to
/// the first CPU it may run on, under `SCHED_BATCH`. `None` where the host
/// does not allow it; the workload then runs as it is and says so in its
/// counts.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    #[cfg(target_os = "linux")]
    {
        let previous = linux::get()?;
        let cpu =
            previous.iter().flat_map(|w| (0..64).map(move |b| w >> b & 1)).position(|b| b == 1)?;
        let mut one = [0u64; linux::WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        if !linux::set(&one) {
            return None;
        }
        let pinned = Pinned { previous };
        linux::set_policy(linux::SCHED_BATCH).then_some(pinned)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        {
            linux::set_policy(linux::SCHED_OTHER);
            linux::set(&self.previous);
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// glibc's `cpu_set_t`: 1 024 bits.
    pub const WORDS: usize = 16;
    pub type CpuSet = [u64; WORDS];
    pub const SCHED_OTHER: i32 = 0;
    pub const SCHED_BATCH: i32 = 3;

    /// glibc's `struct sched_param`.
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        #[cfg(test)]
        fn sched_getscheduler(pid: i32) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set = [0u64; WORDS];
        // SAFETY: pid 0 is the calling thread; `set` is a live, writable
        // buffer of exactly the `size_of_val(&set)` bytes passed as its size.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: pid 0 is the calling thread; `set` is a live buffer of
        // exactly the `size_of_val(set)` bytes passed as its size, and the
        // call only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
    }

    /// The calling thread's scheduling policy.
    #[cfg(test)]
    pub fn policy() -> i32 {
        // SAFETY: pid 0 is the calling thread; the call takes no pointer.
        unsafe { sched_getscheduler(0) }
    }

    /// Both policies used here take static priority 0.
    pub fn set_policy(policy: i32) -> bool {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: pid 0 is the calling thread; `param` is a live
        // `struct sched_param` the call only reads.
        unsafe { sched_setscheduler(0, policy, &param) == 0 }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_under_batch_and_dropping_restores_both() {
        let cpus = |set: &linux::CpuSet| set.iter().map(|w| w.count_ones()).sum::<u32>();
        let state = || (linux::get().expect("the thread's own mask is readable"), linux::policy());
        let before = state();
        let pinned = pin_to_one_cpu().expect("a thread may narrow its mask and go batch");
        // A thread spawned while pinned inherits the one CPU and the policy.
        let inherited = std::thread::spawn(state).join().expect("no panic");
        for (set, policy) in [state(), inherited] {
            assert_eq!(cpus(&set), 1);
            assert_eq!(policy, linux::SCHED_BATCH);
        }
        drop(pinned);
        assert_eq!(state(), before);
    }
}
