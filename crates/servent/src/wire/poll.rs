//! `poll(2)`, the one system call the runtime needs that `std` does not
//! wrap. It is declared here by hand, as the C library exports it: the
//! workspace builds offline, with no `libc` crate.

use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Readable (or, on a listener, a connection to accept).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// An error is pending on the descriptor (reported whatever was asked).
pub const POLLERR: i16 = 0x008;
/// The peer hung up (reported whatever was asked).
pub const POLLHUP: i16 = 0x010;

/// The C library's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// What to wait for: [`POLLIN`], [`POLLOUT`] or both.
    pub events: i16,
    /// What happened, filled in by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: std::ffi::c_int) -> std::ffi::c_int;
}

/// Wait until one of `fds` is ready or `timeout` has passed, and return how
/// many are ready (their `revents` say what happened). A signal does not end
/// the wait early: the call is retried for what is left of the timeout. The
/// timeout is rounded up to a whole millisecond, so a deadline in the future
/// is never reported as passed.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let ms = left.as_micros().div_ceil(1_000).min(i32::MAX as u128) as std::ffi::c_int;
        // SAFETY: `fds` is a live, writable slice of `#[repr(C)]` structs laid
        // out as the C library's `struct pollfd`, and its length is passed as
        // their number; the call writes only their `revents` fields and keeps
        // no pointer past its return.
        let ready = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn a_socket_pair_is_writable_then_readable_and_a_hang_up_is_reported() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT), PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert_eq!((fds[0].revents, fds[1].revents), (POLLOUT, 0));

        // Nothing to read: the wait lasts the whole timeout.
        let mut read_b = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        assert_eq!(poll(&mut read_b, Duration::from_millis(30)).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_millis(30));

        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut read_b, Duration::from_secs(5)).unwrap(), 1);
        assert_eq!(read_b[0].revents, POLLIN);

        drop(a);
        assert_eq!(poll(&mut read_b, Duration::from_secs(5)).unwrap(), 1);
        assert_ne!(read_b[0].revents & POLLHUP, 0, "the peer is gone");
    }
}
