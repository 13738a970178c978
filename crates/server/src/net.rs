//! Readiness polling for the event-loop server core: a thin,
//! dependency-free shim over the `poll(2)` syscall plus a self-wake
//! channel, so one thread can watch thousands of mostly-idle sockets.
//!
//! The workspace is `std`-only, so instead of pulling in `libc`/`mio`
//! this module declares the single FFI signature it needs. `poll` is
//! POSIX (Linux and macOS both ship it in the C library that `std`
//! already links), takes a caller-owned array — no kernel registration
//! state to manage, unlike epoll — and an O(fds) scan per tick is
//! exactly the cost profile the server wants: the event loop rebuilds
//! its interest list every tick anyway to honor per-connection
//! backpressure (a connection with a full write buffer drops `POLLIN`
//! from its mask).
//!
//! The [`Waker`] is a nonblocking `UnixStream` pair: executors finish a
//! request, push the response onto the completion list, and write one
//! byte; the event loop holds the read side in its poll set, so a
//! completion interrupts the poll immediately instead of waiting out
//! the idle tick. Writing to a full pipe would block — but a full pipe
//! already guarantees a pending wakeup, so the write side is
//! nonblocking and `WouldBlock` is success.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `poll` readiness flag: data available to read (or a peer close, which
/// reads as EOF).
pub const POLLIN: i16 = 0x001;
/// `poll` readiness flag: writing now will not block.
pub const POLLOUT: i16 = 0x004;
/// `poll` result flag: error condition on the descriptor.
pub const POLLERR: i16 = 0x008;
/// `poll` result flag: peer hung up.
pub const POLLHUP: i16 = 0x010;
/// `poll` result flag: the descriptor is not open (a stale entry).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` interest set. Layout matches C's
/// `struct pollfd` (`int fd; short events; short revents;`) so a slice
/// of these can be handed to the syscall directly.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events` (a bitmask of [`POLLIN`] / [`POLLOUT`]).
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The watched descriptor.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Data (or EOF) is ready to read.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// The socket can accept more bytes without blocking.
    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }

    /// The descriptor is errored, hung up, or invalid; close it.
    pub fn failed(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }
}

mod sys {
    use super::PollFd;
    use std::os::raw::{c_int, c_ulong};

    // The one FFI call of the serving layer. `nfds_t` is `c_ulong` on
    // every libc Rust's std links against (glibc, musl, Apple libc).
    #[allow(unsafe_code)]
    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Block until at least one descriptor in `fds` is ready, or `timeout`
/// elapses; returns how many entries have nonzero `revents`. `EINTR`
/// retries transparently (with the timeout restarted — callers run
/// ticked loops, so a rare stretched tick is harmless).
#[allow(unsafe_code)]
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let millis = timeout.as_millis().min(i32::MAX as u128) as i32;
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs; the kernel writes only the
        // `revents` field of the first `fds.len()` entries.
        let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, millis) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The event loop's self-wake channel: any thread holding a [`Waker`]
/// can interrupt the loop's `poll`; the loop drains the byte(s) and
/// processes whatever was posted alongside.
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Build the pair: the [`Waker`] for producers, the [`WakeReceiver`]
    /// for the event loop's poll set.
    pub fn pair() -> io::Result<(Waker, WakeReceiver)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeReceiver { rx }))
    }

    /// Interrupt the event loop's poll. Never blocks: a full pipe means
    /// a wakeup is already pending, which is all this call promises.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The read side of a [`Waker`] pair; lives in the event loop's poll set.
pub struct WakeReceiver {
    rx: UnixStream,
}

impl WakeReceiver {
    /// The descriptor to register with [`POLLIN`].
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consume every pending wake byte (level-triggered poll would
    /// otherwise re-report them forever).
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn poll_times_out_on_quiet_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        let n = poll(&mut fds, Duration::from_millis(30)).unwrap();
        assert_eq!(n, 0, "no data -> timeout");
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert!(!fds[0].readable());
    }

    #[test]
    fn poll_reports_readable_and_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN | POLLOUT)];
        let n = poll(&mut fds, Duration::from_millis(500)).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "pending byte must report POLLIN");
        assert!(fds[0].writable(), "empty send buffer must report POLLOUT");
    }

    #[test]
    fn waker_interrupts_poll_and_drains() {
        let (waker, mut rx) = Waker::pair().unwrap();
        let waker = std::sync::Arc::new(waker);
        let t = {
            let waker = waker.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
                waker.wake();
            })
        };
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        let start = Instant::now();
        let n = poll(&mut fds, Duration::from_secs(5)).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "wake must interrupt the poll, not wait out the timeout"
        );
        // The poll can return after the first wake: join the waker so
        // the second wake has landed before the drain.
        t.join().unwrap();
        rx.drain();
        // Drained: the next poll with no wake times out.
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        let n = poll(&mut fds, Duration::from_millis(20)).unwrap();
        assert_eq!(n, 0, "drained waker must not stay readable");
    }
}
