//! Minimal readiness polling over raw Linux syscalls: a level-triggered
//! `epoll` wrapper.
//!
//! The workspace builds offline with no crates.io I/O dependencies, so the
//! event loop talks to the kernel directly: `std` already links the C
//! library, and the four symbols below (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `close`) are all a readiness loop needs. Everything is
//! level-triggered on purpose — a connection whose buffered input was only
//! partially consumed is simply re-reported on the next wait, which is
//! what gives the server its round-robin fairness without a user-space
//! ready list (DESIGN.md §11).

use std::io;
use std::os::fd::RawFd;

const EPOLL_CLOEXEC: i32 = 0x8_0000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// Kernel ABI: on x86_64 `struct epoll_event` is packed (12 bytes); other
/// architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or the peer half-closed — a read will observe it).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup; the owner should read to collect the error.
    pub hangup: bool,
}

/// A level-triggered `epoll` instance.
pub struct Poller {
    epfd: RawFd,
    raw: Vec<EpollEvent>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("epfd", &self.epfd).finish()
    }
}

/// Events returned per `wait` call; more ready fds simply surface on the
/// next call (level-triggered), and the kernel rotates its ready list, so
/// no fd can shadow the others.
const MAX_EVENTS: usize = 1024;

impl Poller {
    /// Creates the epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            raw: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        })
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        let mut events = EPOLLRDHUP;
        if readable {
            events |= EPOLLIN;
        }
        if writable {
            events |= EPOLLOUT;
        }
        events
    }

    /// Registers `fd` under `token` with the given interests.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: Self::interest(readable, writable),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
    }

    /// Changes the interests of an already registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: Self::interest(readable, writable),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits for readiness, appending into `out` (cleared first).
    /// `timeout_ms < 0` blocks indefinitely; `0` polls. Retries on EINTR.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let n = loop {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.raw.as_mut_ptr(),
                    self.raw.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for raw in &self.raw[..n] {
            let events = raw.events; // copy out of the packed struct
            out.push(Event {
                token: raw.data,
                readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        let _ = unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn listener_readiness_fires_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no connection yet");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
    }

    #[test]
    fn stream_readable_and_writable_interests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        // Writable only: a fresh socket's send buffer is empty.
        poller.add(server.as_raw_fd(), 1, false, true).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 2_000).unwrap();
        assert!(events
            .iter()
            .any(|e| e.token == 1 && e.writable && !e.readable));
        // Switch to readable; it fires once the peer sends.
        poller.modify(server.as_raw_fd(), 1, true, false).unwrap();
        client.write_all(b"x").unwrap();
        poller.wait(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        poller.delete(server.as_raw_fd());
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "deleted fd must not report");
    }
}
