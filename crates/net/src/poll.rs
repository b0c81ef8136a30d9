//! A minimal, std-only readiness abstraction over `poll(2)`.
//!
//! The event-loop server multiplexes every connection (plus the listener
//! and a wakeup pipe) on one thread. It needs exactly one primitive the
//! standard library does not expose: *block until any of these file
//! descriptors is ready, or until a timeout*. This module provides it
//! with a direct FFI declaration of `poll(2)` — no external crate, no
//! async runtime — consistent with the workspace's std-only rule (std
//! already links libc on every unix target, so the symbol is always
//! present).
//!
//! Pieces:
//!
//! * [`Interest`] / [`Readiness`] — what a registration asks for and what
//!   the kernel reported back (readable / writable / error-or-hangup).
//! * [`PollSet`] — a reusable `pollfd` vector: `clear`, `register` each
//!   fd with its interest, then [`PollSet::wait`] blocks in `poll(2)`
//!   with a computed timeout (`None` = block until an event). `EINTR` is
//!   retried internally, so a wait only returns with events or a timeout.
//!   [`PollSet::wait_spinning`] polls without blocking for a bounded
//!   spell first, for a caller that expects an event within microseconds.
//! * [`wake_pair`] — a self-pipe built from a nonblocking
//!   `UnixStream::pair`: shard workers call [`Waker::wake`] from any
//!   thread to make the loop's `poll(2)` return; the loop registers the
//!   [`WakeReader`]'s fd for readability and [`WakeReader::drain`]s it on
//!   wakeup. A full pipe means a wakeup is already pending, so `wake` can
//!   never block or fail meaningfully.
//!
//! The loop never sleeps to poll: when nothing is ready it is parked in
//! the kernel inside `poll(2)` (after a bounded busy-poll while
//! evaluations are in flight), and completions, new connections, new
//! bytes, and shutdown all arrive as readiness events.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

// `nfds_t` is `unsigned long` on the unix targets this workspace builds
// for; `timeout` is milliseconds, -1 = infinite.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// What a registration wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd can accept more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// What the kernel reported for one registered fd.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// The socket can accept more bytes.
    pub writable: bool,
    /// Error, hangup, or an invalid fd: the owner should tear the
    /// connection down (a final read usually surfaces the typed cause).
    pub error: bool,
}

impl Readiness {
    /// Any of the three conditions.
    pub fn any(self) -> bool {
        self.readable || self.writable || self.error
    }
}

/// A reusable registration table for one `poll(2)` call per loop
/// iteration. Indices returned by [`PollSet::register`] are positional and
/// valid until the next [`PollSet::clear`].
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> PollSet {
        PollSet { fds: Vec::new() }
    }

    /// Drops all registrations (keeps the allocation).
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Registers `fd` with `interest`; returns its slot for
    /// [`PollSet::readiness`] after the next [`PollSet::wait`].
    pub fn register(&mut self, fd: RawFd, interest: Interest) -> usize {
        let mut events = 0i16;
        if interest.readable {
            events |= POLLIN;
        }
        if interest.writable {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Number of registered fds.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Blocks in `poll(2)` until at least one registered fd is ready or
    /// `timeout` elapses (`None` blocks indefinitely). Returns the number
    /// of ready fds (0 = timeout). `EINTR` is retried; every other error
    /// is returned (and is a programming error, not load).
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs timeout still sleeps, and saturate
            // far-future timeouts at i32::MAX ms (~24 days).
            Some(t) => t
                .as_millis()
                .max(if t.is_zero() { 0 } else { 1 })
                .min(i32::MAX as u128) as i32,
        };
        loop {
            let rc = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as std::ffi::c_ulong,
                    ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Like `wait(None)`, but first polls without blocking for up to
    /// `spin`, returning as soon as anything is ready. For a caller that
    /// expects an event within microseconds: catching it while still
    /// running saves the wake-up of a parked thread, whose CPU may have
    /// gone idle — the dearest and most variable step of a hand-off on a
    /// virtual machine. Costs CPU for at most `spin` per call. It does not
    /// yield between polls: with many runnable threads a yielding loop can
    /// queue behind all of them, while each zero-timeout `poll` already
    /// lets the kernel preempt it for a thread it has just woken.
    pub fn wait_spinning(&mut self, spin: Duration) -> io::Result<usize> {
        let until = Instant::now() + spin;
        while Instant::now() < until {
            let n = self.wait(Some(Duration::ZERO))?;
            if n > 0 {
                return Ok(n);
            }
            std::hint::spin_loop();
        }
        self.wait(None)
    }

    /// The readiness the last [`PollSet::wait`] reported for `slot`. An
    /// out-of-range slot (a caller bug, e.g. a stale index across a
    /// `clear`) reports no readiness rather than panicking the event loop.
    pub fn readiness(&self, slot: usize) -> Readiness {
        let r = self.fds.get(slot).map_or(0, |fd| fd.revents);
        Readiness {
            readable: r & (POLLIN | POLLHUP) != 0,
            writable: r & POLLOUT != 0,
            error: r & (POLLERR | POLLHUP | POLLNVAL) != 0,
        }
    }
}

impl Default for PollSet {
    fn default() -> Self {
        PollSet::new()
    }
}

/// The writing end of the loop's self-pipe. Safe to call from any thread;
/// share one behind an `Arc` rather than duplicating the pipe's fd.
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Makes the loop's current (or next) [`PollSet::wait`] return. A
    /// full pipe means a wakeup is already pending — that outcome is
    /// success, not an error.
    pub fn wake(&self) {
        // One byte; &UnixStream implements Write.
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The readable end of the loop's self-pipe: register
/// [`WakeReader::as_raw_fd`] for readability and [`WakeReader::drain`]
/// after every wakeup.
pub struct WakeReader {
    rx: UnixStream,
}

impl WakeReader {
    /// The fd to register in the [`PollSet`].
    pub fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes every pending wakeup byte (nonblocking). A short read
    /// means the pipe is empty; a wake landing after it leaves the fd
    /// readable, so the next level-triggered poll returns at once.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => return, // writer gone; nothing more will arrive
                Ok(n) if n < buf.len() => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

/// Builds the self-pipe: a nonblocking `UnixStream` pair, write end in
/// the [`Waker`], read end in the [`WakeReader`].
pub fn wake_pair() -> io::Result<(Waker, WakeReader)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReader { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_elapses_without_events() {
        let (_waker, reader) = wake_pair().unwrap();
        let mut set = PollSet::new();
        set.register(reader.as_raw_fd(), Interest::READ);
        let t0 = Instant::now();
        let n = set.wait(Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "no event should be ready");
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert!(!set.readiness(0).any());
    }

    #[test]
    fn wake_makes_poll_return_and_drain_clears() {
        let (waker, reader) = wake_pair().unwrap();
        let loop_thread = std::thread::spawn(move || {
            let mut set = PollSet::new();
            let slot = set.register(reader.as_raw_fd(), Interest::READ);
            let n = set.wait(None).unwrap();
            assert!(n >= 1);
            assert!(set.readiness(slot).readable);
            reader.drain();
            // After draining, a short wait sees nothing.
            set.clear();
            let slot = set.register(reader.as_raw_fd(), Interest::READ);
            let n = set.wait(Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0);
            assert!(!set.readiness(slot).readable);
        });
        std::thread::sleep(Duration::from_millis(20));
        waker.wake();
        loop_thread.join().unwrap();
    }

    #[test]
    fn spinning_wait_returns_pending_events_and_parks_after_the_spin() {
        let (waker, reader) = wake_pair().unwrap();
        let mut set = PollSet::new();
        let slot = set.register(reader.as_raw_fd(), Interest::READ);

        // An event already pending is returned by the spin.
        waker.wake();
        assert!(set.wait_spinning(Duration::from_secs(5)).unwrap() >= 1);
        assert!(set.readiness(slot).readable);
        reader.drain();

        // Nothing arrives within the spin: the wait parks instead of
        // returning empty, and the next wake still ends it.
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let t0 = Instant::now();
        assert!(set.wait_spinning(Duration::from_micros(100)).unwrap() >= 1);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(set.readiness(slot).readable);
        late.join().unwrap();
    }

    #[test]
    fn many_wakes_coalesce() {
        let (waker, reader) = wake_pair().unwrap();
        for _ in 0..10_000 {
            // Must never block even when the pipe fills.
            waker.wake();
        }
        let mut set = PollSet::new();
        let slot = set.register(reader.as_raw_fd(), Interest::READ);
        assert!(set.wait(Some(Duration::from_millis(100))).unwrap() >= 1);
        assert!(set.readiness(slot).readable);
        reader.drain();
        set.clear();
        let slot = set.register(reader.as_raw_fd(), Interest::READ);
        assert_eq!(set.wait(Some(Duration::from_millis(10))).unwrap(), 0);
        assert!(!set.readiness(slot).readable);
    }

    #[test]
    fn tcp_readability_and_writability_are_reported() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // A fresh socket with an empty send buffer is writable, not
        // readable.
        let mut set = PollSet::new();
        let slot = set.register(server.as_raw_fd(), Interest::READ_WRITE);
        assert!(set.wait(Some(Duration::from_millis(100))).unwrap() >= 1);
        let r = set.readiness(slot);
        assert!(r.writable && !r.readable);

        // Bytes from the peer flip it readable.
        (&client).write_all(b"ping").unwrap();
        set.clear();
        let slot = set.register(server.as_raw_fd(), Interest::READ);
        assert!(set.wait(Some(Duration::from_millis(1000))).unwrap() >= 1);
        assert!(set.readiness(slot).readable);
    }
}
