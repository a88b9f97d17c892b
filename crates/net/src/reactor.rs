//! Readiness-driven reactor primitives: the std-only `epoll`/`poll(2)`
//! wrapper underneath the event-loop gateway.
//!
//! Thread-per-connection capped the serving plane at thousands of
//! sessions — two OS threads, two stacks, and an unbounded channel per
//! socket. This module provides everything needed to run the same wire
//! protocol from a handful of reactor threads instead:
//!
//! * [`Poller`] — a readiness multiplexer over raw file descriptors.
//!   On Linux it is a thin wrapper over `epoll` (level-triggered); on
//!   other Unix platforms it falls back to `poll(2)`. Both backends are
//!   declared as `extern "C"` symbols resolved from the libc that `std`
//!   already links — no external crates, the same trick
//!   [`shutdown`](crate::shutdown) uses for `signal(2)`.
//! * [`Waker`] / [`WakeRx`] — a deduplicated cross-thread wakeup built
//!   on a nonblocking [`UnixStream`] pair, so the hub thread can nudge a
//!   reactor that is parked in [`Poller::wait`].
//! * [`SendQueue`] / [`Outbound`] — the per-connection outbound ring
//!   that replaces writer threads: bounded by *message* count (so the
//!   slow-consumer policies keep their exact semantics), drained with
//!   vectored writes ([`Write::write_vectored`]), small messages
//!   coalesced into blocks recycled through a shared [`BufPool`], and
//!   fan-out payloads shared as `Arc<[u8]>` so a verdict broadcast to
//!   50 000 subscribers is encoded exactly once.
//! * [`retry_intr`] / [`is_would_block`] — the *single* home for
//!   `EINTR` retries and would-block classification. Transport code
//!   must call these instead of matching [`io::ErrorKind`] ad hoc.
//!
//! Everything here is platform-gated: on non-Unix targets the
//! constructors return [`io::ErrorKind::Unsupported`] so the crate still
//! compiles, but the gateway cannot serve.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::UnixStream;

/// Raw file-descriptor type on platforms without `std::os::unix`.
#[cfg(not(unix))]
pub type RawFd = i32;

// ---------------------------------------------------------------------------
// Error-classification helpers (the one home for EINTR / WouldBlock logic).
// ---------------------------------------------------------------------------

/// Whether an I/O error means "not ready yet, try again when the fd is
/// ready" — `EAGAIN`/`EWOULDBLOCK` from a nonblocking socket, or the
/// `TimedOut` that a blocking socket with a read timeout reports on some
/// platforms. Every transport-layer would-block match routes through
/// here; matching [`io::ErrorKind`] inline elsewhere is a bug.
#[must_use]
pub fn is_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs an I/O operation, transparently retrying `EINTR`
/// ([`io::ErrorKind::Interrupted`]): a signal landing mid-syscall (the
/// ctrl-c handler, a profiler tick) must never masquerade as a dead
/// socket.
///
/// # Errors
/// Propagates every error except [`io::ErrorKind::Interrupted`].
pub fn retry_intr<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

#[cfg(not(unix))]
fn unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "reactor requires a Unix platform (epoll or poll(2))",
    )
}

/// The raw fd of a socket, listener, or waker — the registration key for
/// [`Poller`].
#[cfg(unix)]
#[must_use]
pub fn fd_of<T: AsRawFd>(t: &T) -> RawFd {
    t.as_raw_fd()
}

/// Non-Unix stub (the [`Poller`] stub never accepts a registration).
#[cfg(not(unix))]
#[must_use]
pub fn fd_of<T>(_t: &T) -> RawFd {
    -1
}

// ---------------------------------------------------------------------------
// Interest + readiness events.
// ---------------------------------------------------------------------------

/// Which readiness a registered fd should report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Self = Self {
        read: true,
        write: false,
    };
    /// Writable only.
    pub const WRITE: Self = Self {
        read: false,
        write: true,
    };
    /// Readable and writable.
    pub const BOTH: Self = Self {
        read: true,
        write: true,
    };
    /// Registered but silent (keeps hangup detection on epoll).
    pub const NONE: Self = Self {
        read: false,
        write: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Ready {
    /// The token the fd was registered with.
    pub token: u64,
    /// Read (or EOF) will not block.
    pub readable: bool,
    /// Write will not block.
    pub writable: bool,
    /// Peer hangup / error — the fd is dead or dying.
    pub hangup: bool,
}

// ---------------------------------------------------------------------------
// Linux backend: epoll.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::{Interest, Ready};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    // The kernel ABI struct. x86-64 is the one architecture where the
    // kernel declares it packed; everywhere else natural alignment is
    // the ABI.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // Resolved from the libc std already links (same pattern as the
    // `signal(2)` declaration in `shutdown.rs`).
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

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.read {
            // RDHUP rides the read interest: a write-only drain phase must
            // not be woken (level-triggered, forever) by a peer that
            // half-closed — ERR/HUP still fire unmasked if it fully dies.
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    pub struct Backend {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Backend {
        pub fn new() -> io::Result<Self> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, std::ptr::addr_of_mut!(ev)) }).map(|_| ())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        pub fn wait(&mut self, out: &mut Vec<Ready>, timeout: Option<Duration>) -> io::Result<()> {
            let ms: i32 = timeout.map_or(-1, |d| {
                i32::try_from(d.as_millis().min(i32::MAX as u128)).unwrap_or(i32::MAX)
            });
            let cap = i32::try_from(self.buf.len()).unwrap_or(i32::MAX);
            let n = super::retry_intr(|| {
                cvt(unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), cap, ms) })
            })?;
            for ev in self.buf.iter().take(n.unsigned_abs() as usize) {
                let bits = { ev.events };
                out.push(Ready {
                    token: { ev.data },
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            let _ = unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------------
// Portable Unix backend: poll(2).
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Interest, Ready};
    use std::collections::HashMap;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        // nfds_t is `unsigned int` on the BSD family (the platforms this
        // fallback serves; Linux uses the epoll backend above).
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
    }

    pub struct Backend {
        registered: HashMap<RawFd, (u64, Interest)>,
        scratch: Vec<PollFd>,
    }

    impl Backend {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                registered: HashMap::new(),
                scratch: Vec::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Ready>, timeout: Option<Duration>) -> io::Result<()> {
            self.scratch.clear();
            for (&fd, &(_, interest)) in &self.registered {
                let mut events = 0i16;
                if interest.read {
                    events |= POLLIN;
                }
                if interest.write {
                    events |= POLLOUT;
                }
                self.scratch.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            let ms: i32 = timeout.map_or(-1, |d| {
                i32::try_from(d.as_millis().min(i32::MAX as u128)).unwrap_or(i32::MAX)
            });
            let nfds = u32::try_from(self.scratch.len())
                .map_err(|_| io::Error::other("too many fds for poll(2)"))?;
            let n = super::retry_intr(|| {
                let r = unsafe { poll(self.scratch.as_mut_ptr(), nfds, ms) };
                if r < 0 {
                    Err(io::Error::last_os_error())
                } else {
                    Ok(r)
                }
            })?;
            if n == 0 {
                return Ok(());
            }
            for pfd in &self.scratch {
                if pfd.revents == 0 {
                    continue;
                }
                if let Some(&(token, _)) = self.registered.get(&pfd.fd) {
                    out.push(Ready {
                        token,
                        readable: pfd.revents & POLLIN != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use super::{unsupported, Interest, RawFd, Ready};
    use std::io;
    use std::time::Duration;

    pub struct Backend;

    impl Backend {
        pub fn new() -> io::Result<Self> {
            Err(unsupported())
        }
        pub fn register(&mut self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn modify(&mut self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn deregister(&mut self, _: RawFd) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn wait(&mut self, _: &mut Vec<Ready>, _: Option<Duration>) -> io::Result<()> {
            Err(unsupported())
        }
    }
}

// ---------------------------------------------------------------------------
// Poller: the public multiplexer facade.
// ---------------------------------------------------------------------------

/// A readiness multiplexer over raw file descriptors — `epoll` on Linux,
/// `poll(2)` elsewhere on Unix. Level-triggered: a fd that stays ready
/// keeps reporting until the condition is consumed.
pub struct Poller {
    backend: sys::Backend,
}

impl Poller {
    /// Creates the multiplexer.
    ///
    /// # Errors
    /// Propagates `epoll_create1` failure; on non-Unix platforms returns
    /// [`io::ErrorKind::Unsupported`].
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            backend: sys::Backend::new()?,
        })
    }

    /// Registers `fd` under `token` for `interest`.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failure (e.g. an already-registered fd).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Changes the interest set of a registered fd.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failure (e.g. a never-registered fd).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Removes a fd from the interest set. Must be called *before* the
    /// fd closes on the `poll(2)` backend (epoll drops closed fds
    /// itself, the fallback would keep polling a stale descriptor).
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failure.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready or the timeout
    /// lapses (`None` = forever), appending events to `out` (which is
    /// *not* cleared here). `EINTR` is retried internally.
    ///
    /// # Errors
    /// Propagates `epoll_wait`/`poll` failure.
    pub fn wait(&mut self, out: &mut Vec<Ready>, timeout: Option<Duration>) -> io::Result<()> {
        self.backend.wait(out, timeout)
    }
}

// ---------------------------------------------------------------------------
// Waker: deduplicated cross-thread wakeups.
// ---------------------------------------------------------------------------

/// The sending half of a reactor wakeup. Cloneable; [`Waker::wake`] is
/// deduplicated — while a wake is pending (armed and not yet drained by
/// the reactor) further wakes are free no-ops, so a fan-out touching
/// 50 000 connections costs one pipe write, not 50 000.
#[cfg(unix)]
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
    armed: Arc<AtomicBool>,
}

/// The receiving half: register [`WakeRx::as_raw_fd`] in the reactor's
/// [`Poller`] and call [`WakeRx::drain`] whenever it reports readable.
#[cfg(unix)]
pub struct WakeRx {
    rx: UnixStream,
    armed: Arc<AtomicBool>,
}

#[cfg(unix)]
impl Waker {
    /// Builds a connected waker pair (a nonblocking [`UnixStream`] pair
    /// — no raw `pipe(2)` needed).
    ///
    /// # Errors
    /// Propagates socketpair creation failure.
    pub fn pair() -> io::Result<(Waker, WakeRx)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let armed = Arc::new(AtomicBool::new(false));
        Ok((
            Waker {
                tx: Arc::new(tx),
                armed: Arc::clone(&armed),
            },
            WakeRx { rx, armed },
        ))
    }

    /// Nudges the reactor out of [`Poller::wait`]. Idempotent until the
    /// reactor drains.
    pub fn wake(&self) {
        // SeqCst, paired with the store in `WakeRx::drain`: a waker that
        // finds the flag still armed is ordered before the disarm, so
        // whatever it published first (even a plain atomic flag) is seen
        // by the reactor's pass after the drain.
        if !self.armed.swap(true, Ordering::SeqCst) {
            // A full pipe means a wake is already deliverable; any other
            // failure means the reactor is gone — both are ignorable.
            let _ = retry_intr(|| (&*self.tx).write(&[1u8]));
        }
    }
}

#[cfg(unix)]
impl WakeRx {
    /// The fd to register for read interest.
    #[must_use]
    pub fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes pending wake bytes, then disarms the waker — in that
    /// order. Disarming first loses wakeups for good: a
    /// [`Waker::wake`] landing between the disarm and the read re-arms
    /// the flag and writes a byte that this very read consumes, leaving
    /// the flag armed over an empty pipe, and every later wake is
    /// swallowed as a duplicate. With the disarm last, the flag is never
    /// armed over an empty pipe once `drain` returns. A wake that lands
    /// between the read and the disarm writes nothing, so the caller must
    /// look at everything a waker publishes (command inbox, dirty list,
    /// flags) *after* `drain` returns and before it waits again; a wake
    /// after the disarm costs at most one spurious wakeup.
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match retry_intr(|| (&self.rx).read(&mut sink)) {
                Ok(0) => break, // sender gone
                Ok(_) => {}
                Err(_) => break, // WouldBlock: drained
            }
        }
        self.armed.store(false, Ordering::SeqCst);
    }
}

#[cfg(unix)]
use std::io::Read;

/// Non-Unix stub: construction fails, so the gateway cannot start.
#[cfg(not(unix))]
#[derive(Clone)]
pub struct Waker;

/// Non-Unix stub for the waker's receiving half.
#[cfg(not(unix))]
pub struct WakeRx;

#[cfg(not(unix))]
impl Waker {
    /// Always fails on non-Unix platforms.
    ///
    /// # Errors
    /// Returns [`io::ErrorKind::Unsupported`].
    pub fn pair() -> io::Result<(Waker, WakeRx)> {
        Err(unsupported())
    }
    /// No-op stub.
    pub fn wake(&self) {}
}

#[cfg(not(unix))]
impl WakeRx {
    /// Stub fd.
    #[must_use]
    pub fn as_raw_fd(&self) -> RawFd {
        -1
    }
    /// No-op stub.
    pub fn drain(&mut self) {}
}

// ---------------------------------------------------------------------------
// BufPool: recycled coalescing blocks for small outbound messages.
// ---------------------------------------------------------------------------

/// Coalescing blocks are sized for a burst of small control messages
/// (acks, welcomes, redirects are tens of bytes each).
pub const POOL_BLOCK: usize = 8 * 1024;

/// A shared pool of recycled byte blocks. Small outbound messages are
/// coalesced into pooled blocks ([`SendQueue::push_small`]); when a block
/// fully drains to the socket it returns here instead of the allocator.
/// The pool is bounded — beyond the cap, drained blocks are simply freed
/// — so idle memory stays O(pool), never O(connections).
#[derive(Clone)]
pub struct BufPool {
    free: Arc<Mutex<Vec<Vec<u8>>>>,
    max_blocks: usize,
}

impl BufPool {
    /// A pool retaining at most `max_blocks` spare blocks.
    #[must_use]
    pub fn new(max_blocks: usize) -> Self {
        Self {
            free: Arc::new(Mutex::new(Vec::new())),
            max_blocks,
        }
    }

    /// Takes a cleared block (recycled when available, fresh otherwise).
    #[must_use]
    pub fn take(&self) -> Vec<u8> {
        self.free
            .lock()
            .expect("buf pool lock")
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(POOL_BLOCK))
    }

    /// Returns a drained block to the pool (freed if the pool is full).
    pub fn put(&self, mut block: Vec<u8>) {
        block.clear();
        let mut free = self.free.lock().expect("buf pool lock");
        if free.len() < self.max_blocks {
            free.push(block);
        }
    }

    /// Spare blocks currently pooled.
    #[must_use]
    pub fn spare(&self) -> usize {
        self.free.lock().expect("buf pool lock").len()
    }
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new(256)
    }
}

// ---------------------------------------------------------------------------
// SendQueue: the bounded outbound ring drained by vectored writes.
// ---------------------------------------------------------------------------

/// Why a push into an outbound queue was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The ring holds `capacity` unflushed messages (slow consumer).
    Full,
    /// The connection's socket is gone; nothing will ever drain.
    Closed,
}

enum Seg {
    /// A fan-out payload shared across every subscriber's ring — encoded
    /// once, reference-counted everywhere.
    Shared { bytes: Arc<[u8]>, msgs: u32 },
    /// A pooled coalescing block holding one or more small messages.
    Pooled { buf: Vec<u8>, msgs: u32 },
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Shared { bytes, .. } => bytes,
            Seg::Pooled { buf, .. } => buf,
        }
    }
    fn msgs(&self) -> u32 {
        match self {
            Seg::Shared { msgs, .. } | Seg::Pooled { msgs, .. } => *msgs,
        }
    }
}

/// Largest iovec batch per `writev` — past this the syscall's copy of
/// the iovec array costs more than a second call.
const MAX_IOV: usize = 64;

/// A bounded per-connection outbound ring. Capacity counts *messages*
/// (matching the old per-connection channel depth, so
/// [`SlowConsumerPolicy`](crate::gateway::SlowConsumerPolicy) semantics
/// are unchanged); bytes are drained with vectored writes and partial
/// writes resume mid-segment.
pub struct SendQueue {
    segs: VecDeque<Seg>,
    /// Bytes of `segs[0]` already written to the socket.
    head_off: usize,
    /// Messages queued and not yet fully flushed.
    msgs: usize,
    capacity: usize,
}

impl SendQueue {
    /// A ring refusing pushes past `capacity` queued messages.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            segs: VecDeque::new(),
            head_off: 0,
            msgs: 0,
            capacity,
        }
    }

    /// Messages queued and not fully flushed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.msgs
    }

    /// Whether everything queued has reached the socket.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Bytes queued and not yet written.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.segs
            .iter()
            .map(|s| s.bytes().len())
            .sum::<usize>()
            .saturating_sub(self.head_off)
    }

    /// Queues one shared (fan-out) message.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity.
    pub fn push_shared(&mut self, bytes: Arc<[u8]>) -> Result<(), PushError> {
        if self.msgs >= self.capacity {
            return Err(PushError::Full);
        }
        self.msgs += 1;
        self.segs.push_back(Seg::Shared { bytes, msgs: 1 });
        Ok(())
    }

    /// Queues one small message, coalescing it into the tail pooled
    /// block when it fits (blocks come from — and drain back to — the
    /// pool).
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity.
    pub fn push_small(&mut self, bytes: &[u8], pool: &BufPool) -> Result<(), PushError> {
        if self.msgs >= self.capacity {
            return Err(PushError::Full);
        }
        self.msgs += 1;
        if let Some(Seg::Pooled { buf, msgs }) = self.segs.back_mut() {
            if buf.len() + bytes.len() <= buf.capacity() {
                buf.extend_from_slice(bytes);
                *msgs += 1;
                return Ok(());
            }
        }
        let mut buf = pool.take();
        if buf.capacity() < bytes.len() {
            buf.reserve(bytes.len());
        }
        buf.extend_from_slice(bytes);
        self.segs.push_back(Seg::Pooled { buf, msgs: 1 });
        Ok(())
    }

    /// Drains as much as the socket will take with vectored writes.
    /// Returns `Ok(true)` when the ring is fully flushed, `Ok(false)`
    /// when the socket would block with bytes still queued (the caller
    /// should arm write interest).
    ///
    /// # Errors
    /// Propagates fatal socket errors (`EINTR` retried, would-block
    /// translated into `Ok(false)`).
    pub fn flush_into<W: Write + ?Sized>(&mut self, w: &mut W, pool: &BufPool) -> io::Result<bool> {
        loop {
            if self.segs.is_empty() {
                return Ok(true);
            }
            let mut slices = [IoSlice::new(&[]); MAX_IOV];
            let mut cnt = 0usize;
            for (i, seg) in self.segs.iter().take(MAX_IOV).enumerate() {
                let b = seg.bytes();
                slices[i] = IoSlice::new(if i == 0 { &b[self.head_off..] } else { b });
                cnt += 1;
            }
            let wrote = match retry_intr(|| w.write_vectored(&slices[..cnt])) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => n,
                Err(e) if is_would_block(&e) => return Ok(false),
                Err(e) => return Err(e),
            };
            self.consume(wrote, pool);
        }
    }

    /// Advances the ring past `n` written bytes, recycling fully-drained
    /// pooled blocks.
    fn consume(&mut self, mut n: usize, pool: &BufPool) {
        while n > 0 {
            let seg_len = self.segs.front().map_or(0, |s| s.bytes().len());
            let remaining = seg_len - self.head_off;
            if n < remaining {
                self.head_off += n;
                return;
            }
            n -= remaining;
            self.head_off = 0;
            let seg = self.segs.pop_front().expect("nonempty: remaining > 0");
            self.msgs = self.msgs.saturating_sub(seg.msgs() as usize);
            if let Seg::Pooled { buf, .. } = seg {
                pool.put(buf);
            }
        }
    }

    /// Drops everything queued (abrupt sever), recycling pooled blocks.
    pub fn clear(&mut self, pool: &BufPool) {
        while let Some(seg) = self.segs.pop_front() {
            if let Seg::Pooled { buf, .. } = seg {
                pool.put(buf);
            }
        }
        self.head_off = 0;
        self.msgs = 0;
    }
}

// ---------------------------------------------------------------------------
// Outbound: the hub ↔ reactor handle around a SendQueue.
// ---------------------------------------------------------------------------

/// The shared outbound handle for one connection: the hub enqueues from
/// its thread, the owning reactor drains from its event loop. Replaces
/// the writer thread + unbounded channel of the old transport.
pub struct Outbound {
    q: Mutex<SendQueue>,
    pool: BufPool,
    /// Set by the reactor when the socket dies; pushes fail `Closed`.
    closed: AtomicBool,
    /// Wake-dedup: true while the owning reactor owes this connection a
    /// flush attempt.
    dirty: AtomicBool,
}

impl Outbound {
    /// An outbound ring of `capacity` messages drawing coalescing blocks
    /// from `pool`.
    #[must_use]
    pub fn new(capacity: usize, pool: BufPool) -> Self {
        Self {
            q: Mutex::new(SendQueue::new(capacity)),
            pool,
            closed: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
        }
    }

    /// Queues a shared fan-out payload.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after the
    /// socket died.
    pub fn push_shared(&self, bytes: Arc<[u8]>) -> Result<(), PushError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed);
        }
        self.q.lock().expect("outbound lock").push_shared(bytes)
    }

    /// Queues a small (coalesced) control message.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after the
    /// socket died.
    pub fn push_small(&self, bytes: &[u8]) -> Result<(), PushError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed);
        }
        self.q
            .lock()
            .expect("outbound lock")
            .push_small(bytes, &self.pool)
    }

    /// Marks the flush debt; returns `true` when this transition armed
    /// it (the caller should tell the owning reactor exactly once).
    #[must_use]
    pub fn mark_dirty(&self) -> bool {
        !self.dirty.swap(true, Ordering::AcqRel)
    }

    /// Clears the flush debt (reactor-side, before flushing, so a
    /// concurrent push re-arms rather than getting lost).
    pub fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Release);
    }

    /// Marks the socket dead: subsequent pushes fail, queued bytes are
    /// recycled.
    pub fn mark_closed(&self) {
        self.closed.store(true, Ordering::Release);
        self.q.lock().expect("outbound lock").clear(&self.pool);
    }

    /// Whether the socket is known dead.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Messages queued and unflushed.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.q.lock().expect("outbound lock").len()
    }

    /// Whether the ring is fully flushed.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.q.lock().expect("outbound lock").is_empty()
    }

    /// Drains the ring into `w` (see [`SendQueue::flush_into`]).
    ///
    /// # Errors
    /// Propagates fatal socket errors.
    pub fn flush_into<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<bool> {
        self.q
            .lock()
            .expect("outbound lock")
            .flush_into(w, &self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `grain` bytes per call, interleaving
    /// `WouldBlock` — the pathological peer the reactor must handle.
    struct TrickleWriter {
        grain: usize,
        accepted: Vec<u8>,
        block_every: usize,
        calls: usize,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.block_every > 0 && self.calls.is_multiple_of(self.block_every) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "trickle"));
            }
            let n = buf.len().min(self.grain);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_byte_at_a_time_preserves_stream() {
        let pool = BufPool::new(8);
        let mut q = SendQueue::new(1024);
        let mut expect = Vec::new();
        for i in 0..40u8 {
            let msg: Vec<u8> = (0..(i as usize % 7 + 1)).map(|j| i ^ j as u8).collect();
            expect.extend_from_slice(&msg);
            if i % 3 == 0 {
                let shared: Arc<[u8]> = msg.clone().into();
                q.push_shared(shared).unwrap();
            } else {
                q.push_small(&msg, &pool).unwrap();
            }
        }
        let mut w = TrickleWriter {
            grain: 1,
            accepted: Vec::new(),
            block_every: 5,
            calls: 0,
        };
        loop {
            match q.flush_into(&mut w, &pool) {
                Ok(true) => break,
                Ok(false) => {} // would-block: retry, like a writable event
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(w.accepted, expect, "byte stream must be bit-identical");
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn capacity_counts_messages_and_flush_frees_room() {
        let pool = BufPool::new(8);
        let mut q = SendQueue::new(2);
        q.push_small(b"a", &pool).unwrap();
        q.push_small(b"bb", &pool).unwrap();
        assert_eq!(q.push_small(b"c", &pool), Err(PushError::Full));
        let mut w = TrickleWriter {
            grain: 64,
            accepted: Vec::new(),
            block_every: 0,
            calls: 0,
        };
        assert!(q.flush_into(&mut w, &pool).unwrap());
        assert_eq!(w.accepted, b"abb");
        q.push_small(b"c", &pool).unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pooled_blocks_recycle() {
        let pool = BufPool::new(4);
        let mut q = SendQueue::new(64);
        q.push_small(&[7u8; 32], &pool).unwrap();
        let mut w = TrickleWriter {
            grain: 1024,
            accepted: Vec::new(),
            block_every: 0,
            calls: 0,
        };
        assert!(q.flush_into(&mut w, &pool).unwrap());
        assert_eq!(pool.spare(), 1, "drained block returned to the pool");
        let reused = pool.take();
        assert!(reused.is_empty() && reused.capacity() >= 32);
    }

    #[test]
    fn would_block_classification_is_shared() {
        assert!(is_would_block(&io::Error::new(
            io::ErrorKind::WouldBlock,
            "x"
        )));
        assert!(is_would_block(&io::Error::new(
            io::ErrorKind::TimedOut,
            "x"
        )));
        assert!(!is_would_block(&io::Error::new(
            io::ErrorKind::ConnectionReset,
            "x"
        )));
    }

    #[test]
    fn retry_intr_swallows_interrupts() {
        let mut attempts = 0;
        let r: io::Result<u32> = retry_intr(|| {
            attempts += 1;
            if attempts < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "signal"))
            } else {
                Ok(99)
            }
        });
        assert_eq!(r.unwrap(), 99);
        assert_eq!(attempts, 3);
    }

    #[cfg(unix)]
    #[test]
    fn waker_dedups_until_drained() {
        let (w, mut rx) = Waker::pair().unwrap();
        w.wake();
        w.wake();
        w.wake();
        let mut poller = Poller::new().unwrap();
        poller.register(rx.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut evs = Vec::new();
        poller.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert!(evs.iter().any(|e| e.token == 7 && e.readable));
        rx.drain();
        evs.clear();
        poller
            .wait(&mut evs, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(evs.is_empty(), "drained waker is quiet until re-armed");
        w.wake();
        evs.clear();
        poller.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert!(evs.iter().any(|e| e.token == 7 && e.readable));
    }

    /// Regression for the lost wakeup: `drain` used to disarm and *then*
    /// empty the pipe, so a wake landing in between left the flag armed
    /// over an empty pipe and every later wake was swallowed. The drainer
    /// here behaves like the reactor — it drains only when the poller
    /// says readable — so a wedged waker shows as a wait that times out
    /// while wakes are still raining in.
    #[cfg(unix)]
    #[test]
    fn wakes_racing_drain_are_never_lost() {
        const ROUNDS: usize = 100_000;
        let (w, mut rx) = Waker::pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(rx.as_raw_fd(), 7, Interest::READ).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let hammer = {
            let (w, stop) = (w.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    w.wake();
                }
            })
        };
        let mut evs = Vec::new();
        let mut wedged_at = None;
        for round in 0..ROUNDS {
            evs.clear();
            poller.wait(&mut evs, Some(Duration::from_secs(1))).unwrap();
            if evs.is_empty() {
                wedged_at = Some(round);
                break;
            }
            rx.drain();
        }
        // Stop the hammer before asserting, so a failure cannot leave it
        // spinning under the rest of the suite.
        stop.store(true, Ordering::Relaxed);
        hammer.join().unwrap();
        assert_eq!(
            wedged_at, None,
            "wakes swallowed: fd not readable under a hammering waker"
        );
        rx.drain();
        evs.clear();
        poller
            .wait(&mut evs, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(evs.is_empty(), "drained waker is quiet");
        w.wake();
        poller.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert!(
            evs.iter().any(|e| e.token == 7 && e.readable),
            "one wake after the final drain must make the fd readable"
        );
    }

    #[cfg(unix)]
    #[test]
    fn poller_reports_socket_readiness() {
        use std::io::Write as _;
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 42, Interest::BOTH).unwrap();
        let mut evs = Vec::new();
        poller.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        // Nothing to read yet, but an idle socket is writable.
        assert!(evs.iter().any(|e| e.token == 42 && e.writable));
        a.write_all(b"ping").unwrap();
        evs.clear();
        poller.wait(&mut evs, Some(Duration::from_secs(2))).unwrap();
        assert!(evs.iter().any(|e| e.token == 42 && e.readable));
        poller.deregister(b.as_raw_fd()).unwrap();
    }
}
