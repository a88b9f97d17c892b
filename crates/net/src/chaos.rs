//! A deterministic in-process chaos proxy: sits between a client and the
//! gateway on loopback, forwarding bytes while injecting seeded faults —
//! connection resets, partial (chunked) writes, stalls, and byte
//! corruption. The network-side twin of
//! [`FaultPlan`](reads_soc::faults::FaultPlan): compose the two and the
//! serving plane faces chaos on both flanks at once.
//!
//! Determinism: every forwarding direction of every accepted connection
//! gets its own [`Rng`] forked from the config seed, the connection
//! index, and the direction — so a fixed seed yields the same fault
//! sequence run after run, independent of thread scheduling *within* a
//! direction. [`ChaosHandle::cut_now`] additionally severs every live
//! connection on demand, for tests that need an exact number of cuts at
//! exact points in the stream.

use crate::reactor::is_would_block;
use reads_sim::Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Fault intensities. All rates are per forwarded chunk.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for every fault draw.
    pub seed: u64,
    /// Probability of severing the connection after a chunk.
    pub cut_rate: f64,
    /// Probability of flipping one bit in a chunk.
    pub corrupt_rate: f64,
    /// Probability of stalling before forwarding a chunk.
    pub stall_rate: f64,
    /// Stall length.
    pub stall: Duration,
    /// Forward at most this many bytes per write (partial writes);
    /// `0` forwards whole reads.
    pub max_chunk: usize,
    /// Bytes a connection must forward (per direction) before the random
    /// cut fault arms — keeps handshakes out of the blast radius so even
    /// high intensities make progress.
    pub min_bytes_before_cut: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 11,
            cut_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(5),
            max_chunk: 0,
            min_bytes_before_cut: 4 * 1024,
        }
    }
}

/// What the proxy did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections severed (random cuts + [`ChaosHandle::cut_now`]).
    pub cuts: u64,
    /// Chunks with a flipped bit.
    pub corruptions: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// Bytes forwarded (both directions).
    pub forwarded_bytes: u64,
}

#[derive(Default)]
struct Shared {
    stats: Mutex<ChaosStats>,
    /// Bumped by [`ChaosHandle::cut_now`]; forwarders sever when they see
    /// a generation newer than the one they started under.
    kill_generation: AtomicU64,
    stop: AtomicBool,
}

/// A running chaos proxy.
pub struct ChaosProxy;

/// Handle to a running [`ChaosProxy`].
pub struct ChaosHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Binds a loopback port and forwards every accepted connection to
    /// `upstream` under the configured fault intensities.
    ///
    /// # Errors
    /// Propagates bind failures and upstream address resolution.
    pub fn start(upstream: impl ToSocketAddrs, cfg: ChaosConfig) -> std::io::Result<ChaosHandle> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("no upstream address resolved"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let workers = Arc::clone(&workers);
            thread::Builder::new()
                .name("reads-chaos-accept".into())
                .spawn(move || accept_loop(&listener, upstream, &cfg, &shared, &workers))
                .expect("spawn chaos acceptor")
        };
        Ok(ChaosHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ChaosHandle {
    /// The proxy's client-facing address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the fault counters.
    ///
    /// # Panics
    /// Panics when a forwarder panicked while holding the stats lock.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        *self.shared.stats.lock().expect("chaos stats lock")
    }

    /// Severs every live proxied connection now (deterministic forced
    /// cut). New connections are unaffected.
    pub fn cut_now(&self) {
        self.shared.kill_generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Stops accepting, severs everything, joins every thread.
    ///
    /// # Panics
    /// Panics when the acceptor or a forwarder panicked.
    pub fn shutdown(mut self) -> ChaosStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.kill_generation.fetch_add(1, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            a.join().expect("chaos acceptor panicked");
        }
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("chaos workers lock"));
        for w in workers {
            w.join().expect("chaos forwarder panicked");
        }
        self.stats()
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    cfg: &ChaosConfig,
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut conn_index = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                conn_index += 1;
                shared.stats.lock().expect("chaos stats lock").connections += 1;
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let pairs = [
                    (client.try_clone(), server.try_clone(), 0u64),
                    (server.try_clone(), client.try_clone(), 1u64),
                ];
                let mut guard = workers.lock().expect("chaos workers lock");
                for (src, dst, direction) in pairs {
                    let (Ok(src), Ok(dst)) = (src, dst) else {
                        continue;
                    };
                    // Per-direction seed: deterministic under a fixed
                    // seed regardless of scheduling across connections.
                    let rng = Rng::seed_from_u64(
                        cfg.seed ^ conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ direction,
                    );
                    let cfg = cfg.clone();
                    let shared = Arc::clone(shared);
                    guard.push(
                        thread::Builder::new()
                            .name(format!("reads-chaos-{conn_index}d{direction}"))
                            .spawn(move || forward_loop(src, dst, &cfg, rng, &shared))
                            .expect("spawn chaos forwarder"),
                    );
                }
            }
            Err(e) if is_would_block(&e) => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn forward_loop(
    mut src: TcpStream,
    mut dst: TcpStream,
    cfg: &ChaosConfig,
    mut rng: Rng,
    shared: &Arc<Shared>,
) {
    let born_generation = shared.kill_generation.load(Ordering::SeqCst);
    let _ = src.set_read_timeout(Some(Duration::from_millis(10)));
    let mut chunk = [0u8; 16 * 1024];
    let mut forwarded = 0u64;
    let sever = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    };
    loop {
        if shared.kill_generation.load(Ordering::SeqCst) != born_generation {
            shared.stats.lock().expect("chaos stats lock").cuts += 1;
            sever(&src, &dst);
            return;
        }
        let n = match src.read(&mut chunk) {
            Ok(0) => {
                sever(&src, &dst);
                return;
            }
            Ok(n) => n,
            Err(e) if is_would_block(&e) => continue,
            Err(_) => {
                sever(&src, &dst);
                return;
            }
        };
        if cfg.stall_rate > 0.0 && rng.chance(cfg.stall_rate) {
            shared.stats.lock().expect("chaos stats lock").stalls += 1;
            thread::sleep(cfg.stall);
        }
        if cfg.corrupt_rate > 0.0 && rng.chance(cfg.corrupt_rate) {
            let byte = rng.index(n);
            let bit = rng.index(8) as u32;
            chunk[byte] ^= 1 << bit;
            shared.stats.lock().expect("chaos stats lock").corruptions += 1;
        }
        // Partial writes: forward in bounded pieces so the receiver's
        // incremental decoder sees every possible split point.
        let piece = if cfg.max_chunk == 0 { n } else { cfg.max_chunk };
        let mut off = 0;
        while off < n {
            let end = (off + piece).min(n);
            if dst.write_all(&chunk[off..end]).is_err() {
                sever(&src, &dst);
                return;
            }
            off = end;
        }
        forwarded += n as u64;
        shared
            .stats
            .lock()
            .expect("chaos stats lock")
            .forwarded_bytes += n as u64;
        if cfg.cut_rate > 0.0 && forwarded >= cfg.min_bytes_before_cut && rng.chance(cfg.cut_rate) {
            shared.stats.lock().expect("chaos stats lock").cuts += 1;
            sever(&src, &dst);
            return;
        }
    }
}
