//! The socket backend: ranks as real OS processes over stream sockets.
//!
//! A run consists of one **coordinator** (the parent process, inside
//! [`run_socket_cluster`]) and one **child process per live rank**. The
//! coordinator re-executes the current test binary filtered down to a
//! child-entry test, which calls [`child_serve`] with a registry of named
//! workloads; everything a child needs — rank, cluster size, control-socket
//! address, workload name, and bit-exact [`FaultPlan`] / [`RetryPolicy`]
//! encodings — travels through `LCC_SOCKET_*` environment variables.
//!
//! Wiring:
//!
//! * **Data mesh** — a full mesh of Unix-domain stream sockets (TCP
//!   loopback behind the `tcp` feature): rank `r` listens, connects to
//!   every live rank `s < r`, and accepts from every live rank `s > r`.
//!   Each connection opens with a handshake (`magic, version, rank`) so
//!   the acceptor knows who it is talking to. Frames are length-prefixed
//!   ([`frame::MAX_FRAME_LEN`] guards corrupt prefixes); a reader thread
//!   per peer funnels them into one queue, which keeps OS socket buffers
//!   drained independently of protocol state (no flow-control deadlock).
//!   Outgoing frames are assembled in per-peer [`BufferPool`] buffers, so
//!   warm connections send without allocating.
//! * **Control channel** — each child keeps one connection to the
//!   coordinator, which stands in for the shared state the in-process
//!   backend gets from `Arc`s: barrier rendezvous (`BARRIER_ENTER` /
//!   `BARRIER_RELEASE`), the end-of-run done-set (`DONE` / `ALL_DONE`),
//!   address exchange (`HELLO` / `START`), and result delivery (`RESULT`
//!   carries the workload's bytes plus the rank's [`CommStatsSnapshot`]).
//!
//! Each child counts into its own [`CommStats`] table — the protocol's
//! events and its liveness board's alike — and ships the table's two views
//! home. Because every comm counter is an exact function of the fault
//! seed, summing the per-process snapshots reproduces the totals a
//! shared-table in-process run records — the property the conformance
//! suite (`tests/transport_conformance.rs`) asserts as exact equality.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lcc_obs::codec::{CodecError, Reader, Writer};

use super::fault::FaultTransport;
use super::frame::{self, MAX_FRAME_LEN};
use super::liveness::{LivenessBoard, LivenessStats};
use super::pool::BufferPool;
use super::{PointOutcome, RecvOutcome, Transport};
use crate::cluster::CommWorld;
use crate::fault::{CommError, FaultPlan, RetryPolicy};
use crate::stats::{CommStats, CommStatsSnapshot};

/// Handshake magic opening every data-mesh connection: "LCCT".
const HANDSHAKE_MAGIC: u32 = 0x4C43_4354;
/// Wire-protocol version carried in the handshake.
const WIRE_VERSION: u8 = 1;

// Control-channel message kinds.
const CTL_HELLO: u8 = 0x10;
const CTL_START: u8 = 0x11;
const CTL_BARRIER_ENTER: u8 = 0x12;
const CTL_BARRIER_RELEASE: u8 = 0x13;
const CTL_DONE: u8 = 0x14;
const CTL_ALL_DONE: u8 = 0x15;
const CTL_RESULT: u8 = 0x16;
/// Child → coordinator: "I reached protocol point `idx`" (gate entry).
const CTL_POINT: u8 = 0x17;
/// Coordinator → child: released from the gate it is parked at.
const CTL_PROCEED: u8 = 0x18;
/// Coordinator → survivors: "rank `r` restarted at `addr`; reconnect".
const CTL_REJOIN: u8 = 0x19;

/// Environment variable marking a process as a socket-cluster child.
pub const CHILD_ENV: &str = "LCC_SOCKET_CHILD";
/// Environment variable marking a child as a checkpoint-restarted rank.
pub const REJOIN_ENV: &str = "LCC_SOCKET_REJOIN";

/// Address family for the data mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFamily {
    /// Unix-domain stream sockets (the default).
    Uds,
    /// TCP over 127.0.0.1 (feature-gated: the loopback mesh is slower and
    /// only exists to prove the framing works over a real network stack).
    #[cfg(feature = "tcp")]
    Tcp,
}

impl SocketFamily {
    fn as_env(&self) -> &'static str {
        match self {
            SocketFamily::Uds => "uds",
            #[cfg(feature = "tcp")]
            SocketFamily::Tcp => "tcp",
        }
    }

    fn from_env(s: &str) -> Result<SocketFamily, CommError> {
        match s {
            "uds" => Ok(SocketFamily::Uds),
            #[cfg(feature = "tcp")]
            "tcp" => Ok(SocketFamily::Tcp),
            other => Err(coord_err(format!("unknown socket family `{other}`"))),
        }
    }
}

/// A stream connection of either family.
enum Conn {
    Unix(UnixStream),
    #[cfg(feature = "tcp")]
    Tcp(std::net::TcpStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            #[cfg(feature = "tcp")]
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(t),
            #[cfg(feature = "tcp")]
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            #[cfg(feature = "tcp")]
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            #[cfg(feature = "tcp")]
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            #[cfg(feature = "tcp")]
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A listener of either family.
enum MeshListener {
    Unix(UnixListener),
    #[cfg(feature = "tcp")]
    Tcp(std::net::TcpListener),
}

impl MeshListener {
    fn bind(
        family: SocketFamily,
        dir: &std::path::Path,
        rank: usize,
    ) -> io::Result<(MeshListener, String)> {
        match family {
            SocketFamily::Uds => {
                let path = dir.join(format!("data-{rank}.sock"));
                // A checkpoint-restarted rank rebinds the same path its dead
                // predecessor left behind; unlinking is a no-op otherwise.
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)?;
                Ok((
                    MeshListener::Unix(listener),
                    path.to_string_lossy().into_owned(),
                ))
            }
            #[cfg(feature = "tcp")]
            SocketFamily::Tcp => {
                let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
                let addr = listener.local_addr()?.to_string();
                Ok((MeshListener::Tcp(listener), addr))
            }
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            MeshListener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            #[cfg(feature = "tcp")]
            MeshListener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
        }
    }
}

fn connect(family: SocketFamily, addr: &str) -> io::Result<Conn> {
    match family {
        SocketFamily::Uds => UnixStream::connect(addr).map(Conn::Unix),
        #[cfg(feature = "tcp")]
        SocketFamily::Tcp => std::net::TcpStream::connect(addr).map(|s| {
            let _ = s.set_nodelay(true);
            Conn::Tcp(s)
        }),
    }
}

fn io_err(rank: usize, peer: usize, what: &str, e: io::Error) -> CommError {
    CommError::Transport {
        rank,
        peer,
        detail: format!("{what}: {e}"),
    }
}

fn coord_err(detail: String) -> CommError {
    CommError::Transport {
        rank: usize::MAX,
        peer: usize::MAX,
        detail,
    }
}

/// Writes one `[len u32 LE][payload]` frame, assembled in `buf` so the OS
/// sees a single contiguous write.
fn write_frame(conn: &mut Conn, buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    buf.clear();
    buf.reserve(4 + payload.len());
    buf.put_u32(payload.len() as u32);
    buf.extend_from_slice(payload);
    conn.write_all(buf)
}

/// Reads one length-prefixed frame. `Ok(None)` is clean EOF at a frame
/// boundary; a corrupt or oversized length prefix is an error, never an
/// attempted giant allocation.
fn read_frame(conn: &mut Conn) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match conn.read(&mut len[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = Reader::new(&len)
        .u32()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))? as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = vec![0u8; len];
    conn.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A gate event forwarded to a rank parked at a protocol point.
enum PointMsg {
    /// Released from the gate.
    Proceed,
    /// A restarted rank is rejoining; reconnect before proceeding.
    Rejoin { rank: usize, addr: String },
}

/// One rank's endpoint over the socket mesh.
pub struct SocketTransport {
    rank: usize,
    size: usize,
    /// Outgoing data connections, indexed by peer (None for self, crashed
    /// peers, and — on the acceptor side before the mesh is up — unmet
    /// peers). Shared with the heartbeat thread, which is why the vector
    /// sits behind a mutex: a heartbeat must never interleave with a data
    /// frame's bytes.
    writers: Arc<Mutex<Vec<Option<Conn>>>>,
    /// Per-peer write-assembly buffers.
    pools: Vec<BufferPool>,
    /// Incoming frames from every peer's reader thread.
    incoming: mpsc::Receiver<(usize, Vec<u8>)>,
    /// Our own sender half, kept so rejoin-time reader threads can be
    /// spawned after the mesh is up.
    frame_tx: mpsc::Sender<(usize, Vec<u8>)>,
    /// The data listener, kept alive so a lower-ranked survivor can accept
    /// a restarted peer's fresh connection mid-run.
    listener: MeshListener,
    family: SocketFamily,
    /// Control connection to the coordinator (writer half).
    ctl: Conn,
    ctl_buf: Vec<u8>,
    /// Barrier releases forwarded by the control reader thread.
    barrier_rx: mpsc::Receiver<()>,
    /// Gate releases and rejoin notices forwarded by the control reader.
    point_rx: mpsc::Receiver<PointMsg>,
    /// How long to park at a gate before declaring the coordinator lost.
    point_timeout: Duration,
    /// Set once the coordinator broadcasts `ALL_DONE`.
    all_done: Arc<AtomicBool>,
    /// Failure-detector state shared with reader/heartbeat threads.
    board: Arc<LivenessBoard>,
    /// Tells the heartbeat thread to stand down at drop.
    hb_stop: Arc<AtomicBool>,
    /// True when this process is a checkpoint-restarted rank.
    rejoiner: bool,
    /// Latched after the first gate reports [`PointOutcome::Rejoined`].
    rejoin_announced: bool,
}

impl SocketTransport {
    fn ctl_send(&mut self, payload: &[u8]) -> Result<(), CommError> {
        let mut buf = std::mem::take(&mut self.ctl_buf);
        let res = write_frame(&mut self.ctl, &mut buf, payload);
        self.ctl_buf = buf;
        res.map_err(|e| io_err(self.rank, usize::MAX, "control write", e))
    }

    /// Reconnects with a restarted peer while parked at a gate. Direction
    /// mirrors the initial mesh build: the rejoiner dials every lower rank
    /// (our listener's backlog holds its connection until we accept here)
    /// and listens for every higher rank.
    fn admit_rejoiner(&mut self, peer: usize, addr: &str) -> Result<(), CommError> {
        let rank = self.rank;
        if peer == rank || peer >= self.size {
            return Ok(());
        }
        let conn = if rank < peer {
            let mut conn = self
                .listener
                .accept()
                .map_err(|e| io_err(rank, peer, "accept rejoining peer", e))?;
            let got = read_handshake(rank, &mut conn)?;
            if got != peer {
                return Err(coord_err(format!(
                    "expected rejoin handshake from rank {peer}, got rank {got}"
                )));
            }
            conn
        } else {
            let mut conn = connect(self.family, addr)
                .map_err(|e| io_err(rank, peer, "dial rejoining peer", e))?;
            conn.write_all(&encode_handshake(rank))
                .map_err(|e| io_err(rank, peer, "handshake rejoining peer", e))?;
            conn
        };
        let reader = conn
            .try_clone()
            .map_err(|e| io_err(rank, peer, "clone rejoined stream", e))?;
        // Install the new conn and clear the dead predecessor's hard
        // evidence under ONE writers lock, so the heartbeat thread never
        // beats a connection the board does not yet know the peer by. A
        // late EOF on the predecessor's socket carries its incarnation
        // and is dropped.
        {
            let mut writers = lock_writers(&self.writers);
            self.board.mark_rejoined(peer);
            writers[peer] = Some(conn);
        }
        // Spawned after `mark_rejoined` so its evidence carries the
        // successor's incarnation.
        spawn_reader(peer, reader, self.frame_tx.clone(), Arc::clone(&self.board));
        Ok(())
    }
}

fn lock_writers(w: &Arc<Mutex<Vec<Option<Conn>>>>) -> std::sync::MutexGuard<'_, Vec<Option<Conn>>> {
    w.lock().unwrap_or_else(|e| e.into_inner())
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.hb_stop.store(true, Ordering::SeqCst);
        // At a clean end of run every peer hears a goodbye before this
        // process exits, so the EOF that follows is not taken for a death.
        if self.all_done() {
            let mut buf = Vec::new();
            for conn in lock_writers(&self.writers).iter_mut().flatten() {
                let _ = write_frame(conn, &mut buf, &[frame::KIND_BYE]);
            }
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), CommError> {
        let rank = self.rank;
        let mut buf = self.pools[to].checkout(4 + frame.len());
        let res = {
            let mut writers = lock_writers(&self.writers);
            match writers.get_mut(to) {
                Some(Some(conn)) => write_frame(conn, &mut buf, &frame),
                _ => {
                    self.pools[to].recycle(buf);
                    return Err(CommError::Transport {
                        rank,
                        peer: to,
                        detail: "no data connection to peer".to_string(),
                    });
                }
            }
        };
        self.pools[to].recycle(buf);
        // A failed write is not evidence of its own: a peer that is gone
        // closed the connection, and the reader's EOF on it is the
        // evidence (or, after its goodbye, a clean exit).
        res.map_err(|e| io_err(rank, to, "data write", e))
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<RecvOutcome, CommError> {
        match self.incoming.recv_timeout(timeout) {
            Ok((src, frame)) => Ok(RecvOutcome::Frame(src, frame)),
            Err(RecvTimeoutError::Timeout) => Ok(RecvOutcome::Idle),
            Err(RecvTimeoutError::Disconnected) => Ok(RecvOutcome::Closed),
        }
    }

    fn try_recv_frame(&mut self) -> Result<RecvOutcome, CommError> {
        match self.incoming.try_recv() {
            Ok((src, frame)) => Ok(RecvOutcome::Frame(src, frame)),
            Err(TryRecvError::Empty) => Ok(RecvOutcome::Idle),
            Err(TryRecvError::Disconnected) => Ok(RecvOutcome::Closed),
        }
    }

    fn barrier(&mut self, timeout: Duration) -> Result<bool, CommError> {
        self.ctl_send(&[CTL_BARRIER_ENTER])?;
        match self.barrier_rx.recv_timeout(timeout) {
            Ok(()) => Ok(true),
            Err(RecvTimeoutError::Timeout) => Ok(false),
            Err(RecvTimeoutError::Disconnected) => Err(coord_err(
                "coordinator hung up during a barrier".to_string(),
            )),
        }
    }

    fn announce_done(&mut self) {
        // Best effort, like the in-process done counter: if the
        // coordinator is gone the drain falls back to its deadline.
        let _ = self.ctl_send(&[CTL_DONE]);
    }

    fn all_done(&self) -> bool {
        self.all_done.load(Ordering::SeqCst)
    }

    fn protocol_point(&mut self, idx: u64) -> Result<PointOutcome, CommError> {
        self.ctl_send(&encode_point(idx))?;
        loop {
            match self.point_rx.recv_timeout(self.point_timeout) {
                Ok(PointMsg::Proceed) => break,
                Ok(PointMsg::Rejoin { rank, addr }) => self.admit_rejoiner(rank, &addr)?,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout {
                        op: "protocol_point",
                        rank: self.rank,
                        waiting_on: usize::MAX,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(coord_err(
                        "coordinator hung up at a protocol point".to_string(),
                    ))
                }
            }
        }
        if self.rejoiner && !self.rejoin_announced {
            self.rejoin_announced = true;
            return Ok(PointOutcome::Rejoined);
        }
        Ok(PointOutcome::Proceed)
    }

    fn kills_are_real(&self) -> bool {
        true
    }

    fn confirmed_dead(&self) -> BTreeSet<usize> {
        self.board.confirmed_dead()
    }
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// A named workload a child process can run: consumes the rank's
/// [`CommWorld`] (dropping it runs the end-of-run drain) and returns the
/// bytes to ship back to the coordinator.
pub type Workload = fn(CommWorld) -> Vec<u8>;

/// Whether this process is a socket-cluster child (spawned by
/// [`run_socket_cluster`]). The child-entry test uses this to be a no-op
/// in normal test runs.
pub fn is_child() -> bool {
    std::env::var_os(CHILD_ENV).is_some()
}

fn env_var(name: &str) -> Result<String, CommError> {
    std::env::var(name).map_err(|_| coord_err(format!("missing child env var {name}")))
}

/// Child-process entry point: wires this rank into the mesh, runs the
/// workload named by the environment, and reports the result and counter
/// snapshot to the coordinator. Call from a `#[test]` guarded by
/// [`is_child`]; see `tests/transport_conformance.rs`.
pub fn child_serve(registry: &[(&str, Workload)]) -> Result<(), CommError> {
    let rank: usize = env_var("LCC_SOCKET_RANK")?
        .parse()
        .map_err(|_| coord_err("bad LCC_SOCKET_RANK".to_string()))?;
    let size: usize = env_var("LCC_SOCKET_SIZE")?
        .parse()
        .map_err(|_| coord_err("bad LCC_SOCKET_SIZE".to_string()))?;
    let ctl_path = env_var("LCC_SOCKET_CTL")?;
    let family = SocketFamily::from_env(&env_var("LCC_SOCKET_FAMILY")?)?;
    let plan = Arc::new(FaultPlan::from_env_string(&env_var("LCC_SOCKET_PLAN")?)?);
    let retry = RetryPolicy::from_env_string(&env_var("LCC_SOCKET_RETRY")?)?;
    let rejoiner = std::env::var_os(REJOIN_ENV).is_some();
    let workload_name = env_var("LCC_SOCKET_WORKLOAD")?;
    let workload = registry
        .iter()
        .find(|(name, _)| *name == workload_name)
        .map(|(_, f)| *f)
        .ok_or_else(|| coord_err(format!("workload `{workload_name}` not in child registry")))?;
    let dir = PathBuf::from(env_var("LCC_SOCKET_DIR")?);
    let (listener, my_addr) = MeshListener::bind(family, &dir, rank)
        .map_err(|e| io_err(rank, usize::MAX, "bind data listener", e))?;

    // Control channel up, introduce ourselves, learn everyone's address.
    let mut ctl = connect(SocketFamily::Uds, &ctl_path)
        .map_err(|e| io_err(rank, usize::MAX, "connect control socket", e))?;
    let mut scratch = Vec::new();
    write_frame(&mut ctl, &mut scratch, &encode_hello(rank, &my_addr))
        .map_err(|e| io_err(rank, usize::MAX, "send HELLO", e))?;
    let start = read_frame(&mut ctl)
        .map_err(|e| io_err(rank, usize::MAX, "read START", e))?
        .ok_or_else(|| coord_err("coordinator closed before START".to_string()))?;
    let addrs = decode_start(&start)?;
    if addrs.len() != size {
        return Err(coord_err(format!(
            "START carried {} addresses for a {size}-rank cluster",
            addrs.len()
        )));
    }

    // Data mesh: connect down, accept up. Peers with no address (crashed
    // ranks) are skipped on both sides. Every reader thread shares the
    // liveness board: it reports arrivals and turns EOF into hard evidence.
    // The board and the world count into one table.
    let stats = Arc::new(CommStats::default());
    let board = LivenessBoard::new(rank, size, &retry, Arc::clone(&stats));
    let (frame_tx, frame_rx) = mpsc::channel::<(usize, Vec<u8>)>();
    let mut writers: Vec<Option<Conn>> = (0..size).map(|_| None).collect();
    for (peer, addr) in addrs.iter().enumerate().take(rank) {
        let Some(addr) = addr else { continue };
        let mut conn =
            connect(family, addr).map_err(|e| io_err(rank, peer, "connect to peer", e))?;
        conn.write_all(&encode_handshake(rank))
            .map_err(|e| io_err(rank, peer, "send handshake", e))?;
        spawn_reader(
            peer,
            conn.try_clone()
                .map_err(|e| io_err(rank, peer, "clone peer stream", e))?,
            frame_tx.clone(),
            Arc::clone(&board),
        );
        writers[peer] = Some(conn);
    }
    let accepts = addrs
        .iter()
        .enumerate()
        .skip(rank + 1)
        .filter(|(_, a)| a.is_some())
        .count();
    for _ in 0..accepts {
        let mut conn = listener
            .accept()
            .map_err(|e| io_err(rank, usize::MAX, "accept peer", e))?;
        let peer = read_handshake(rank, &mut conn)?;
        if peer <= rank || peer >= size {
            return Err(coord_err(format!(
                "rank {rank} accepted a handshake claiming rank {peer}"
            )));
        }
        spawn_reader(
            peer,
            conn.try_clone()
                .map_err(|e| io_err(rank, peer, "clone peer stream", e))?,
            frame_tx.clone(),
            Arc::clone(&board),
        );
        writers[peer] = Some(conn);
    }
    // The transport keeps a sender half so rejoin-time readers can be
    // spawned later; `recv_frame` therefore never reports `Closed`, which
    // is fine — the protocol layer is timeout-driven.
    let writers = Arc::new(Mutex::new(writers));

    // Control reader: forwards barrier releases and gate events, latches
    // ALL_DONE.
    let all_done = Arc::new(AtomicBool::new(false));
    let (barrier_tx, barrier_rx) = mpsc::channel::<()>();
    let (point_tx, point_rx) = mpsc::channel::<PointMsg>();
    {
        let mut ctl_read = ctl
            .try_clone()
            .map_err(|e| io_err(rank, usize::MAX, "clone control stream", e))?;
        let all_done = Arc::clone(&all_done);
        std::thread::spawn(move || {
            while let Ok(Some(msg)) = read_frame(&mut ctl_read) {
                match msg.first() {
                    Some(&CTL_BARRIER_RELEASE) => {
                        if barrier_tx.send(()).is_err() {
                            break;
                        }
                    }
                    Some(&CTL_ALL_DONE) => all_done.store(true, Ordering::SeqCst),
                    Some(&CTL_PROCEED) => {
                        if point_tx.send(PointMsg::Proceed).is_err() {
                            break;
                        }
                    }
                    Some(&CTL_REJOIN) => match decode_rejoin(&msg) {
                        Some((peer, addr)) => {
                            if point_tx
                                .send(PointMsg::Rejoin { rank: peer, addr })
                                .is_err()
                            {
                                break;
                            }
                        }
                        None => break,
                    },
                    _ => break,
                }
            }
        });
    }

    // Heartbeat thread: a periodic beat to every connected peer, so a
    // silent-but-alive rank (deep in a compute phase) is never suspected.
    let hb_stop = Arc::new(AtomicBool::new(false));
    {
        let writers = Arc::clone(&writers);
        let board = Arc::clone(&board);
        let stop = Arc::clone(&hb_stop);
        let period = retry.heartbeat_period();
        std::thread::spawn(move || {
            let mut beat = 0u64;
            let mut buf = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(period);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                beat += 1;
                let hb = frame::encode_heartbeat(beat);
                let mut sent = 0u64;
                let mut guard = lock_writers(&writers);
                for slot in guard.iter_mut() {
                    if let Some(conn) = slot {
                        if write_frame(conn, &mut buf, &hb).is_ok() {
                            sent += 1;
                        } else {
                            // The peer closed: its reader's EOF decides
                            // whether that was a death.
                            *slot = None;
                        }
                    }
                }
                drop(guard);
                if sent > 0 {
                    board.note_beats_sent(sent);
                }
            }
        });
    }

    let transport = SocketTransport {
        rank,
        size,
        writers,
        pools: (0..size).map(|_| BufferPool::default()).collect(),
        incoming: frame_rx,
        frame_tx,
        listener,
        family,
        ctl,
        ctl_buf: Vec::new(),
        barrier_rx,
        point_rx,
        point_timeout: retry.coordinator_deadline(),
        all_done,
        board: Arc::clone(&board),
        hb_stop,
        rejoiner,
        rejoin_announced: false,
    };
    let boxed: Box<dyn Transport> = if plan.is_active() {
        Box::new(FaultTransport::new(transport, Arc::clone(&plan)))
    } else {
        Box::new(transport)
    };

    lcc_obs::set_rank(Some(rank as u32));
    let world = CommWorld::over(boxed, Arc::clone(&plan), retry, Arc::clone(&stats));
    let result = workload(world); // dropping the world runs the drain
    lcc_obs::set_rank(None);
    lcc_obs::set_epoch(0);
    // RESULT: rank, the table's two views, the first-detection
    // timestamp, then the workload's bytes. The world consumed the control
    // writer, so a fresh control connection keeps ownership simple.
    let first_detection = stats.first_detection_ns().unwrap_or(0);
    let mut ctl = connect(SocketFamily::Uds, &ctl_path)
        .map_err(|e| io_err(rank, usize::MAX, "reconnect control socket", e))?;
    let msg = encode_result(
        rank,
        &stats.snapshot(),
        &stats.liveness(),
        first_detection,
        &result,
    );
    write_frame(&mut ctl, &mut scratch, &msg)
        .map_err(|e| io_err(rank, usize::MAX, "send RESULT", e))?;
    Ok(())
}

fn spawn_reader(
    peer: usize,
    mut conn: Conn,
    tx: mpsc::Sender<(usize, Vec<u8>)>,
    board: Arc<LivenessBoard>,
) {
    // Evidence from this connection is versioned against the peer's
    // incarnation at spawn time: if the peer dies and a restarted successor
    // is admitted before this thread notices the EOF, the stale verdict is
    // dropped instead of condemning the successor.
    let incarnation = board.incarnation(peer);
    std::thread::spawn(move || {
        // Set by the peer's goodbye: the run is over and it is leaving.
        let mut bye = false;
        loop {
            match read_frame(&mut conn) {
                Ok(Some(fr)) => {
                    // Heartbeats and the goodbye live below the reliability
                    // protocol: they feed the detector and are never
                    // forwarded upward.
                    if fr.first() == Some(&frame::KIND_HEARTBEAT)
                        && fr.len() == frame::HEARTBEAT_FRAME_LEN
                    {
                        board.note_beat(peer);
                        continue;
                    }
                    if fr[..] == [frame::KIND_BYE] {
                        bye = true;
                        continue;
                    }
                    board.note_traffic(peer);
                    if tx.send((peer, fr)).is_err() {
                        break;
                    }
                }
                // EOF or a socket error is hard evidence of a death, unless
                // the peer said goodbye first: then it exited cleanly.
                Ok(None) | Err(_) => {
                    if !bye {
                        board.mark_hard_dead_as_of(peer, incarnation);
                    }
                    break;
                }
            }
        }
    });
}

fn now_unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn read_handshake(rank: usize, conn: &mut Conn) -> Result<usize, CommError> {
    let mut shake = [0u8; HANDSHAKE_LEN];
    conn.read_exact(&mut shake)
        .map_err(|e| io_err(rank, usize::MAX, "read handshake", e))?;
    let (magic, version, peer) = decode_handshake(&shake)
        .map_err(|e| coord_err(format!("bad handshake on rank {rank}'s listener: {e}")))?;
    if magic != HANDSHAKE_MAGIC || version != WIRE_VERSION {
        return Err(coord_err(format!(
            "bad handshake on rank {rank}'s listener (magic {magic:#x}, version {version})"
        )));
    }
    Ok(peer)
}

// ---------------------------------------------------------------------------
// Control-frame codec (DESIGN.md §5p). Decoders return `CodecError`; their
// callers turn it into the coordinator's typed `CommError`.
// ---------------------------------------------------------------------------

/// Byte length of a data-mesh handshake: magic, version, rank.
const HANDSHAKE_LEN: usize = 4 + 1 + 4;

fn encode_handshake(rank: usize) -> Vec<u8> {
    let mut shake = Vec::with_capacity(HANDSHAKE_LEN);
    shake.put_u32(HANDSHAKE_MAGIC);
    shake.push(WIRE_VERSION);
    shake.put_u32(rank as u32);
    shake
}

/// `(magic, version, rank)` of a handshake.
fn decode_handshake(shake: &[u8]) -> Result<(u32, u8, usize), CodecError> {
    let mut r = Reader::new(shake);
    let fields = (r.u32()?, r.u8()?, r.u32()? as usize);
    r.finish()?;
    Ok(fields)
}

/// A reader past the kind byte of a control frame that must be `kind`.
fn ctl_reader(msg: &[u8], kind: u8) -> Result<Reader<'_>, CodecError> {
    let mut r = Reader::new(msg);
    match r.u8()? {
        k if k == kind => Ok(r),
        got => Err(CodecError::BadKind { got }),
    }
}

/// A control frame of kind `kind` followed by a `u32` rank; returns the rank
/// and a reader over the rest.
fn decode_ranked(msg: &[u8], kind: u8) -> Result<(usize, Reader<'_>), CodecError> {
    let mut r = ctl_reader(msg, kind)?;
    Ok((r.u32()? as usize, r))
}

fn encode_ranked(kind: u8, rank: usize, rest: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(5 + rest.len());
    msg.push(kind);
    msg.put_u32(rank as u32);
    msg.extend_from_slice(rest);
    msg
}

fn encode_hello(rank: usize, addr: &str) -> Vec<u8> {
    encode_ranked(CTL_HELLO, rank, addr.as_bytes())
}

fn decode_hello(msg: &[u8]) -> Result<(usize, String), CommError> {
    let (rank, r) = decode_ranked(msg, CTL_HELLO)
        .map_err(|_| coord_err("malformed HELLO frame".to_string()))?;
    let addr = String::from_utf8(r.rest().to_vec())
        .map_err(|_| coord_err("non-UTF-8 mesh address in HELLO".to_string()))?;
    Ok((rank, addr))
}

fn encode_rejoin(rank: usize, addr: &str) -> Vec<u8> {
    encode_ranked(CTL_REJOIN, rank, addr.as_bytes())
}

fn decode_rejoin(msg: &[u8]) -> Option<(usize, String)> {
    let (rank, r) = decode_ranked(msg, CTL_REJOIN).ok()?;
    let addr = String::from_utf8(r.rest().to_vec()).ok()?;
    Some((rank, addr))
}

fn encode_point(idx: u64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(9);
    msg.push(CTL_POINT);
    msg.put_u64(idx);
    msg
}

fn decode_point(msg: &[u8]) -> Result<u64, CodecError> {
    let mut r = ctl_reader(msg, CTL_POINT)?;
    let idx = r.u64()?;
    r.finish()?;
    Ok(idx)
}

fn encode_start(addrs: &[Option<String>]) -> Vec<u8> {
    let mut msg = vec![CTL_START];
    msg.put_u32(addrs.len() as u32);
    for addr in addrs {
        let addr = addr.as_deref().unwrap_or("");
        msg.put_u32(addr.len() as u32);
        msg.extend_from_slice(addr.as_bytes());
    }
    msg
}

fn decode_start(msg: &[u8]) -> Result<Vec<Option<String>>, CommError> {
    let err = || coord_err("malformed START frame".to_string());
    let mut r = ctl_reader(msg, CTL_START).map_err(|_| err())?;
    // Each address costs at least its u32 length.
    let count = r
        .u32()
        .and_then(|c| r.count(c as u64, 4))
        .map_err(|_| err())?;
    let mut addrs = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32().map_err(|_| err())? as usize;
        let addr = r.bytes(len).map_err(|_| err())?;
        addrs.push(match len {
            0 => None,
            _ => Some(String::from_utf8(addr.to_vec()).map_err(|_| err())?),
        });
    }
    r.finish().map_err(|_| err())?;
    Ok(addrs)
}

/// Byte length of a RESULT frame before its payload: kind, rank, stats
/// snapshot, liveness counters, first-detection timestamp.
const RESULT_HEADER_LEN: usize =
    1 + 4 + CommStatsSnapshot::WIRE_BYTES + LivenessStats::WIRE_BYTES + 8;

/// A decoded RESULT frame: rank, stats, liveness, first detection, payload.
type ResultFrame<'a> = (usize, CommStatsSnapshot, LivenessStats, u64, &'a [u8]);

fn encode_result(
    rank: usize,
    stats: &CommStatsSnapshot,
    liveness: &LivenessStats,
    first_detection_ns: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut msg = Vec::with_capacity(RESULT_HEADER_LEN + payload.len());
    msg.push(CTL_RESULT);
    msg.put_u32(rank as u32);
    msg.extend_from_slice(&stats.to_bytes());
    msg.extend_from_slice(&liveness.to_bytes());
    msg.put_u64(first_detection_ns);
    msg.extend_from_slice(payload);
    msg
}

fn decode_result(msg: &[u8]) -> Result<ResultFrame<'_>, CodecError> {
    let (rank, mut r) = decode_ranked(msg, CTL_RESULT)?;
    let stats = CommStatsSnapshot::decode(&mut r)?;
    let liveness = LivenessStats::decode(&mut r)?;
    Ok((rank, stats, liveness, r.u64()?, r.rest()))
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// What the supervisor does when a seeded kill strikes a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Victims stay dead; survivors detect and recover.
    Never,
    /// Respawn a killed rank's process (at most `max_restarts` times per
    /// rank); its workload resumes from its latest checkpoint and rejoins
    /// the mesh at the kill gate under a REJOIN handshake.
    FromCheckpoint { max_restarts: u32 },
}

impl RestartPolicy {
    /// The policy a [`FaultPlan`] implies: `kill_restart` plans get one
    /// restart per victim, everything else none.
    pub fn for_plan(plan: &FaultPlan) -> RestartPolicy {
        if plan.kill_restart {
            RestartPolicy::FromCheckpoint { max_restarts: 1 }
        } else {
            RestartPolicy::Never
        }
    }

    fn allows(&self, restarts_so_far: u32) -> bool {
        match self {
            RestartPolicy::Never => false,
            RestartPolicy::FromCheckpoint { max_restarts } => restarts_so_far < *max_restarts,
        }
    }

    fn respawns(&self) -> bool {
        !matches!(self, RestartPolicy::Never)
    }
}

/// How a child process left the world, per `waitpid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildExit {
    /// Exit code 0.
    Clean,
    /// A nonzero exit code (a failed child-entry test, a panic).
    Code(i32),
    /// Terminated by a signal (SIGKILL for supervised kills).
    Signal(i32),
}

impl ChildExit {
    fn classify(status: std::process::ExitStatus) -> ChildExit {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return ChildExit::Signal(sig);
        }
        match status.code() {
            Some(0) => ChildExit::Clean,
            Some(c) => ChildExit::Code(c),
            None => ChildExit::Signal(0),
        }
    }

    /// The typed error for a child that died before reporting a result.
    pub fn to_error(self, rank: usize) -> CommError {
        let (code, signal) = match self {
            ChildExit::Clean => (Some(0), None),
            ChildExit::Code(c) => (Some(c), None),
            ChildExit::Signal(s) => (None, Some(s)),
        };
        CommError::ChildExited { rank, code, signal }
    }
}

/// One rank death observed (or inflicted) by the coordinator.
#[derive(Debug, Clone)]
pub struct KillRecord {
    pub rank: usize,
    /// The protocol point the victim was struck at (`u64::MAX` for
    /// unplanned deaths — a child that aborted on its own).
    pub point: u64,
    /// True for seeded kills the supervisor inflicted itself.
    pub planned: bool,
    /// Wall-clock UNIX nanoseconds at the kill (or at the reap, for
    /// unplanned deaths).
    pub killed_at_ns: u64,
    /// Wall-clock UNIX nanoseconds when the victim's replacement process
    /// was spawned; `None` when it stayed dead.
    pub respawned_at_ns: Option<u64>,
    /// The reaped exit status, when the supervisor saw one.
    pub exit: Option<ChildExit>,
}

/// Configuration for one socket-cluster run.
pub struct SocketClusterConfig<'a> {
    /// Total rank count (crashed ranks included).
    pub p: usize,
    /// Fault plan, replayed bit-identically inside every child.
    pub plan: FaultPlan,
    /// Protocol deadlines for the children (and, via
    /// [`RetryPolicy::coordinator_deadline`], for the coordinator itself).
    pub retry: RetryPolicy,
    /// What to do when a seeded kill strikes: must agree with the plan's
    /// `kill_restart` flag, which is what the children's determinism
    /// probes are computed from.
    pub restart: RestartPolicy,
    /// Registry key of the workload every child runs.
    pub workload: &'a str,
    /// Data-mesh address family.
    pub family: SocketFamily,
    /// Name of the `#[test]` in the current binary that calls
    /// [`child_serve`] (the coordinator re-executes the binary filtered to
    /// exactly this test).
    pub child_test: &'a str,
}

/// What a socket-cluster run produced: one result slot per rank (`None`
/// for crashed and permanently-killed ranks), the sum of every child's
/// counter snapshot, the summed liveness counters, the kill log, and the
/// earliest wall-clock failure detection any rank reported.
#[derive(Debug)]
pub struct SocketRun {
    pub results: Vec<Option<Vec<u8>>>,
    pub stats: CommStatsSnapshot,
    pub liveness: LivenessStats,
    pub kills: Vec<KillRecord>,
    pub first_detection_ns: Option<u64>,
}

/// Monotonic run id so concurrent/consecutive runs in one process never
/// collide on a socket directory.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs `cfg.workload` on `cfg.p` ranks, **each rank a real OS process**,
/// communicating over a socket mesh. The calling process acts as the
/// coordinator; children re-execute the current binary (see
/// [`SocketClusterConfig::child_test`]).
pub fn run_socket_cluster(cfg: &SocketClusterConfig) -> Result<SocketRun, CommError> {
    assert!(cfg.p >= 1, "need at least one rank");
    let live = cfg.plan.live_count(cfg.p);
    assert!(live >= 1, "at least one rank must survive the fault plan");
    assert_eq!(
        cfg.restart.respawns(),
        cfg.plan.kill_restart,
        "RestartPolicy must agree with FaultPlan::kill_restart: the children \
         derive who stays dead from the plan alone"
    );

    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lcc-sock-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| coord_err(format!("create socket dir: {e}")))?;
    let run = coordinate(cfg, live, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Owns every child process of one run. All spawning and reaping funnels
/// through here so that the `Drop` impl can guarantee the acceptance
/// property "no child outlives the coordinator" on *every* exit path —
/// early `?` returns during spawning included.
struct ChildSupervisor<'a> {
    cfg: &'a SocketClusterConfig<'a>,
    dir: PathBuf,
    exe: PathBuf,
    ctl_path: PathBuf,
    children: BTreeMap<usize, Child>,
    restarts: BTreeMap<usize, u32>,
}

impl<'a> ChildSupervisor<'a> {
    fn new(
        cfg: &'a SocketClusterConfig<'a>,
        dir: &std::path::Path,
        ctl_path: PathBuf,
    ) -> Result<ChildSupervisor<'a>, CommError> {
        let exe = std::env::current_exe().map_err(|e| coord_err(format!("current_exe: {e}")))?;
        Ok(ChildSupervisor {
            cfg,
            dir: dir.to_path_buf(),
            exe,
            ctl_path,
            children: BTreeMap::new(),
            restarts: BTreeMap::new(),
        })
    }

    /// Spawns (or, with `rejoin`, respawns) the process for `rank`.
    fn spawn(&mut self, rank: usize, rejoin: bool) -> Result<(), CommError> {
        let cfg = self.cfg;
        let mut cmd = Command::new(&self.exe);
        cmd.arg(cfg.child_test)
            .arg("--exact")
            .arg("--nocapture")
            .arg("--test-threads=1")
            .env(CHILD_ENV, "1")
            .env("LCC_SOCKET_RANK", rank.to_string())
            .env("LCC_SOCKET_SIZE", cfg.p.to_string())
            .env("LCC_SOCKET_CTL", &self.ctl_path)
            .env("LCC_SOCKET_DIR", &self.dir)
            .env("LCC_SOCKET_FAMILY", cfg.family.as_env())
            .env("LCC_SOCKET_WORKLOAD", cfg.workload)
            .env("LCC_SOCKET_PLAN", cfg.plan.to_env_string())
            .env("LCC_SOCKET_RETRY", cfg.retry.to_env_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if rejoin {
            cmd.env(REJOIN_ENV, "1");
            *self.restarts.entry(rank).or_insert(0) += 1;
        }
        let child = cmd
            .spawn()
            .map_err(|e| coord_err(format!("spawn rank {rank}: {e}")))?;
        self.children.insert(rank, child);
        Ok(())
    }

    fn restart_count(&self, rank: usize) -> u32 {
        self.restarts.get(&rank).copied().unwrap_or(0)
    }

    /// SIGKILLs `rank` and reaps it. `None` if no live child holds the
    /// rank (it already died and was reaped).
    fn kill_rank(&mut self, rank: usize) -> Option<ChildExit> {
        let mut child = self.children.remove(&rank)?;
        let _ = child.kill();
        child.wait().ok().map(ChildExit::classify)
    }

    /// Non-blocking sweep: reaps every child that has exited on its own.
    fn reap(&mut self) -> Vec<(usize, ChildExit)> {
        let mut reaped = Vec::new();
        let ranks: Vec<usize> = self.children.keys().copied().collect();
        for rank in ranks {
            let done = match self.children.get_mut(&rank) {
                Some(child) => child.try_wait().ok().flatten(),
                None => None,
            };
            if let Some(status) = done {
                self.children.remove(&rank);
                reaped.push((rank, ChildExit::classify(status)));
            }
        }
        reaped
    }

    /// Blocks until every remaining child exits (the clean-success path:
    /// children exit on their own shortly after sending RESULT).
    fn wait_all(&mut self) {
        for (_, mut child) in std::mem::take(&mut self.children) {
            let _ = child.wait();
        }
    }
}

impl Drop for ChildSupervisor<'_> {
    fn drop(&mut self) {
        // Any children still here are survivors of an error path: kill and
        // reap them so no process (or zombie) outlives the run.
        for (_, child) in self.children.iter_mut() {
            let _ = child.kill();
        }
        self.wait_all();
    }
}

fn coordinate(
    cfg: &SocketClusterConfig,
    live: usize,
    dir: &std::path::Path,
) -> Result<SocketRun, CommError> {
    let ctl_path = dir.join("ctl.sock");
    let ctl_listener = UnixListener::bind(&ctl_path)
        .map_err(|e| coord_err(format!("bind control socket: {e}")))?;

    let mut sup = ChildSupervisor::new(cfg, dir, ctl_path)?;
    for rank in 0..cfg.p {
        if !cfg.plan.is_crashed(rank) {
            sup.spawn(rank, false)?; // crashed ranks never start
        }
    }

    let outcome = serve_control(cfg, live, &ctl_listener, &mut sup);
    if outcome.is_ok() {
        sup.wait_all();
    }
    // The supervisor's Drop kills and reaps whatever is left on the error
    // path — children never outlive the coordinator.
    outcome
}

/// Mutable control-plane state shared by the coordinator's event handlers.
///
/// The barrier and done conditions are *identity sets over the current live
/// set* rather than counters, so a rank dying mid-protocol shrinks the
/// requirement instead of deadlocking the release.
struct Control {
    live: BTreeSet<usize>,
    writers: BTreeMap<usize, Conn>,
    scratch: Vec<u8>,
    /// rank → protocol-point index it is parked at, waiting for PROCEED.
    parked: BTreeMap<usize, u64>,
    in_barrier: BTreeSet<usize>,
    done: BTreeSet<usize>,
    all_done_sent: bool,
    kills: Vec<KillRecord>,
    /// A planned victim reaped and awaiting respawn at this gate.
    pending_respawn: Option<(usize, u64)>,
    /// Gates already fired, so a restarted rank replaying its kill gate is
    /// not killed a second time.
    killed_points: BTreeSet<(usize, u64)>,
}

impl Control {
    /// Writes a control frame to `rank`; a failed write is hard evidence
    /// the child is gone, so the rank is demoted instead of failing the
    /// whole run — unless it already announced DONE. A finished rank tears
    /// its control socket down on its own schedule (its drain can time out
    /// before ALL_DONE reaches it), so a dead write there is normal
    /// teardown, not death; real post-DONE deaths still surface through
    /// the reap sweep as non-clean exits.
    fn write_to(&mut self, rank: usize, msg: &[u8]) -> bool {
        let ok = match self.writers.get_mut(&rank) {
            Some(conn) => write_frame(conn, &mut self.scratch, msg).is_ok(),
            None => false,
        };
        if !ok {
            if self.done.contains(&rank) {
                self.writers.remove(&rank);
            } else {
                self.declare_unplanned_dead(rank, None);
            }
        }
        ok
    }

    /// Removes `rank` from every wait set and records an unplanned death.
    fn declare_unplanned_dead(&mut self, rank: usize, exit: Option<ChildExit>) {
        if !self.live.remove(&rank) {
            return;
        }
        self.writers.remove(&rank);
        self.parked.remove(&rank);
        self.in_barrier.remove(&rank);
        self.done.remove(&rank);
        if self.pending_respawn.map(|(r, _)| r) == Some(rank) {
            self.pending_respawn = None;
        }
        self.kills.push(KillRecord {
            rank,
            point: u64::MAX,
            planned: false,
            killed_at_ns: now_unix_ns(),
            respawned_at_ns: None,
            exit,
        });
    }

    /// Re-evaluates every release condition to fixpoint. Each condition is
    /// over the *current* live set, so this must re-run after any event
    /// that parks a rank, advances a wait set, or shrinks the live set
    /// (including demotions performed by `write_to` itself).
    fn settle(&mut self) {
        loop {
            let mut acted = false;

            // Gate release: only when EVERY live rank is parked do we
            // release the ones at the minimum gate. A restarted rank
            // replaying earlier gates is therefore released alone, step by
            // step, until it catches up with the survivors; and while a
            // victim is dead-awaiting-respawn it is live-but-not-parked,
            // which holds the survivors at their gates through the rejoin.
            if !self.live.is_empty()
                && self.live.iter().all(|r| self.parked.contains_key(r))
                && !self.parked.is_empty()
            {
                // lcc-lint: allow(unwrap) — guarded by !parked.is_empty() above.
                let min_gate = *self.parked.values().min().expect("non-empty");
                let ready: Vec<usize> = self
                    .parked
                    .iter()
                    .filter(|(_, g)| **g == min_gate)
                    .map(|(r, _)| *r)
                    .collect();
                for rank in ready {
                    self.parked.remove(&rank);
                    self.write_to(rank, &[CTL_PROCEED]);
                }
                acted = true;
            }

            // Barrier release: every live rank has entered.
            if !self.live.is_empty()
                && !self.in_barrier.is_empty()
                && self.live.iter().all(|r| self.in_barrier.contains(r))
            {
                self.in_barrier.clear();
                let ranks: Vec<usize> = self.live.iter().copied().collect();
                for rank in ranks {
                    self.write_to(rank, &[CTL_BARRIER_RELEASE]);
                }
                acted = true;
            }

            // Done: every live rank has sent DONE (latched once).
            if !self.all_done_sent
                && !self.live.is_empty()
                && self.live.iter().all(|r| self.done.contains(r))
            {
                self.all_done_sent = true;
                let ranks: Vec<usize> = self.live.iter().copied().collect();
                for rank in ranks {
                    self.write_to(rank, &[CTL_ALL_DONE]);
                }
                acted = true;
            }

            if !acted {
                return;
            }
        }
    }
}

/// Accumulates per-rank RESULT frames into run-level totals.
struct ResultSink {
    results: Vec<Option<Vec<u8>>>,
    stats: CommStatsSnapshot,
    liveness: LivenessStats,
    detect_min: Option<u64>,
}

fn absorb_result(sink: &mut ResultSink, msg: &[u8], p: usize) -> Result<(), CommError> {
    let (rank, stats, liveness, detect, payload) =
        decode_result(msg).map_err(|_| coord_err("short RESULT frame".to_string()))?;
    if rank >= p || sink.results[rank].is_some() {
        return Err(coord_err(format!("unexpected RESULT from rank {rank}")));
    }
    sink.stats.add_snapshot(&stats);
    sink.liveness.add(&liveness);
    if detect != 0 {
        sink.detect_min = Some(sink.detect_min.map_or(detect, |d| d.min(detect)));
    }
    sink.results[rank] = Some(payload.to_vec());
    Ok(())
}

/// The coordinator's control loop: address exchange, then gate / barrier /
/// done bookkeeping over a *dynamic* live set until every live rank has
/// reported its RESULT. Planned kills fire when the victim parks at its
/// scheduled protocol point; under a respawning [`RestartPolicy`] the
/// victim's process is relaunched (with [`REJOIN_ENV`] set) once every
/// survivor is parked, and re-admitted through a fresh HELLO.
fn serve_control(
    cfg: &SocketClusterConfig,
    live: usize,
    listener: &UnixListener,
    sup: &mut ChildSupervisor,
) -> Result<SocketRun, CommError> {
    let patience = cfg.retry.coordinator_deadline();
    let mut deadline = Instant::now() + patience;
    let (msg_tx, msg_rx) = mpsc::channel::<(usize, Vec<u8>)>();

    // Phase 1: every live rank connects and says HELLO with its address.
    // The listener is non-blocking so the gather can interleave reaping:
    // a child that dies before HELLO would otherwise hang the accept.
    let mut conns: BTreeMap<usize, Conn> = BTreeMap::new();
    let mut addrs: Vec<Option<String>> = vec![None; cfg.p];
    listener
        .set_nonblocking(true)
        .map_err(|e| coord_err(format!("configure control listener: {e}")))?;
    while conns.len() < live {
        if let Some((rank, exit)) = sup.reap().into_iter().next() {
            return Err(exit.to_error(rank));
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let mut conn = Conn::Unix(stream);
                let hello = read_frame(&mut conn)
                    .map_err(|e| coord_err(format!("read HELLO: {e}")))?
                    .ok_or_else(|| coord_err("child closed before HELLO".to_string()))?;
                let (rank, addr) = decode_hello(&hello)?;
                if rank >= cfg.p || cfg.plan.is_crashed(rank) || conns.contains_key(&rank) {
                    return Err(coord_err(format!("unexpected HELLO from rank {rank}")));
                }
                addrs[rank] = Some(addr);
                conns.insert(rank, conn);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(coord_err(format!("accept control connection: {e}"))),
        }
        if Instant::now() > deadline {
            return Err(CommError::Timeout {
                op: "coordinator_hello",
                rank: usize::MAX,
                waiting_on: usize::MAX,
            });
        }
    }

    // Phase 2: broadcast the address table; children build the mesh.
    let start = encode_start(&addrs);
    let mut scratch = Vec::new();
    for (rank, conn) in conns.iter_mut() {
        write_frame(conn, &mut scratch, &start)
            .map_err(|e| coord_err(format!("send START to rank {rank}: {e}")))?;
    }

    // Phase 3: per-connection reader threads feed one message queue.
    let mut writers: BTreeMap<usize, Conn> = BTreeMap::new();
    for (rank, conn) in conns {
        let reader = conn
            .try_clone()
            .map_err(|e| coord_err(format!("clone control stream: {e}")))?;
        writers.insert(rank, conn);
        spawn_control_reader(rank, reader, msg_tx.clone());
    }

    let mut ctl = Control {
        live: (0..cfg.p).filter(|r| !cfg.plan.is_crashed(*r)).collect(),
        writers,
        scratch,
        parked: BTreeMap::new(),
        in_barrier: BTreeSet::new(),
        done: BTreeSet::new(),
        all_done_sent: false,
        kills: Vec::new(),
        pending_respawn: None,
        killed_points: BTreeSet::new(),
    };
    let mut sink = ResultSink {
        results: vec![None; cfg.p],
        stats: CommStatsSnapshot::default(),
        liveness: LivenessStats::default(),
        detect_min: None,
    };

    // Completion is *identity*-based, not count-based: every rank still in
    // the live set must have its own RESULT slot filled. Counting reports
    // against `live.len()` is wrong once the live set shrinks mid-loop — a
    // rank that reported and then got demoted (teardown race on its control
    // socket) would satisfy the count on behalf of a survivor whose RESULT
    // connection was never accepted, stranding that child in a blocking
    // send and the coordinator in `wait_all`.
    while ctl.live.iter().any(|r| sink.results[*r].is_none()) {
        if Instant::now() > deadline {
            return Err(CommError::Timeout {
                op: "coordinator_result",
                rank: usize::MAX,
                waiting_on: usize::MAX,
            });
        }

        // Reap children that exited on their own. A clean exit without a
        // RESULT is NOT a death — the RESULT may still be in flight on a
        // late connection (the run deadline catches genuine hangs). A
        // non-clean exit (panic or signal) with no RESULT is an unplanned
        // death: demote the rank and let the survivors finish without it.
        for (rank, exit) in sup.reap() {
            if matches!(exit, ChildExit::Clean) || sink.results[rank].is_some() {
                continue;
            }
            if !ctl.live.contains(&rank) {
                // Already demoted (e.g. by a failed write); backfill how
                // it actually died.
                if let Some(k) = ctl
                    .kills
                    .iter_mut()
                    .rev()
                    .find(|k| k.rank == rank && k.exit.is_none())
                {
                    k.exit = Some(exit);
                }
                continue;
            }
            ctl.declare_unplanned_dead(rank, Some(exit));
            ctl.settle();
            deadline = Instant::now() + patience;
        }

        // Respawn a planned victim once every survivor is parked at a
        // gate: the rejoiner's mesh rebuild rendezvouses with survivors
        // inside their parked `protocol_point` loops, so parking first
        // removes every race from the re-admission handshake.
        if let Some((victim, _gate)) = ctl.pending_respawn {
            let survivors_parked = ctl
                .live
                .iter()
                .filter(|r| **r != victim)
                .all(|r| ctl.parked.contains_key(r));
            if survivors_parked {
                ctl.pending_respawn = None;
                sup.spawn(victim, true)?;
                if let Some(k) = ctl
                    .kills
                    .iter_mut()
                    .rev()
                    .find(|k| k.rank == victim && k.respawned_at_ns.is_none())
                {
                    k.respawned_at_ns = Some(now_unix_ns());
                }
                deadline = Instant::now() + patience;
            }
        }

        // Late connections carry either a RESULT (fresh socket per child)
        // or the HELLO of a respawned rank rejoining the cluster. The
        // first frame decides, inline, with a bounded read.
        match listener.accept() {
            Ok((stream, _)) => {
                let mut conn = Conn::Unix(stream);
                let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                match read_frame(&mut conn) {
                    Ok(Some(msg)) if msg.first() == Some(&CTL_RESULT) => {
                        absorb_result(&mut sink, &msg, cfg.p)?;
                        deadline = Instant::now() + patience;
                    }
                    Ok(Some(msg)) if msg.first() == Some(&CTL_HELLO) => {
                        let (rank, addr) = decode_hello(&msg)?;
                        if rank >= cfg.p || !ctl.live.contains(&rank) {
                            return Err(coord_err(format!(
                                "unexpected rejoin HELLO from rank {rank}"
                            )));
                        }
                        addrs[rank] = Some(addr.clone());
                        let _ = conn.set_read_timeout(None);
                        write_frame(&mut conn, &mut ctl.scratch, &encode_start(&addrs)).map_err(
                            |e| coord_err(format!("send START to rejoined rank {rank}: {e}")),
                        )?;
                        let reader = conn
                            .try_clone()
                            .map_err(|e| coord_err(format!("clone control stream: {e}")))?;
                        ctl.writers.insert(rank, conn);
                        spawn_control_reader(rank, reader, msg_tx.clone());
                        // Tell every parked survivor to re-admit the rank.
                        let note = encode_rejoin(rank, &addr);
                        let others: Vec<usize> =
                            ctl.live.iter().copied().filter(|r| *r != rank).collect();
                        for peer in others {
                            ctl.write_to(peer, &note);
                        }
                        ctl.settle();
                        deadline = Instant::now() + patience;
                    }
                    _ => {} // dead-on-arrival connection: drop it
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(coord_err(format!("accept result connection: {e}"))),
        }

        let (from, msg) = match msg_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(coord_err("all control readers exited".to_string()))
            }
        };
        match msg.first() {
            Some(&CTL_POINT) => {
                let gate = decode_point(&msg)
                    .map_err(|_| coord_err("unknown control message".to_string()))?;
                let planned_kill = cfg.plan.kill_point(from) == Some(gate)
                    && !ctl.killed_points.contains(&(from, gate));
                if planned_kill {
                    ctl.killed_points.insert((from, gate));
                    let exit = sup.kill_rank(from);
                    ctl.writers.remove(&from);
                    ctl.parked.remove(&from);
                    ctl.kills.push(KillRecord {
                        rank: from,
                        point: gate,
                        planned: true,
                        killed_at_ns: now_unix_ns(),
                        respawned_at_ns: None,
                        exit,
                    });
                    if cfg.plan.kill_restart && cfg.restart.allows(sup.restart_count(from)) {
                        // Stays in `live`: it will rejoin. Survivors hold
                        // at their gates until it parks again.
                        ctl.pending_respawn = Some((from, gate));
                    } else {
                        ctl.live.remove(&from);
                        ctl.in_barrier.remove(&from);
                        ctl.done.remove(&from);
                    }
                } else {
                    ctl.parked.insert(from, gate);
                }
                ctl.settle();
                deadline = Instant::now() + patience;
            }
            Some(&CTL_BARRIER_ENTER) => {
                ctl.in_barrier.insert(from);
                ctl.settle();
                deadline = Instant::now() + patience;
            }
            Some(&CTL_DONE) => {
                ctl.done.insert(from);
                ctl.settle();
                deadline = Instant::now() + patience;
            }
            Some(&CTL_RESULT) => {
                absorb_result(&mut sink, &msg, cfg.p)?;
                deadline = Instant::now() + patience;
            }
            _ => return Err(coord_err("unknown control message".to_string())),
        }
    }

    if ctl.live.is_empty() {
        return Err(coord_err("every rank died before reporting".to_string()));
    }
    Ok(SocketRun {
        results: sink.results,
        stats: sink.stats,
        liveness: sink.liveness,
        kills: ctl.kills,
        first_detection_ns: sink.detect_min,
    })
}

fn spawn_control_reader(rank: usize, mut reader: Conn, tx: mpsc::Sender<(usize, Vec<u8>)>) {
    std::thread::spawn(move || {
        while let Ok(Some(msg)) = read_frame(&mut reader) {
            if tx.send((rank, msg)).is_err() {
                break;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_frame_round_trips() {
        let addrs = vec![
            Some("/tmp/a.sock".to_string()),
            None,
            Some("127.0.0.1:4000".to_string()),
        ];
        assert_eq!(decode_start(&encode_start(&addrs)).unwrap(), addrs);
    }

    #[test]
    fn truncated_start_is_a_typed_error() {
        let addrs = vec![Some("/tmp/a.sock".to_string())];
        let mut bytes = encode_start(&addrs);
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            decode_start(&bytes),
            Err(CommError::Transport { .. })
        ));
        assert!(matches!(
            decode_start(&[0x42]),
            Err(CommError::Transport { .. })
        ));
    }

    #[test]
    fn forged_start_count_is_a_typed_error() {
        // Five bytes claiming u32::MAX addresses: the count is checked
        // against the bytes behind it before anything is reserved.
        assert!(matches!(
            decode_start(&[CTL_START, 0xFF, 0xFF, 0xFF, 0xFF]),
            Err(CommError::Transport { .. })
        ));
    }

    fn snapshot() -> CommStatsSnapshot {
        CommStatsSnapshot {
            bytes_sent: 1,
            messages: 2,
            collective_rounds: 3,
            retransmits: 4,
            duplicates_suppressed: 5,
            timeouts: 6,
            bytes_physical: 7,
            messages_physical: 8,
            acks: 9,
        }
    }

    fn liveness() -> LivenessStats {
        LivenessStats {
            heartbeats_sent: 1,
            heartbeats_received: 2,
            hard_evidence: 3,
            suspicions: 4,
            deaths_detected: 5,
            rejoins: 6,
        }
    }

    #[test]
    fn control_frame_goldens() {
        use lcc_obs::codec::hex;
        assert_eq!(hex(&encode_handshake(3)), "5443434c0103000000");
        let addrs = [Some("/a".to_string()), None];
        assert_eq!(hex(&encode_start(&addrs)), "1102000000020000002f6100000000");
        assert_eq!(hex(&encode_hello(2, "/x")), "10020000002f78");
        assert_eq!(hex(&encode_rejoin(7, "/r")), "19070000002f72");
        assert_eq!(
            hex(&encode_result(1, &snapshot(), &liveness(), 42, &[0xee])),
            "160100000001000000000000000200000000000000030000000000000004000000\
             000000000500000000000000060000000000000007000000000000000800000000\
             000000090000000000000001000000000000000200000000000000030000000000\
             0000040000000000000005000000000000000600000000000000\
             2a00000000000000ee"
        );
        assert_eq!(hex(&encode_point(6)), "170600000000000000");
    }

    /// Every strict prefix of `valid`, each 4- and 8-byte window forged to
    /// all ones, and seeded random strings must decode to an error or to a
    /// value that `reencode`s to exactly the input (as in
    /// `tests/codec_hostile.rs`).
    fn assert_decoder_total<E>(valid: &[u8], reencode: impl Fn(&[u8]) -> Result<Vec<u8>, E>) {
        let mut inputs: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
        for width in [4, 8] {
            for at in 0..(valid.len() + 1).saturating_sub(width) {
                let mut forged = valid.to_vec();
                forged[at..at + width].fill(0xFF);
                inputs.push(forged);
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..256u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(case);
            let first =
                [CTL_START, CTL_HELLO, CTL_REJOIN, CTL_POINT, CTL_RESULT][case as usize % 5];
            let tail = (0..case % 61).map(|i| (state >> (i % 8 * 8)) as u8);
            inputs.push(std::iter::once(first).chain(tail).collect());
        }
        for input in inputs {
            if let Ok(again) = reencode(&input) {
                assert_eq!(again, input, "decoded to another encoding");
            }
        }
    }

    #[test]
    fn control_decoders_are_total_on_hostile_input() {
        assert_decoder_total(&encode_handshake(3), |b| {
            decode_handshake(b).map(|(magic, version, rank)| {
                let mut shake = Vec::new();
                shake.put_u32(magic);
                shake.push(version);
                shake.put_u32(rank as u32);
                shake
            })
        });
        let addrs = [Some("/a".to_string()), None];
        assert_decoder_total(&encode_start(&addrs), |b| {
            decode_start(b).map(|a| encode_start(&a))
        });
        assert_decoder_total(&encode_hello(2, "/x"), |b| {
            decode_hello(b).map(|(rank, addr)| encode_hello(rank, &addr))
        });
        assert_decoder_total(&encode_rejoin(7, "/r"), |b| {
            decode_rejoin(b)
                .map(|(rank, addr)| encode_rejoin(rank, &addr))
                .ok_or(())
        });
        assert_decoder_total(&encode_point(6), |b| decode_point(b).map(encode_point));
        let result = encode_result(1, &snapshot(), &liveness(), 42, &[0xee]);
        assert_decoder_total(&result, |b| {
            decode_result(b).map(|(rank, stats, liveness, detect, payload)| {
                encode_result(rank, &stats, &liveness, detect, payload)
            })
        });
    }

    #[test]
    fn frame_io_round_trips_over_a_socketpair() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut tx = Conn::Unix(a);
        let mut rx = Conn::Unix(b);
        let mut buf = Vec::new();
        write_frame(&mut tx, &mut buf, &[1, 2, 3]).unwrap();
        write_frame(&mut tx, &mut buf, &[]).unwrap();
        assert_eq!(read_frame(&mut rx).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut rx).unwrap(), Some(vec![]));
        drop(tx);
        assert_eq!(read_frame(&mut rx).unwrap(), None, "clean EOF");
    }

    #[test]
    fn rejoin_frame_round_trips() {
        let msg = encode_rejoin(7, "/tmp/r7.sock");
        assert_eq!(msg[0], CTL_REJOIN);
        assert_eq!(decode_rejoin(&msg), Some((7, "/tmp/r7.sock".to_string())));
        assert_eq!(decode_rejoin(&msg[..3]), None, "truncated frame");
    }

    #[test]
    fn restart_policy_follows_the_fault_plan() {
        let mut plan = crate::fault::FaultPlan::none();
        assert!(matches!(
            RestartPolicy::for_plan(&plan),
            RestartPolicy::Never
        ));
        assert!(!RestartPolicy::Never.respawns());
        plan.kill_points.insert(1, 0);
        plan.kill_restart = true;
        let policy = RestartPolicy::for_plan(&plan);
        assert!(policy.respawns());
        assert!(policy.allows(0), "first restart is within budget");
        assert!(!policy.allows(1), "budget is one restart per rank");
    }

    #[test]
    fn child_exit_classification() {
        use std::process::Command;
        let ok = Command::new("true").status().unwrap();
        assert_eq!(ChildExit::classify(ok), ChildExit::Clean);
        let fail = Command::new("false").status().unwrap();
        assert_eq!(ChildExit::classify(fail), ChildExit::Code(1));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut tx = Conn::Unix(a);
        let mut rx = Conn::Unix(b);
        tx.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        let err = read_frame(&mut rx).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
