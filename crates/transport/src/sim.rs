//! Simulated-network transport.
//!
//! A sim connection is a [`crate::mem`] connection — real bytes move between
//! threads — whose every frame is first *charged to virtual time* through
//! [`SimNet::try_transfer`], including queuing on shared media. The figure
//! harness divides bytes moved by virtual time elapsed to obtain the
//! bandwidth curves of the paper's Figure 5. Splitting, closing, deadlines
//! and readiness are mem's; only the send half adds the charge.
//!
//! An endpoint is `(machine, port)`; the dialer is itself pinned to a
//! machine, so the fabric knows which link class each connection crosses.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use ohpc_netsim::{MachineId, SimNet};

use crate::mem::{self, MemConnection};
use crate::{
    frame_len, telem, Connection, Dialer, Endpoint, Listener, RecvHalf, SendHalf, TransportError,
    MAX_FRAME,
};

/// Per-frame protocol envelope charged to the wire in addition to payload
/// bytes (IP + TCP header class of overhead).
pub const FRAME_WIRE_OVERHEAD: usize = 48;

#[derive(Default)]
struct FabricState {
    listeners: HashMap<(u32, u32), Sender<SimConnection>>,
    next_port: u32,
}

/// A mem-style fabric whose transfers advance a [`SimNet`] clock.
#[derive(Clone)]
pub struct SimFabric {
    net: SimNet,
    state: Arc<Mutex<FabricState>>,
}

impl SimFabric {
    /// Wraps a simulated network.
    pub fn new(net: SimNet) -> Self {
        Self { net, state: Arc::new(Mutex::new(FabricState::default())) }
    }

    /// The underlying simulated network (for clock access).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Binds a listener on `machine` with an auto-assigned port.
    pub fn listen(&self, machine: MachineId) -> SimListener {
        let port = {
            let mut st = self.state.lock();
            st.next_port += 1;
            st.next_port
        };
        self.listen_on(machine, port)
    }

    /// Binds a listener on a specific (machine, port).
    pub fn listen_on(&self, machine: MachineId, port: u32) -> SimListener {
        let (tx, rx) = unbounded::<SimConnection>();
        let mut st = self.state.lock();
        let key = (machine.0, port);
        assert!(!st.listeners.contains_key(&key), "sim endpoint M{}:{port} already bound", machine.0);
        st.listeners.insert(key, tx);
        SimListener { fabric: self.clone(), machine, port, pending: rx }
    }

    /// A dialer pinned to `machine` — the client side of connections.
    pub fn dialer(&self, machine: MachineId) -> SimDialer {
        SimDialer { fabric: self.clone(), machine }
    }

    fn connect(
        &self,
        from: MachineId,
        to_machine: u32,
        port: u32,
    ) -> Result<SimConnection, TransportError> {
        parking_lot::assert_no_guard_held("sim dial");
        // Connection setup costs one small-message RTT equivalent — and is
        // the first place an injected partition or crash surfaces: the
        // handshake times out instead of completing ("timed out" marks the
        // error as a timeout for transport telemetry).
        self.net
            .try_transfer(from, MachineId(to_machine), FRAME_WIRE_OVERHEAD)
            .map_err(|fault| TransportError::Io(format!("timed out: {fault}")))?;
        let pending_tx = {
            let st = self.state.lock();
            st.listeners
                .get(&(to_machine, port))
                .cloned()
                .ok_or_else(|| {
                    TransportError::ConnectionRefused(format!("sim://M{to_machine}:{port}"))
                })?
        };
        let remote = MachineId(to_machine);
        let (client, server) = mem::pair(&telem::SIM);
        let wire = |local, remote| Wire { net: self.net.clone(), local, remote };
        let client = SimConnection { wire: wire(from, remote), conn: client };
        let server = SimConnection { wire: wire(remote, from), conn: server };
        pending_tx
            .send(server)
            .map_err(|_| TransportError::ConnectionRefused(format!("sim://M{to_machine}:{port}")))?;
        Ok(client)
    }

    fn unbind(&self, machine: MachineId, port: u32) {
        self.state.lock().listeners.remove(&(machine.0, port));
    }
}

/// Client-side dialer pinned to a machine.
#[derive(Clone)]
pub struct SimDialer {
    fabric: SimFabric,
    machine: MachineId,
}

impl Dialer for SimDialer {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        match endpoint {
            Endpoint::Sim { machine, port } => {
                Ok(Box::new(self.fabric.connect(self.machine, *machine, *port)?))
            }
            other => Err(TransportError::WrongEndpoint(other.to_string())),
        }
    }
}

/// One direction of the simulated wire: what a send is charged to.
#[derive(Clone)]
struct Wire {
    net: SimNet,
    local: MachineId,
    remote: MachineId,
}

impl Wire {
    /// Charges a frame of `len` bytes to the wire before it is enqueued, so
    /// the receiver cannot see it earlier than its simulated arrival. A
    /// partitioned link or crashed peer fails here — the receiver never
    /// observes a frame the simulated wire dropped. A frame over
    /// [`MAX_FRAME`] goes uncharged: the pipe refuses it.
    fn charge(&self, len: usize) -> Result<(), TransportError> {
        parking_lot::assert_no_guard_held("sim send");
        if len > MAX_FRAME {
            return Ok(());
        }
        match self.net.try_transfer(self.local, self.remote, len + FRAME_WIRE_OVERHEAD) {
            Ok(_) => Ok(()),
            Err(fault) => {
                let err = TransportError::Io(format!("timed out: {fault}"));
                telem::SIM.track_send(len, Err(err))
            }
        }
    }
}

/// One side of a simulated connection.
pub struct SimConnection {
    wire: Wire,
    conn: MemConnection,
}

impl Connection for SimConnection {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_parts(&[frame])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.wire.charge(frame_len(parts))?;
        self.conn.send_parts(parts)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a delegation shim: the deadline is its caller's job"
    )]
    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.conn.recv()
    }

    /// The mem connection's halves, the send half charging the wire first.
    fn try_split(&mut self) -> Option<(Box<dyn SendHalf>, Box<dyn RecvHalf>)> {
        let (tx, rx) = self.conn.try_split()?;
        Some((Box::new(SimSendHalf { wire: self.wire.clone(), tx }), rx))
    }
}

/// Sending half of a split [`SimConnection`].
struct SimSendHalf {
    wire: Wire,
    tx: Box<dyn SendHalf>,
}

impl SendHalf for SimSendHalf {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_parts(&[frame])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.wire.charge(frame_len(parts))?;
        self.tx.send_parts(parts)
    }

    fn close(&mut self) {
        self.tx.close();
    }
}

/// Accept side of a [`SimFabric`] binding. Unbinds on drop.
pub struct SimListener {
    fabric: SimFabric,
    machine: MachineId,
    port: u32,
    pending: Receiver<SimConnection>,
}

impl Listener for SimListener {
    #[expect(
        clippy::disallowed_methods,
        reason = "accept blocks until a dial arrives or the listener closes"
    )]
    fn accept(&mut self) -> Result<Box<dyn Connection>, TransportError> {
        parking_lot::assert_no_guard_held("sim accept");
        let conn = self.pending.recv().map_err(|_| TransportError::Closed)?;
        Ok(Box::new(conn))
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Sim { machine: self.machine.0, port: self.port }
    }

    fn shutdown(&self) {
        self.fabric.unbind(self.machine, self.port);
    }

    fn stop_fn(&self) -> Box<dyn Fn() + Send + Sync> {
        let fabric = self.fabric.clone();
        let (machine, port) = (self.machine, self.port);
        Box::new(move || fabric.unbind(machine, port))
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_netsim::{figure4_cluster, LinkProfile, SimTime};

    fn fabric() -> (SimFabric, [MachineId; 4]) {
        let (cluster, ms) = figure4_cluster(LinkProfile::atm_155());
        (SimFabric::new(SimNet::new(cluster)), ms)
    }

    #[test]
    fn roundtrip_and_clock_advances() {
        let (fabric, [m0, _, _, m3]) = fabric();
        let mut listener = fabric.listen(m3);
        let ep = listener.endpoint();
        let dialer = fabric.dialer(m0);

        let t0 = fabric.net().clock().now();
        let mut c = dialer.dial(&ep).unwrap();
        let mut s = listener.accept().unwrap();
        c.send(&vec![7u8; 125_000]).unwrap();
        assert_eq!(s.recv().unwrap().len(), 125_000);
        let elapsed = fabric.net().clock().now().saturating_sub(t0);
        // 125 KB at 135 Mbps ≈ 7.4 ms; must be in a sane band.
        assert!(elapsed > SimTime(5_000_000), "elapsed {elapsed}");
        assert!(elapsed < SimTime(20_000_000), "elapsed {elapsed}");
    }

    #[test]
    fn same_machine_is_much_faster() {
        let (fabric, [m0, _, _, m3]) = fabric();
        let bytes = 1 << 20;

        let mut remote_listener = fabric.listen(m3);
        let mut c = fabric.dialer(m0).dial(&remote_listener.endpoint()).unwrap();
        let mut s = remote_listener.accept().unwrap();
        let t0 = fabric.net().clock().now();
        c.send(&vec![1u8; bytes]).unwrap();
        s.recv().unwrap();
        let remote_time = fabric.net().clock().now().saturating_sub(t0);

        let mut local_listener = fabric.listen(m0);
        let mut c2 = fabric.dialer(m0).dial(&local_listener.endpoint()).unwrap();
        let mut s2 = local_listener.accept().unwrap();
        let t1 = fabric.net().clock().now();
        c2.send(&vec![1u8; bytes]).unwrap();
        s2.recv().unwrap();
        let local_time = fabric.net().clock().now().saturating_sub(t1);

        assert!(
            remote_time.0 > 10 * local_time.0,
            "remote {remote_time} should be >10x local {local_time}"
        );
    }

    #[test]
    fn refused_on_unknown_port() {
        let (fabric, [m0, ..]) = fabric();
        let err = fabric
            .dialer(m0)
            .dial(&Endpoint::Sim { machine: 3, port: 999 })
            .unwrap_err();
        assert!(matches!(err, TransportError::ConnectionRefused(_)));
    }

    #[test]
    fn listener_drop_unbinds() {
        let (fabric, [m0, _, _, m3]) = fabric();
        let ep = {
            let l = fabric.listen(m3);
            l.endpoint()
        };
        assert!(fabric.dialer(m0).dial(&ep).is_err());
    }

    #[test]
    fn wrong_endpoint_kind() {
        let (fabric, [m0, ..]) = fabric();
        assert!(matches!(
            fabric.dialer(m0).dial(&Endpoint::Mem(0)).unwrap_err(),
            TransportError::WrongEndpoint(_)
        ));
    }

    #[test]
    fn partitioned_link_times_out_dial_and_send() {
        let (fabric, [m0, _, _, m3]) = fabric();
        let mut listener = fabric.listen(m3);
        let ep = listener.endpoint();

        // Established connection first, then the partition hits.
        let mut c = fabric.dialer(m0).dial(&ep).unwrap();
        let mut s = listener.accept().unwrap();
        c.send(b"before").unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"before");

        fabric.net().partition(m0, m3);
        let err = c.send(b"during").unwrap_err();
        assert!(
            matches!(&err, TransportError::Io(m) if m.contains("timed out")),
            "partition must look like a timeout, got {err:?}"
        );
        // New dials fail the same way; the reverse direction too.
        assert!(fabric.dialer(m0).dial(&ep).is_err());
        assert!(matches!(s.send(b"reply"), Err(TransportError::Io(_))));

        // Heal: established connection works again without re-dialing.
        fabric.net().heal(m0, m3);
        c.send(b"after").unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"after");
    }

    #[test]
    fn crashed_server_machine_refuses_all_traffic() {
        let (fabric, [m0, _, _, m3]) = fabric();
        let mut listener = fabric.listen(m3);
        let ep = listener.endpoint();
        fabric.net().crash(m3);
        assert!(fabric.dialer(m0).dial(&ep).is_err());
        fabric.net().restart(m3);
        let mut c = fabric.dialer(m0).dial(&ep).unwrap();
        let mut s = listener.accept().unwrap();
        c.send(b"up again").unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"up again");
    }

    /// A split client and its server's end.
    fn split_pair(fabric: &SimFabric, client: MachineId, server: MachineId) -> SplitPair {
        let mut listener = fabric.listen(server);
        let mut c = fabric.dialer(client).dial(&listener.endpoint()).unwrap();
        let (tx, rx) = c.try_split().expect("sim must split");
        (tx, rx, listener.accept().unwrap())
    }

    type SplitPair = (Box<dyn SendHalf>, Box<dyn RecvHalf>, Box<dyn Connection>);

    /// The split halves keep the wire: a partitioned send fails before its
    /// frame is enqueued, a reply is charged, and `ready` sees a queued frame.
    #[test]
    fn split_halves_charge_the_wire_both_ways() {
        let (fabric, [m0, _, _, m3]) = fabric();
        let (mut tx, mut rx, mut s) = split_pair(&fabric, m0, m3);
        fabric.net().partition(m0, m3);
        let err = tx.send(b"during").unwrap_err();
        assert!(matches!(&err, TransportError::Io(m) if m.contains("timed out")), "{err:?}");
        fabric.net().heal(m0, m3);
        tx.send(b"after").unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"after", "the dropped frame never arrived");
        let t0 = fabric.net().clock().now();
        assert!(!rx.ready());
        s.send(&vec![9u8; 125_000]).unwrap();
        assert!(rx.ready());
        assert_eq!(rx.recv().unwrap().len(), 125_000);
        assert!(fabric.net().clock().now() > t0, "the reply must consume virtual time");
    }

    /// As over mem: `close` wakes the paired receive half while the peer
    /// still holds its end, and the peer sees the connection closed.
    #[test]
    fn close_unblocks_the_paired_half_while_the_peer_holds_on() {
        let (fabric, [m0, _, _, m3]) = fabric();
        let (mut tx, mut rx, mut s) = split_pair(&fabric, m0, m3);
        let (woke_tx, woke) = unbounded();
        std::thread::spawn(move || woke_tx.send(rx.recv()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.close();
        let seen = woke.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(seen, Ok(Err(TransportError::Closed)), "the reader stayed blocked");
        assert_eq!(s.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(s.send(b"late").unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn reply_direction_also_charged() {
        let (fabric, [m0, _, _, m3]) = fabric();
        let mut listener = fabric.listen(m3);
        let ep = listener.endpoint();
        let mut c = fabric.dialer(m0).dial(&ep).unwrap();
        let mut s = listener.accept().unwrap();
        c.send(b"req").unwrap();
        s.recv().unwrap();
        let t_mid = fabric.net().clock().now();
        s.send(&vec![9u8; 125_000]).unwrap();
        c.recv().unwrap();
        let t_end = fabric.net().clock().now();
        assert!(t_end > t_mid, "reply transfer must consume virtual time");
    }
}
