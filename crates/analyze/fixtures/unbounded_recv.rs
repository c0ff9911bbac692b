//! fixture-crate: ohpc-transport
//!
//! A request path that reads the wire with no deadline hangs its caller
//! for as long as the peer cares to stay silent. The bounded variant reads
//! with the request's deadline and is fine, as is a transport's own `recv`.

fn ask(conn: &mut dyn Connection, frame: &[u8]) -> Result<Bytes, TransportError> {
    conn.send(frame)?;
    conn.recv() //~ bounded-recv
}

fn ask_bounded(
    tx: &mut dyn SendHalf,
    rx: &mut dyn RecvHalf,
    frame: &[u8],
    deadline: Option<Instant>,
) -> Result<Bytes, TransportError> {
    tx.send(frame)?;
    rx.recv_deadline(deadline)
}

impl Connection for Wrapped {
    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.inner.recv()
    }
}
