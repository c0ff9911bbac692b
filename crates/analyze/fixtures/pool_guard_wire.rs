//! fixture-crate: ohpc-nexus
//!
//! The PR-4 bug class, verbatim: a connection-pool mutex held across the
//! wire exchange serializes every caller behind one slow peer, and the
//! reply read has no deadline. The analyzer must flag the send, the recv,
//! and the missing receive bound.

struct Pool {
    slot: Mutex<Option<Box<dyn Connection>>>,
}

impl Pool {
    fn exchange(&self, frame: &[u8]) -> Result<Bytes, TransportError> {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            return Err(TransportError::Closed);
        }
        let Some(conn) = slot.as_mut() else {
            return Err(TransportError::Closed);
        };
        conn.send(frame)?; //~ guard-across-blocking
        let reply = conn.recv()?; //~ guard-across-blocking bounded-recv
        Ok(reply)
    }

    /// The same shape with the frame sent in parts: still a wire send.
    fn send_in_parts(&self, head: &[u8], body: &[u8]) -> Result<(), TransportError> {
        let mut slot = self.slot.lock();
        let Some(conn) = slot.as_mut() else {
            return Err(TransportError::Closed);
        };
        conn.send_parts(&[head, body])?; //~ guard-across-blocking
        Ok(())
    }
}
