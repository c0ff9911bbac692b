//! fixture-crate: ohpc-pool
//!
//! Negative fixture: all of these are fine and the analyzer must stay
//! silent. A scoped-out guard is released before the wire call; a channel
//! `Sender::send` is not a wire send; a spawned closure blocks its own
//! thread, not the spawner; a spawned reader loop may recv unboundedly;
//! and `recv_deadline` bounds the request-path receive.

struct Pool {
    slot: Mutex<Option<Box<dyn Connection>>>,
    waiters: Mutex<u64>,
}

impl Pool {
    fn exchange(
        &self,
        tx: &mut dyn SendHalf,
        rx: &mut dyn RecvHalf,
        frame: &[u8],
        deadline: Option<Instant>,
    ) -> Result<Bytes, TransportError> {
        {
            let slot = self.slot.lock();
            if slot.is_none() {
                return Err(TransportError::Closed);
            }
        }
        tx.send(frame)?;
        rx.recv_deadline(deadline)
    }

    fn notify(&self, tx: &Sender<u64>, seq: u64) {
        let g = self.waiters.lock();
        tx.send(seq + *g);
    }

    fn spawn_reader(&self, conn: Box<dyn Connection>) {
        let g = self.waiters.lock();
        std::thread::spawn(move || reader_loop(conn));
        drop(g);
    }
}

fn reader_loop(mut conn: Box<dyn Connection>) {
    while let Ok(frame) = conn.recv() {
        handle(frame);
    }
}

fn handle(_frame: Bytes) {}
