//! fixture-crate: ohpc-orb
//!
//! The pre-executor split-serving shape: one detached thread per two-way
//! request. Under a 10k-request burst that is 10k OS threads — the
//! admission controller bounds queued work, but a spawn-per-request
//! dispatch path creates capacity it cannot see. Per-connection threads
//! (in `AcceptLoop::spawn`) stay legal: they are bounded by clients, not
//! requests.

impl AcceptLoop {
    fn spawn(listener: Box<dyn Listener>) {
        while let Ok(conn) = listener.accept() {
            std::thread::spawn(move || serve_connection(conn));
        }
    }
}

fn serve_connection(conn: Conn) {
    for frame in conn.frames() {
        handle_frame_opt(frame);
    }
}

fn handle_frame_opt(frame: Frame) {
    let req = parse(frame);
    std::thread::spawn(move || dispatch_one(req)); //~ unbounded-spawn
}

fn dispatch_one(req: Req) {
    req.run();
}
