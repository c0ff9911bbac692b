//! The span buffer every interposer writes into.
//!
//! One pre-sized table of fixed-width slots, one monotonic clock. A span
//! claims its slot with a single `fetch_add` when it opens, so the spans it
//! causes can name it as their parent while it is still open, and fills in
//! its end when it closes. Slots are plain atomics written by whichever
//! thread owns the span and read only after the traced phase has ended, so
//! recording takes no lock and allocates nothing. The table is written out
//! as text when the benchmark ends.
//!
//! Only one timed unit is in flight at a time (the traced run has one
//! closed-loop client), so the unit a span belongs to is a process-wide
//! number the stub sets, and a span opened on a thread with no open span of
//! its own — the server's reader, a pool worker, the client's demux reader —
//! takes as its parent the last span that crossed a thread boundary.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ledger::alloc::thread_allocs;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One timed unit, from the stub's first instruction to its last.
    Root,
    /// Stub: arguments into an `XdrWriter`.
    XdrClientEncode,
    /// Stub: `GlobalPointer::invoke` / `invoke_oneway`.
    GpInvoke,
    /// Stub: result out of the reply body.
    XdrClientDecode,
    /// `ProtoObject` wrapper around the glue proto-object.
    ProtoGlue,
    /// `ProtoObject` wrapper around the transport proto-object.
    ProtoTransport,
    /// `Capability::process`.
    CapProcess,
    /// `Capability::unprocess`.
    CapUnprocess,
    /// `Connection`/`SendHalf::send`.
    ConnSend,
    /// `Connection`/`RecvHalf::recv`, from the call to the frame's arrival.
    ConnRecv,
    /// `Executor::execute`, on the submitting thread.
    ExecSubmit,
    /// The submitted task, on the thread that ran it.
    ExecRun,
    /// `RemoteObject::dispatch` of the echo object.
    Dispatch,
    /// Dispatch: arguments out of the request body.
    XdrServerDecode,
    /// Dispatch: result into the reply body.
    XdrServerEncode,
}

const NAMES: [Name; 15] = [
    Name::Root,
    Name::XdrClientEncode,
    Name::GpInvoke,
    Name::XdrClientDecode,
    Name::ProtoGlue,
    Name::ProtoTransport,
    Name::CapProcess,
    Name::CapUnprocess,
    Name::ConnSend,
    Name::ConnRecv,
    Name::ExecSubmit,
    Name::ExecRun,
    Name::Dispatch,
    Name::XdrServerDecode,
    Name::XdrServerEncode,
];

/// Which end of the connection a span ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The calling context.
    Client,
    /// The serving context.
    Server,
}

/// The facts a span carries beside its times: side, message direction,
/// which capability, whether the call is one-way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attr(pub u8);

impl Attr {
    const SERVER: u8 = 1;
    const REPLY: u8 = 2;
    const ONEWAY: u8 = 4;
    const CAP_SHIFT: u8 = 4;

    /// A span on `side`.
    pub fn on(side: Side) -> Attr {
        Attr(if side == Side::Server {
            Self::SERVER
        } else {
            0
        })
    }
    /// ...handling a reply rather than a request.
    pub fn reply(self, is_reply: bool) -> Attr {
        Attr(self.0 | if is_reply { Self::REPLY } else { 0 })
    }
    /// ...of a one-way call.
    pub fn oneway(self, is_oneway: bool) -> Attr {
        Attr(self.0 | if is_oneway { Self::ONEWAY } else { 0 })
    }
    /// ...inside capability number `cap` (an index into the workload's chain, from 1).
    pub fn cap(self, cap: u8) -> Attr {
        Attr(self.0 | (cap << Self::CAP_SHIFT))
    }
    /// Which side.
    pub fn side(self) -> Side {
        if self.0 & Self::SERVER != 0 {
            Side::Server
        } else {
            Side::Client
        }
    }
    /// Whether the message is a reply.
    pub fn is_reply(self) -> bool {
        self.0 & Self::REPLY != 0
    }
    /// Whether the call is one-way.
    pub fn is_oneway(self) -> bool {
        self.0 & Self::ONEWAY != 0
    }
    /// The capability's number, 0 for none.
    pub fn cap_index(self) -> u8 {
        self.0 >> Self::CAP_SHIFT
    }
}

/// "No span".
pub const NONE: u32 = u32::MAX;

/// A finished span, as the analysis reads it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Its slot in the table; other spans name it as `parent` by this.
    pub index: u32,
    /// What it covers.
    pub name: Name,
    /// Side, direction, capability, one-way.
    pub attr: Attr,
    /// Small per-thread number, in order of first appearance.
    pub thread: u16,
    /// The timed unit it belongs to.
    pub op: u32,
    /// Open and close, ns on the tracer's clock.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// The span that caused it, as an index into the table; [`NONE`] for a root.
    pub parent: u32,
    /// Frame length, for connection spans.
    pub bytes: u32,
    /// The owning thread's allocation count when it opened and closed.
    pub allocs_start: u64,
    /// See `allocs_start`.
    pub allocs_end: u64,
}

const WORDS: usize = 6;

/// The table.
pub struct Tracer {
    slots: Box<[[AtomicU64; WORDS]]>,
    cursor: AtomicUsize,
    recording: AtomicBool,
    op: AtomicU32,
    last_crossing: AtomicU32,
    base: Instant,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(NONE) };
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn thread_number() -> u64 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(
                NEXT_THREAD
                    .fetch_add(1, Ordering::Relaxed)
                    .min(u16::MAX as u32),
            );
        }
        t.get() as u64
    })
}

/// Sizes the table (touching every page, so recording never faults) and
/// starts the clock. Call once, before any interposer runs.
pub fn init(capacity: usize) {
    let slots = (0..capacity)
        .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
        .collect();
    let tracer = Tracer {
        slots,
        cursor: AtomicUsize::new(0),
        recording: AtomicBool::new(false),
        op: AtomicU32::new(0),
        last_crossing: AtomicU32::new(NONE),
        base: Instant::now(),
    };
    assert!(TRACER.set(tracer).is_ok(), "the tracer is initialised once");
}

fn tracer() -> &'static Tracer {
    TRACER
        .get()
        .expect("spans::init runs before any interposer")
}

/// Nanoseconds on the tracer's clock.
pub fn now_ns() -> u64 {
    tracer().base.elapsed().as_nanos() as u64
}

/// Turns recording on or off. Interposers do nothing while it is off.
pub fn set_recording(on: bool) {
    tracer().recording.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[inline]
pub fn recording() -> bool {
    tracer().recording.load(Ordering::Relaxed)
}

/// Names the timed unit that spans opened from now on belong to.
pub fn set_op(op: u32) {
    tracer().op.store(op, Ordering::Relaxed);
}

/// Forgets everything recorded (after the warm-up).
pub fn reset() {
    tracer().cursor.store(0, Ordering::Relaxed);
}

/// Spans recorded, and spans that found the table full.
pub fn recorded_and_dropped() -> (usize, usize) {
    let t = tracer();
    let claimed = t.cursor.load(Ordering::Relaxed);
    (
        claimed.min(t.slots.len()),
        claimed.saturating_sub(t.slots.len()),
    )
}

fn pack_head(name: Name, attr: Attr, op: u32) -> u64 {
    name as u64 | (attr.0 as u64) << 8 | thread_number() << 16 | (op as u64) << 32
}

/// An open span. Closing it (or dropping it) records its end.
pub struct Open {
    slot: u32,
    outer: u32,
    crosses: bool,
}

/// Opens a span now. Its parent is the calling thread's innermost open span
/// or, if it has none, the last span that crossed a thread boundary.
#[inline]
pub fn open(name: Name, attr: Attr) -> Open {
    if !recording() {
        return Open {
            slot: NONE,
            outer: NONE,
            crosses: false,
        };
    }
    open_at(name, attr, now_ns(), thread_allocs(), NONE)
}

/// [`open`] with the opening instant, allocation count and (unless
/// [`NONE`]) parent supplied, for a span that begins where another ended or
/// was caused on another thread.
pub fn open_at(name: Name, attr: Attr, start_ns: u64, allocs: u64, parent: u32) -> Open {
    let t = tracer();
    if !t.recording.load(Ordering::Relaxed) {
        return Open {
            slot: NONE,
            outer: NONE,
            crosses: false,
        };
    }
    let idx = t.cursor.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.with(Cell::get);
    let Some(slot) = t.slots.get(idx) else {
        return Open {
            slot: NONE,
            outer,
            crosses: false,
        };
    };
    let parent = match (parent, outer) {
        _ if name == Name::Root => NONE,
        (NONE, NONE) => t.last_crossing.load(Ordering::Relaxed),
        (NONE, outer) => outer,
        (given, _) => given,
    };
    slot[0].store(
        pack_head(name, attr, t.op.load(Ordering::Relaxed)),
        Ordering::Relaxed,
    );
    slot[1].store(start_ns, Ordering::Relaxed);
    slot[2].store(0, Ordering::Relaxed);
    slot[3].store(parent as u64, Ordering::Relaxed);
    slot[4].store(allocs, Ordering::Relaxed);
    CURRENT.with(|c| c.set(idx as u32));
    Open {
        slot: idx as u32,
        outer,
        crosses: false,
    }
}

impl Open {
    /// This span's index, for a span it causes on another thread.
    pub fn index(&self) -> u32 {
        self.slot
    }

    /// Marks the span as one whose end hands the unit to another thread (a
    /// send): spans opened there with no parent of their own take this one.
    pub fn crossing(mut self) -> Open {
        self.crosses = true;
        self
    }

    /// Notes a frame length on the span.
    pub fn bytes(&self, n: usize) {
        if let Some(slot) = tracer().slots.get(self.slot as usize) {
            let parent = slot[3].load(Ordering::Relaxed) & u32::MAX as u64;
            slot[3].store(
                parent | (n.min(u32::MAX as usize) as u64) << 32,
                Ordering::Relaxed,
            );
        }
    }

    /// Closes the span at `end_ns` with the thread's allocation count `allocs`.
    pub fn close_at(self, end_ns: u64, allocs: u64) {
        self.finish(end_ns, allocs);
        std::mem::forget(self);
    }

    fn finish(&self, end_ns: u64, allocs: u64) {
        let t = tracer();
        let Some(slot) = t.slots.get(self.slot as usize) else {
            return;
        };
        slot[2].store(end_ns.max(1), Ordering::Relaxed);
        slot[5].store(allocs, Ordering::Relaxed);
        CURRENT.with(|c| c.set(self.outer));
        if self.crosses {
            t.last_crossing.store(self.slot, Ordering::Relaxed);
        }
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        if self.slot != NONE {
            self.finish(now_ns(), thread_allocs());
        }
    }
}

/// Records a span that has already ended: a blocking receive, whose unit is
/// only known once the frame arrives. It crosses a thread boundary by nature.
pub fn record_recv(attr: Attr, start_ns: u64, allocs_start: u64, bytes: usize) {
    if !recording() {
        return;
    }
    let span = open_at(Name::ConnRecv, attr, start_ns, allocs_start, NONE).crossing();
    span.bytes(bytes);
    drop(span);
}

/// Every finished span, in slot order (which is opening order).
pub fn snapshot() -> Vec<Span> {
    let t = tracer();
    let n = recorded_and_dropped().0;
    t.slots[..n]
        .iter()
        .enumerate()
        .filter_map(|(index, slot)| {
            let head = slot[0].load(Ordering::Relaxed);
            let end_ns = slot[2].load(Ordering::Relaxed);
            if end_ns == 0 {
                return None; // still open when the phase ended
            }
            let aux = slot[3].load(Ordering::Relaxed);
            Some(Span {
                index: index as u32,
                name: *NAMES.get((head & 0xff) as usize)?,
                attr: Attr((head >> 8) as u8),
                thread: (head >> 16) as u16,
                op: (head >> 32) as u32,
                start_ns: slot[1].load(Ordering::Relaxed),
                end_ns,
                parent: aux as u32,
                bytes: (aux >> 32) as u32,
                allocs_start: slot[4].load(Ordering::Relaxed),
                allocs_end: slot[5].load(Ordering::Relaxed),
            })
        })
        .collect()
}

/// Writes `spans` out as tab-separated text, one span a line.
pub fn write_out(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "span\top\tname\tside\tdir\tcap\toneway\tthread\tstart_ns\tend_ns\tparent\tbytes\tallocs"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{:?}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.index,
            s.op,
            s.name,
            s.attr.side(),
            if s.attr.is_reply() {
                "reply"
            } else {
                "request"
            },
            s.attr.cap_index(),
            s.attr.is_oneway() as u8,
            s.thread,
            s.start_ns,
            s.end_ns,
            if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            },
            s.bytes,
            s.allocs_end.saturating_sub(s.allocs_start)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The table is process-wide and sized once, so everything that needs it
    // is checked in this one test.
    #[test]
    fn spans_round_trip_with_parents_crossings_and_a_full_table() {
        for (i, name) in NAMES.iter().enumerate() {
            assert_eq!(*name as usize, i, "NAMES is in discriminant order");
        }
        init(6);
        assert!(
            open(Name::Dispatch, Attr::default()).slot == NONE,
            "nothing records while off"
        );

        set_op(7);
        set_recording(true);
        let root = open_at(Name::Root, Attr::on(Side::Client), 100, 5, NONE);
        let send = open(Name::ConnSend, Attr::on(Side::Client)).crossing();
        send.bytes(72);
        let send_index = send.index();
        drop(send);
        // A receive on a thread with no open span hangs off the last crossing.
        std::thread::spawn(|| record_recv(Attr::on(Side::Server), 50, 3, 72))
            .join()
            .expect("recorder thread");
        let cap = Attr::on(Side::Server).reply(true).cap(2);
        open(Name::CapProcess, cap).close_at(400, 9);
        root.close_at(500, 11);

        let spans = snapshot();
        assert_eq!(spans.len(), 4);
        let by = |name| spans.iter().find(|s| s.name == name).expect("span");
        let (root, send, recv, cap) = (
            by(Name::Root),
            by(Name::ConnSend),
            by(Name::ConnRecv),
            by(Name::CapProcess),
        );
        assert_eq!(
            (root.op, root.start_ns, root.end_ns, root.parent),
            (7, 100, 500, NONE)
        );
        assert_eq!((root.allocs_start, root.allocs_end), (5, 11));
        assert_eq!(
            (send.parent, send.bytes, send.index),
            (root.index, 72, send_index)
        );
        assert_eq!(
            (recv.parent, recv.start_ns, recv.bytes),
            (send.index, 50, 72)
        );
        assert_ne!(recv.thread, root.thread);
        assert_eq!(cap.parent, root.index);
        assert!(cap.attr.is_reply() && cap.attr.side() == Side::Server && !cap.attr.is_oneway());
        assert_eq!(
            (cap.attr.cap_index(), cap.end_ns, cap.allocs_end),
            (2, 400, 9)
        );

        // Two more fill the table; the next is dropped, not written elsewhere.
        drop(open(Name::ExecSubmit, Attr::default()));
        drop(open(Name::ExecRun, Attr::default()));
        assert_eq!(open(Name::Dispatch, Attr::default()).slot, NONE);
        assert_eq!(recorded_and_dropped(), (6, 1));
        reset();
        assert_eq!(recorded_and_dropped(), (0, 0));
        set_recording(false);
    }
}
