//! Causal tracing: wire-propagated context, child spans, and the always-on
//! flight recorder.
//!
//! A [`TraceContext`] is minted at the GP call site, rides the request frame
//! as a trailing versioned extension, and is re-installed on every thread
//! that works on the request (retry loop, demux waiter, server handler
//! thread). Each unit of work — an attempt, a capability transform, a
//! transport send, a skeleton dispatch — opens a [`TraceSpan`] that becomes a
//! child of the installed context and is recorded into the process-global
//! [`TraceBuffer`] when it closes.
//!
//! The buffer is the *flight recorder* (DESIGN.md §13): a fixed-size ring of
//! packed, heap-free slots, always on. Recording costs one `fetch_add` plus
//! a bounded inline copy behind a per-slot `try_write` — no allocation, and
//! a contended slot drops the record (and counts the drop) rather than ever
//! blocking the hot path. Snapshots unpack the slots into [`SpanRecord`]s
//! and are exposed over the ORB through the introspection object's
//! `dump_traces` method; a failing test can write one to a directory of
//! its choosing with [`dump_to_results`].
//!
//! Timestamps come from [`Registry::global`]'s pluggable clock, so traces
//! recorded under netsim's virtual clock are deterministic.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::registry::fast_now_ns;

/// Upper bound on the serialized baggage a context will carry, in bytes
/// (keys + values). Entries past the budget are dropped and counted into
/// `trace_baggage_dropped_total`.
pub const BAGGAGE_BUDGET_BYTES: usize = 512;

/// Span/attribute copy bounds: names and attribute strings longer than this
/// are truncated so a record is always a small, bounded copy.
const NAME_BUDGET: usize = 64;
const ATTR_VALUE_BUDGET: usize = 128;
const ATTRS_PER_SPAN: usize = 8;

/// Inline payload bytes per slot (name + packed attributes). Sized so one
/// worst-case attribute (64-byte key, 128-byte value) still fits behind a
/// full-length name; attributes past the arena are dropped, never spilled
/// to the heap.
const SLOT_BYTES: usize = 288;

/// Flight-recorder capacity (spans). Power of two so the ring index is a
/// mask. 1k packed slots of ~350 bytes keeps the recorder near 360 KiB —
/// small enough to stay L2-resident, so the per-record slot write is warm
/// rather than a string of cold-line store misses, and still roughly a
/// hundred request chains of history for a post-mortem dump.
const RING_CAPACITY: usize = 1024;

/// Propagated identity of one causal trace.
///
/// `trace_id` names the end-to-end request story; `span_id` names the
/// current unit of work; `parent_span_id` is 0 for a root. `baggage` carries
/// small key/value pairs along the wire under [`BAGGAGE_BUDGET_BYTES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace identity, stable across retries, failovers and forwards.
    pub trace_id: u128,
    /// The current span.
    pub span_id: u64,
    /// The parent span (0 = root).
    pub parent_span_id: u64,
    /// Key/value pairs propagated with the request, bounded by
    /// [`BAGGAGE_BUDGET_BYTES`].
    pub baggage: Vec<(String, String)>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Process-unique id stream: a splitmix64 walk over a thread-local counter
/// under a per-thread random seed (wall-clock nanoseconds mixed with a
/// process-global thread ordinal), so minting an id is lock-free and touches
/// no shared cache line on the hot path. Uniqueness is what matters — within
/// a thread the walk never repeats (splitmix64 is a bijection), across
/// threads and processes the 64-bit seeds make a collision negligible.
/// Determinism of *timestamps* (not ids) is what the netsim tests rely on.
fn next_id() -> u64 {
    use std::cell::Cell;
    static THREAD_ORDINAL: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // (seed, counter); seed 0 means "not yet initialised".
        static ID_STATE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    ID_STATE.with(|s| {
        let (mut seed, mut n) = s.get();
        if seed == 0 {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5EED);
            let ord = THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
            seed = splitmix64(t ^ ord.rotate_left(32)).max(1);
        }
        loop {
            n = n.wrapping_add(1);
            let id = splitmix64(seed ^ n);
            if id != 0 {
                s.set((seed, n));
                return id;
            }
        }
    })
}

impl TraceContext {
    /// Mints a fresh root context (new trace, new span, no parent).
    pub fn new_root() -> Self {
        let hi = next_id();
        let lo = next_id();
        Self {
            trace_id: (u128::from(hi) << 64) | u128::from(lo),
            span_id: next_id(),
            parent_span_id: 0,
            baggage: Vec::new(),
        }
    }

    /// Derives a child context: same trace, fresh span, parented on `self`.
    /// Baggage is inherited (it propagates with the request).
    pub fn child(&self) -> Self {
        Self {
            trace_id: self.trace_id,
            span_id: next_id(),
            parent_span_id: self.span_id,
            baggage: self.baggage.clone(),
        }
    }

    /// Serialized size of the current baggage in bytes (keys + values).
    pub fn baggage_bytes(&self) -> usize {
        self.baggage.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// Adds a baggage entry if it fits the byte budget; a dropped entry is
    /// counted into `trace_baggage_dropped_total` and the call returns
    /// `false`.
    pub fn try_add_baggage(&mut self, key: &str, value: &str) -> bool {
        if self.baggage_bytes() + key.len() + value.len() > BAGGAGE_BUDGET_BYTES {
            crate::counter!("trace_baggage_dropped_total").inc();
            return false;
        }
        self.baggage.push((key.to_string(), value.to_string()));
        true
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// The context installed on this thread, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Trace id of the installed context (`None` off-trace). Cheaper than
/// [`current`] when only the id is needed (exemplars, fault tags).
pub fn current_trace_id() -> Option<u128> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.trace_id))
}

/// Drop guard restoring the previously installed context.
///
/// Returned by [`install`]; keep it alive for the duration of the work that
/// should run under the context.
#[must_use = "dropping the scope immediately uninstalls the context"]
pub struct TraceScope {
    prev: Option<TraceContext>,
}

impl std::fmt::Debug for TraceScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceScope").finish()
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Installs `ctx` as this thread's current context until the returned scope
/// drops (the previous context, if any, is restored).
pub fn install(ctx: TraceContext) -> TraceScope {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
    TraceScope { prev }
}

/// Uninstalls this thread's context until the returned scope drops, which
/// restores it: what runs meanwhile belongs to no trace.
pub fn suspend() -> TraceScope {
    TraceScope { prev: CURRENT.with(|c| c.borrow_mut().take()) }
}

/// One recorded span in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span_id: u64,
    /// Bounded operation name (≤ 64 bytes).
    pub name: String,
    /// Start timestamp from the registry clock, nanoseconds.
    pub start_ns: u64,
    /// End timestamp; equals `start_ns` for instant events.
    pub end_ns: u64,
    /// Bounded attribute list (≤ 8 entries, values ≤ 128 bytes).
    pub attrs: Vec<(String, String)>,
}

/// The value of a span attribute: text, or an integer that is written into
/// the record's arena as decimal digits. Call sites pass `"text".into()` or
/// `n.into()`; nothing is formatted, and nothing allocated, unless a context
/// is installed and the attribute is actually recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrValue<'a> {
    /// Text, copied (truncated to 128 bytes).
    Str(&'a str),
    /// An unsigned integer, recorded as its decimal digits.
    U64(u64),
}

impl<'a> From<&'a str> for AttrValue<'a> {
    fn from(v: &'a str) -> Self {
        AttrValue::Str(v)
    }
}

impl From<u64> for AttrValue<'_> {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue<'_> {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<usize> for AttrValue<'_> {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

/// Borrowing truncation to a char boundary at or below `budget`.
fn truncate_str(s: &str, budget: usize) -> &str {
    if s.len() <= budget {
        return s;
    }
    let mut end = budget;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or_default()
}

/// A span in packed wire-less form: ids plus an inline byte arena holding
/// the name and the attributes (`[klen][vlen][key][val]` per attr). This is
/// what lives in the ring and on a [`TraceSpan`]'s stack frame — recording
/// is a bounded memcpy, never an allocation.
#[derive(Clone, Copy)]
struct PackedSpan {
    trace_id: u128,
    span_id: u64,
    parent_span_id: u64,
    start_ns: u64,
    end_ns: u64,
    name_len: u8,
    n_attrs: u8,
    len: u16,
    buf: [u8; SLOT_BYTES],
}

impl PackedSpan {
    fn new(trace_id: u128, span_id: u64, parent_span_id: u64, name: &str, start_ns: u64) -> Self {
        let mut p = Self {
            trace_id,
            span_id,
            parent_span_id,
            start_ns,
            end_ns: start_ns,
            name_len: 0,
            n_attrs: 0,
            len: 0,
            buf: [0; SLOT_BYTES],
        };
        let name = truncate_str(name, NAME_BUDGET).as_bytes();
        if let Some(dst) = p.buf.get_mut(..name.len()) {
            dst.copy_from_slice(name);
            p.name_len = name.len() as u8;
            p.len = name.len() as u16;
        }
        p
    }

    /// Appends an attribute; silently dropped once the attr count or the
    /// arena is exhausted (bounded by construction).
    fn push_attr(&mut self, key: &str, value: AttrValue<'_>) {
        if usize::from(self.n_attrs) >= ATTRS_PER_SPAN {
            return;
        }
        let key = truncate_str(key, NAME_BUDGET).as_bytes();
        // u64::MAX has 20 digits; they are written right-aligned.
        let mut digits = [0u8; 20];
        let value = match value {
            AttrValue::Str(s) => truncate_str(s, ATTR_VALUE_BUDGET).as_bytes(),
            AttrValue::U64(mut n) => {
                let mut at = digits.len();
                for digit in digits.iter_mut().rev() {
                    *digit = b'0' + (n % 10) as u8;
                    at -= 1;
                    n /= 10;
                    if n == 0 {
                        break;
                    }
                }
                digits.get(at..).unwrap_or_default()
            }
        };
        let at = usize::from(self.len);
        let need = 2 + key.len() + value.len();
        let Some(dst) = self.buf.get_mut(at..at + need) else { return };
        let [klen_b, vlen_b, body @ ..] = dst else { return };
        *klen_b = key.len() as u8;
        *vlen_b = value.len() as u8;
        if let Some(kdst) = body.get_mut(..key.len()) {
            kdst.copy_from_slice(key);
        }
        if let Some(vdst) = body.get_mut(key.len()..) {
            vdst.copy_from_slice(value);
        }
        self.len += need as u16;
        self.n_attrs += 1;
    }

    fn push_attrs(&mut self, attrs: &[(&str, AttrValue<'_>)]) {
        for (k, v) in attrs {
            self.push_attr(k, *v);
        }
    }

    /// Expands the packed form back into an owned [`SpanRecord`]
    /// (snapshot-time only — this side allocates).
    fn unpack(&self) -> SpanRecord {
        let name = self
            .buf
            .get(..usize::from(self.name_len))
            .map(|b| String::from_utf8_lossy(b).into_owned())
            .unwrap_or_default();
        let mut attrs = Vec::with_capacity(usize::from(self.n_attrs));
        let mut at = usize::from(self.name_len);
        for _ in 0..self.n_attrs {
            let Some(&[klen, vlen]) = self.buf.get(at..at + 2) else { break };
            at += 2;
            let (klen, vlen) = (usize::from(klen), usize::from(vlen));
            let Some(kb) = self.buf.get(at..at + klen) else { break };
            let key = String::from_utf8_lossy(kb).into_owned();
            at += klen;
            let Some(vb) = self.buf.get(at..at + vlen) else { break };
            let value = String::from_utf8_lossy(vb).into_owned();
            at += vlen;
            attrs.push((key, value));
        }
        SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            name,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            attrs,
        }
    }
}

/// Global kill switch for span recording (contexts still propagate).
///
/// Tracing is **always on** by default; the switch exists so the overhead
/// benchmark can measure a tracing-off baseline and so an operator can shed
/// the (small) recording cost under extreme load.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is span recording on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off (default on).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The fixed-size span ring: the always-on flight recorder.
///
/// Writers claim a slot with one `fetch_add` and memcpy their packed record
/// behind a per-slot `try_write` — no heap traffic on the record path; a
/// slot contended at that instant drops the record (counted in
/// [`dropped`](Self::dropped)) so recording can never block. Readers take
/// per-slot read locks; a snapshot unpacks into owned [`SpanRecord`]s.
pub struct TraceBuffer {
    slots: Vec<RwLock<Option<PackedSpan>>>,
    cursor: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceBuffer {
    /// A buffer with `capacity` slots (rounded up to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| RwLock::new(None)).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The process-global flight recorder every [`TraceSpan`] records into.
    pub fn global() -> &'static TraceBuffer {
        static GLOBAL: OnceLock<TraceBuffer> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceBuffer::with_capacity(RING_CAPACITY))
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans recorded since construction (overwritten ones included).
    /// Derived from the write cursor so the record path pays for one shared
    /// counter, not two.
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed).saturating_sub(self.dropped.load(Ordering::Relaxed))
    }

    /// Records dropped because their slot was contended.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one owned span (converts to the packed form; tests and
    /// external recorders). The hot paths record packed spans directly.
    pub fn record(&self, rec: SpanRecord) {
        let mut p =
            PackedSpan::new(rec.trace_id, rec.span_id, rec.parent_span_id, &rec.name, rec.start_ns);
        p.end_ns = rec.end_ns;
        for (k, v) in &rec.attrs {
            p.push_attr(k, AttrValue::Str(v));
        }
        self.record_packed(&p);
    }

    /// Records one packed span. Never blocks: a contended slot drops the
    /// record.
    ///
    /// Threads claim ring indices in blocks of `capacity / 64` (1 for small
    /// buffers, so tests see exact FIFO slot reuse) and walk their block
    /// thread-locally, so the shared cursor line moves between cores once
    /// per block rather than once per span. A thread's unfilled tail merely
    /// leaves those slots holding their previous records a little longer.
    fn record_packed(&self, rec: &PackedSpan) {
        use std::cell::Cell;
        thread_local! {
            // (buffer identity, next unclaimed index, end of claimed block)
            static BLOCK: Cell<(usize, u64, u64)> = const { Cell::new((0, 0, 0)) };
        }
        let me = self as *const Self as usize;
        let claimed = BLOCK.with(|b| {
            let (owner, next, end) = b.get();
            if owner == me && next < end {
                b.set((me, next + 1, end));
                next
            } else {
                let block = (self.slots.len() as u64 / 64).max(1);
                let base = self.cursor.fetch_add(block, Ordering::Relaxed);
                b.set((me, base + 1, base + block));
                base
            }
        });
        let idx = (claimed as usize) % self.slots.len();
        let Some(slot) = self.slots.get(idx) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match slot.try_write() {
            Ok(mut guard) => {
                *guard = Some(*rec);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy of every live record, ordered by
    /// `(start_ns, trace_id, span_id)` so output is deterministic under a
    /// deterministic clock.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| match s.try_read() {
                Ok(guard) => guard.as_ref().map(PackedSpan::unpack),
                Err(_) => None,
            })
            .collect();
        out.sort_by(|a, b| {
            (a.start_ns, a.trace_id, a.span_id).cmp(&(b.start_ns, b.trace_id, b.span_id))
        });
        out
    }

    /// Every live record belonging to `trace_id`, in snapshot order.
    pub fn spans_of(&self, trace_id: u128) -> Vec<SpanRecord> {
        self.snapshot().into_iter().filter(|r| r.trace_id == trace_id).collect()
    }

    /// Renders the snapshot as deterministic text, one span per line:
    ///
    /// ```text
    /// trace=<032x> span=<016x> parent=<016x> start=<ns> end=<ns> <name> k=v ...
    /// ```
    pub fn snapshot_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in self.snapshot() {
            let _ = write!(
                out,
                "trace={:032x} span={:016x} parent={:016x} start={} end={} {}",
                r.trace_id, r.span_id, r.parent_span_id, r.start_ns, r.end_ns, r.name
            );
            for (k, v) in &r.attrs {
                let _ = write!(out, " {}={}", k, v.replace(['\n', ' '], "_"));
            }
            out.push('\n');
        }
        out
    }

    /// Empties the ring (tests).
    pub fn clear(&self) {
        for slot in &self.slots {
            if let Ok(mut guard) = slot.try_write() {
                *guard = None;
            }
        }
    }
}

/// Records an instant event (zero-duration span) under the installed
/// context; a no-op when no context is installed or recording is off.
pub fn trace_event(name: &str, attrs: &[(&str, AttrValue<'_>)]) {
    if !enabled() {
        return;
    }
    let Some((trace_id, span_id)) =
        CURRENT.with(|c| c.borrow().as_ref().map(|ctx| (ctx.trace_id, ctx.span_id)))
    else {
        return;
    };
    let now = fast_now_ns();
    let mut p = PackedSpan::new(trace_id, next_id(), span_id, name, now);
    p.push_attrs(attrs);
    TraceBuffer::global().record_packed(&p);
}

/// A timed child span: derives a child of the installed context, installs
/// it for the guard's lifetime (so nested spans parent correctly), and
/// records into the flight recorder on drop.
///
/// When no context is installed (or recording is off) the guard is inert —
/// callers do not need to branch.
#[must_use = "a span records when the guard drops"]
pub struct TraceSpan {
    rec: Option<PackedSpan>,
    /// `(span_id, parent_span_id)` of the installed context before this span
    /// re-pointed it at itself; restored on drop. The full context never
    /// moves — a child span shares the trace id and baggage, so opening one
    /// only swings the two span ids in place.
    restore: Option<(u64, u64)>,
}

impl std::fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpan").field("active", &self.rec.is_some()).finish()
    }
}

impl TraceSpan {
    /// Adds an attribute to the span (bounded; ignored on inert spans).
    pub fn attr<'a>(&mut self, key: &str, value: impl Into<AttrValue<'a>>) {
        if let Some(rec) = &mut self.rec {
            rec.push_attr(key, value.into());
        }
    }

    /// Is this span actually recording?
    pub fn is_active(&self) -> bool {
        self.rec.is_some()
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        // End time is taken before the parent span ids are restored, so a
        // span's duration never includes its own teardown.
        if let Some(rec) = self.rec.as_mut() {
            rec.end_ns = fast_now_ns();
            TraceBuffer::global().record_packed(rec);
        }
        if let Some((span_id, parent_span_id)) = self.restore.take() {
            CURRENT.with(|c| {
                if let Some(ctx) = c.borrow_mut().as_mut() {
                    ctx.span_id = span_id;
                    ctx.parent_span_id = parent_span_id;
                }
            });
        }
    }
}

/// Opens a child span of the installed context (inert off-trace).
pub fn trace_span(name: &str) -> TraceSpan {
    trace_span_with(name, &[])
}

/// [`trace_span`] with initial attributes.
pub fn trace_span_with(name: &str, attrs: &[(&str, AttrValue<'_>)]) -> TraceSpan {
    if !enabled() {
        return TraceSpan { rec: None, restore: None };
    }
    let span_id = next_id();
    // One TLS visit: read the ids and re-point the installed context at the
    // new span, so nested spans parent correctly. Trace id and baggage are
    // shared with the parent and stay where they are.
    let ids = CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let ctx = cur.as_mut()?;
        let prev = (ctx.span_id, ctx.parent_span_id);
        ctx.parent_span_id = ctx.span_id;
        ctx.span_id = span_id;
        Some((ctx.trace_id, prev))
    });
    let Some((trace_id, prev)) = ids else {
        return TraceSpan { rec: None, restore: None };
    };
    let mut rec = PackedSpan::new(trace_id, span_id, prev.0, name, fast_now_ns());
    rec.push_attrs(attrs);
    TraceSpan { rec: Some(rec), restore: Some(prev) }
}

/// Writes the flight recorder to `<dir>/trace-dump-<reason>.txt`, creating
/// `dir` if needed, and returns the path written (`None` if the write
/// failed: a dump is a debugging aid, never a new failure).
///
/// Nothing in the library calls this: the caller decides when a failure is
/// worth a file and where it goes (a failing test passes
/// `env!("CARGO_TARGET_TMPDIR")`).
pub fn dump_to_results(dir: &std::path::Path, reason: &str) -> Option<std::path::PathBuf> {
    let safe: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '-' })
        .take(48)
        .collect();
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("trace-dump-{safe}.txt"));
    std::fs::write(&path, TraceBuffer::global().snapshot_text()).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::registry::Registry;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// Serializes tests that read or write process-global recording state
    /// (the enabled flag, the global clock, the global ring).
    fn global_state_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn root_and_child_share_a_trace() {
        let root = TraceContext::new_root();
        assert_ne!(root.trace_id, 0);
        assert_ne!(root.span_id, 0);
        assert_eq!(root.parent_span_id, 0);
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
        assert_eq!(child.parent_span_id, root.span_id);
    }

    #[test]
    fn ids_are_unique_across_many_mints() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(TraceContext::new_root().trace_id));
        }
    }

    #[test]
    fn baggage_budget_is_enforced() {
        let mut ctx = TraceContext::new_root();
        assert!(ctx.try_add_baggage("tenant", "blue"));
        let huge = "x".repeat(BAGGAGE_BUDGET_BYTES);
        assert!(!ctx.try_add_baggage("k", &huge), "over-budget entry dropped");
        assert_eq!(ctx.baggage.len(), 1);
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        assert!(current().is_none());
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        {
            let _sa = install(a.clone());
            assert_eq!(current().map(|c| c.trace_id), Some(a.trace_id));
            {
                let _sb = install(b.clone());
                assert_eq!(current().map(|c| c.trace_id), Some(b.trace_id));
            }
            assert_eq!(current().map(|c| c.trace_id), Some(a.trace_id));
            {
                let _off = suspend();
                assert!(current().is_none());
            }
            assert_eq!(current().map(|c| c.trace_id), Some(a.trace_id));
        }
        assert!(current().is_none());
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest() {
        let buf = TraceBuffer::with_capacity(4);
        for i in 0..10u64 {
            buf.record(SpanRecord {
                trace_id: 1,
                span_id: i + 1,
                parent_span_id: 0,
                name: format!("s{i}"),
                start_ns: i,
                end_ns: i,
                attrs: vec![],
            });
        }
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(buf.recorded(), 10);
        // Only the newest four survive the wrap.
        let names: Vec<&str> = snap.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["s6", "s7", "s8", "s9"]);
    }

    #[test]
    fn spans_record_under_an_installed_context_only() {
        let _g = global_state_guard();
        // No context installed on this thread: the guard must be inert.
        // (No recorded()-delta assertion — sibling tests record concurrently.)
        let orphan = trace_span("orphan");
        assert!(!orphan.is_active(), "span without an installed context is inert");
        drop(orphan);

        let ctx = TraceContext::new_root();
        let scope = install(ctx.clone());
        {
            let mut span = trace_span("work");
            assert!(span.is_active());
            span.attr("k", "v");
        }
        trace_event("blip", &[("reason", "test".into())]);
        drop(scope);
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert!(spans.iter().any(|s| s.name == "work" && s.parent_span_id == ctx.span_id));
        assert!(spans.iter().any(|s| s.name == "blip"));
    }

    #[test]
    fn nested_spans_parent_on_each_other() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        let outer_id;
        {
            let outer = trace_span("outer");
            outer_id = current().map(|c| c.span_id).unwrap_or(0);
            assert!(outer.is_active());
            {
                let _inner = trace_span("inner");
            }
        }
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner recorded");
        assert_eq!(inner.parent_span_id, outer_id, "inner parents on outer");
    }

    #[test]
    fn timestamps_come_from_the_registry_clock() {
        let _g = global_state_guard();
        // The global clock may be swapped by other tests; use a local
        // ManualClock and restore the old one after.
        let old = Registry::global().clock();
        let clock = Arc::new(ManualClock::new());
        clock.set(5_000);
        Registry::global().set_clock(clock.clone());
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        {
            let _span = trace_span("timed");
            clock.advance(250);
        }
        Registry::global().set_clock(old);
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let timed = spans.iter().find(|s| s.name == "timed").expect("recorded");
        assert_eq!(timed.start_ns, 5_000);
        assert_eq!(timed.end_ns, 5_250);
    }

    #[test]
    fn disabled_recording_is_a_cheap_no_op() {
        let _g = global_state_guard();
        set_enabled(false);
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        drop(trace_span("dark"));
        trace_event("dark-event", &[]);
        set_enabled(true);
        assert!(TraceBuffer::global().spans_of(ctx.trace_id).is_empty());
    }

    #[test]
    fn snapshot_text_is_deterministic_and_parseable() {
        let buf = TraceBuffer::with_capacity(8);
        buf.record(SpanRecord {
            trace_id: 0xABCD,
            span_id: 2,
            parent_span_id: 1,
            name: "hop".into(),
            start_ns: 10,
            end_ns: 20,
            attrs: vec![("protocol".into(), "tcp with spaces".into())],
        });
        let text = buf.snapshot_text();
        assert_eq!(text, buf.snapshot_text());
        assert!(text.contains("trace=0000000000000000000000000000abcd"), "{text}");
        assert!(text.contains("span=0000000000000002"), "{text}");
        assert!(text.contains("parent=0000000000000001"), "{text}");
        assert!(text.contains("hop protocol=tcp_with_spaces"), "{text}");
    }

    #[test]
    fn integer_attrs_are_recorded_as_their_decimal_digits() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        trace_event(
            "sized",
            &[("zero", 0u32.into()), ("bytes", 1_048_612usize.into()), ("max", u64::MAX.into())],
        );
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let attrs = &spans.first().expect("recorded").attrs;
        let want = [("zero", "0"), ("bytes", "1048612"), ("max", "18446744073709551615")];
        assert_eq!(attrs.len(), want.len());
        for ((k, v), (wk, wv)) in attrs.iter().zip(want) {
            assert_eq!((k.as_str(), v.as_str()), (wk, wv));
        }
    }

    #[test]
    fn names_and_attrs_are_bounded_copies() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        let long = "n".repeat(500);
        {
            let mut span = trace_span(&long);
            span.attr(&long, long.as_str());
        }
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let s = spans.first().expect("recorded");
        assert_eq!(s.name.len(), 64);
        let (k, v) = s.attrs.first().expect("attr kept");
        assert_eq!(k.len(), 64);
        assert_eq!(v.len(), 128);
    }
}
