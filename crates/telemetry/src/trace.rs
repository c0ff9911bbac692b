//! Causal tracing: wire-propagated context, child spans, and the always-on
//! flight recorder.
//!
//! A [`TraceContext`] is minted at the GP call site, rides the request frame
//! as a trailing versioned extension, and is re-installed on every thread
//! that works on the request (retry loop, demux waiter, server handler
//! thread). Each unit of work — an attempt, a capability transform, a
//! skeleton dispatch — opens a [`TraceSpan`] that becomes a child of the
//! installed context and is recorded into the process-global
//! [`TraceBuffer`] when it closes.
//!
//! An open span's record lives in its thread's fixed stack of open records
//! (no heap, `OPEN_DEPTH` deep). An instant event — a transport send, a
//! selection — whose parent is the innermost span open on the same thread
//! is appended to that span's record, so the span and its events reach the
//! ring as one record when the span closes, on every exit path, unwinding
//! included. An event with no such span (none open here, its parent open on
//! another thread, or the record's arena full) is a record of its own; no
//! event is dropped. A span opened with [`trace_span_timed`] also observes
//! its duration into a histogram from the same two clock stamps.
//!
//! The buffer is the *flight recorder* (DESIGN.md §13): a fixed-size ring of
//! packed, heap-free slots, always on. Recording costs one `fetch_add` plus
//! a bounded copy of the used bytes behind a per-slot `try_write` — no
//! allocation, and a contended slot drops the record (and counts the drop)
//! rather than ever blocking the hot path. Snapshots unpack each slot into
//! its span followed by its events, as [`SpanRecord`]s, and are exposed over
//! the ORB through the introspection object's `dump_traces` method; a
//! failing test can write one to a directory of its choosing with
//! [`dump_to_results`].
//!
//! Timestamps come from [`Registry::global`]'s pluggable clock, so traces
//! recorded under netsim's virtual clock are deterministic.
//!
//! [`Registry::global`]: crate::Registry::global

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::metrics::Histogram;
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

/// Inline payload bytes per slot (name, attributes and the events that rode
/// in the span). Sized so one worst-case attribute (64-byte key, 128-byte
/// value) still fits behind a full-length name; a span attribute past the
/// arena is dropped, an event past it becomes a record of its own, and
/// neither is ever spilled to the heap.
const SLOT_BYTES: usize = 288;

/// Arena entries after the name: a span attribute
/// `[TAG_ATTR][klen][vlen][key][value]`, or an event that rode in the span
/// `[TAG_EVENT][name_len][name][id: u64 LE][stamp: u64 LE][n]` followed by
/// its `n` attributes untagged.
const TAG_ATTR: u8 = 0;
const TAG_EVENT: u8 = 1;

/// Spans one thread can hold open with a record. A span opened deeper still
/// re-points the installed context (its children parent on it) but records
/// nothing: it is counted in [`TraceBuffer::dropped`], as a contended slot
/// is. The request path nests at most four deep (a server dispatch whose
/// skeleton calls out through a capability chain).
const OPEN_DEPTH: usize = 8;

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

/// The bytes an attribute value is recorded as: text truncated to 128
/// bytes, or an integer's decimal digits, written right-aligned into
/// `digits` (`u64::MAX` has 20).
fn attr_bytes<'a>(value: AttrValue<'a>, digits: &'a mut [u8; 20]) -> &'a [u8] {
    match value {
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
    }
}

/// A span in packed wire-less form: ids plus an inline byte arena holding
/// the name, then the span's attributes and the events that rode in it as
/// tagged entries ([`TAG_ATTR`], [`TAG_EVENT`]). This is what lives in the
/// ring and in a thread's stack of open records — recording is a bounded
/// memcpy, never an allocation.
#[derive(Clone, Copy)]
struct PackedSpan {
    trace_id: u128,
    span_id: u64,
    parent_span_id: u64,
    start_ns: u64,
    end_ns: u64,
    name_len: u8,
    /// The span's own attributes (an event's are counted in its entry).
    n_attrs: u8,
    len: u16,
    buf: [u8; SLOT_BYTES],
}

impl PackedSpan {
    const EMPTY: Self = Self {
        trace_id: 0,
        span_id: 0,
        parent_span_id: 0,
        start_ns: 0,
        end_ns: 0,
        name_len: 0,
        n_attrs: 0,
        len: 0,
        buf: [0; SLOT_BYTES],
    };

    fn new(trace_id: u128, span_id: u64, parent_span_id: u64, name: &str, start_ns: u64) -> Self {
        let mut p = Self::EMPTY;
        p.open(trace_id, span_id, parent_span_id, name, start_ns);
        p
    }

    /// Starts a record in place: the header and the name. Arena bytes past
    /// the name keep whatever they held; `len` bounds what is read.
    fn open(
        &mut self,
        trace_id: u128,
        span_id: u64,
        parent_span_id: u64,
        name: &str,
        start_ns: u64,
    ) {
        let name = truncate_str(name, NAME_BUDGET).as_bytes();
        self.trace_id = trace_id;
        self.span_id = span_id;
        self.parent_span_id = parent_span_id;
        self.start_ns = start_ns;
        self.end_ns = start_ns;
        self.n_attrs = 0;
        self.len = 0;
        self.name_len = if self.put(&[name]) { name.len() as u8 } else { 0 };
    }

    /// Appends `parts` to the arena, all or none: `false`, and `len`
    /// unmoved, when they do not fit.
    fn put(&mut self, parts: &[&[u8]]) -> bool {
        let need: usize = parts.iter().map(|p| p.len()).sum();
        let at = usize::from(self.len);
        let Some(mut dst) = self.buf.get_mut(at..at + need) else { return false };
        for part in parts {
            let Some((head, rest)) = dst.split_at_mut_checked(part.len()) else { return false };
            head.copy_from_slice(part);
            dst = rest;
        }
        self.len += need as u16;
        true
    }

    /// Appends a span attribute; silently dropped once the span has eight
    /// or the arena is full (bounded by construction).
    fn push_attr(&mut self, key: &str, value: AttrValue<'_>) {
        if usize::from(self.n_attrs) >= ATTRS_PER_SPAN {
            return;
        }
        let key = truncate_str(key, NAME_BUDGET).as_bytes();
        let mut digits = [0u8; 20];
        let value = attr_bytes(value, &mut digits);
        if self.put(&[&[TAG_ATTR, key.len() as u8, value.len() as u8], key, value]) {
            self.n_attrs += 1;
        }
    }

    fn push_attrs(&mut self, attrs: &[(&str, AttrValue<'_>)]) {
        for (k, v) in attrs {
            self.push_attr(k, *v);
        }
    }

    /// Appends an event that happened under this span, with its first eight
    /// attributes. All or nothing: `false`, and the arena unchanged, when
    /// the whole event does not fit.
    fn push_event(
        &mut self,
        id: u64,
        name: &str,
        stamp: u64,
        attrs: &[(&str, AttrValue<'_>)],
    ) -> bool {
        let mark = self.len;
        let name = truncate_str(name, NAME_BUDGET).as_bytes();
        let attrs = attrs.get(..ATTRS_PER_SPAN).unwrap_or(attrs);
        let (id, stamp) = (id.to_le_bytes(), stamp.to_le_bytes());
        let header: [&[u8]; 5] =
            [&[TAG_EVENT, name.len() as u8], name, &id, &stamp, &[attrs.len() as u8]];
        let fits = self.put(&header)
            && attrs.iter().all(|(key, value)| {
                let key = truncate_str(key, NAME_BUDGET).as_bytes();
                let mut digits = [0u8; 20];
                let value = attr_bytes(*value, &mut digits);
                self.put(&[&[key.len() as u8, value.len() as u8], key, value])
            });
        if !fits {
            self.len = mark;
        }
        fits
    }

    /// Overwrites this record with `src`'s header and the arena bytes it
    /// uses — not the whole arena.
    fn copy_used_from(&mut self, src: &Self) {
        let used = usize::from(src.len);
        if let (Some(dst), Some(from)) = (self.buf.get_mut(..used), src.buf.get(..used)) {
            dst.copy_from_slice(from);
        }
        self.trace_id = src.trace_id;
        self.span_id = src.span_id;
        self.parent_span_id = src.parent_span_id;
        self.start_ns = src.start_ns;
        self.end_ns = src.end_ns;
        self.name_len = src.name_len;
        self.n_attrs = src.n_attrs;
        self.len = src.len;
    }

    /// Expands the packed form into owned [`SpanRecord`]s — the span, then
    /// the events that rode in it, in the order they happened (snapshot-time
    /// only: this side allocates).
    fn unpack_into(&self, out: &mut Vec<SpanRecord>) {
        let mut arena = Arena(self.buf.get(..usize::from(self.len)).unwrap_or_default());
        let name = arena.text(usize::from(self.name_len)).unwrap_or_default();
        let mut attrs = Vec::with_capacity(usize::from(self.n_attrs));
        let mut events = Vec::new();
        while let Some(tag) = arena.byte() {
            match tag {
                TAG_ATTR => match arena.attr() {
                    Some(kv) => attrs.push(kv),
                    None => break,
                },
                TAG_EVENT => match arena.event(self) {
                    Some(event) => events.push(event),
                    None => break,
                },
                _ => break,
            }
        }
        out.push(SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            name,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            attrs,
        });
        out.append(&mut events);
    }
}

/// Reads a record's arena front to back.
struct Arena<'a>(&'a [u8]);

impl Arena<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn text(&mut self, n: usize) -> Option<String> {
        Some(String::from_utf8_lossy(self.take(n)?).into_owned())
    }

    /// `[klen][vlen][key][value]`
    fn attr(&mut self) -> Option<(String, String)> {
        let (klen, vlen) = (self.byte()?, self.byte()?);
        Some((self.text(usize::from(klen))?, self.text(usize::from(vlen))?))
    }

    /// An event entry after its tag, as a zero-duration child of `span`.
    fn event(&mut self, span: &PackedSpan) -> Option<SpanRecord> {
        let name_len = self.byte()?;
        let name = self.text(usize::from(name_len))?;
        let (span_id, stamp) = (self.u64()?, self.u64()?);
        let n = self.byte()?;
        let attrs = (0..n).map(|_| self.attr()).collect::<Option<Vec<_>>>()?;
        Some(SpanRecord {
            trace_id: span.trace_id,
            span_id,
            parent_span_id: span.span_id,
            name,
            start_ns: stamp,
            end_ns: stamp,
            attrs,
        })
    }
}

/// A span's record while the span is open, in its thread's stack.
#[derive(Clone, Copy)]
struct OpenRecord {
    rec: PackedSpan,
    /// The latest stamp in the record: its start, or its last event's.
    last_ns: u64,
    /// Cleared when the span closes; a record closed under a span still
    /// open above it waits there, dead, until that span closes too.
    live: bool,
}

/// One thread's open records, innermost last. The top record, if any, is
/// always live.
struct OpenStack {
    depth: usize,
    records: [OpenRecord; OPEN_DEPTH],
}

impl OpenStack {
    const EMPTY: Self = Self {
        depth: 0,
        records: [OpenRecord { rec: PackedSpan::EMPTY, last_ns: 0, live: false }; OPEN_DEPTH],
    };

    /// The innermost open record.
    fn top(&mut self) -> Option<&mut OpenRecord> {
        self.records.get_mut(self.depth.checked_sub(1)?)
    }

    /// Opens a record on top; `None` when the stack is full.
    fn push(
        &mut self,
        (trace_id, span_id, parent_span_id): (u128, u64, u64),
        name: &str,
        start_ns: u64,
        attrs: &[(&str, AttrValue<'_>)],
    ) -> Option<usize> {
        let at = self.depth;
        let open = self.records.get_mut(at)?;
        open.rec.open(trace_id, span_id, parent_span_id, name, start_ns);
        open.rec.push_attrs(attrs);
        open.last_ns = start_ns;
        open.live = true;
        self.depth += 1;
        Some(at)
    }

    /// Closes the record at `at` into the ring, then pops every dead record
    /// off the top. Returns the record's trace id.
    fn close(&mut self, at: usize, end_ns: u64) -> Option<u128> {
        let open = self.records.get_mut(at).filter(|open| open.live)?;
        open.live = false;
        open.rec.end_ns = end_ns;
        TraceBuffer::global().record_packed(&open.rec);
        let trace_id = open.rec.trace_id;
        while self.top().is_some_and(|top| !top.live) {
            self.depth -= 1;
        }
        Some(trace_id)
    }
}

thread_local! {
    static OPEN: RefCell<OpenStack> = const { RefCell::new(OpenStack::EMPTY) };
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
    /// Records whose claimed slot was contended.
    dropped: AtomicU64,
    /// Spans opened past a thread's `OPEN_DEPTH`, which never had a record.
    too_deep: AtomicU64,
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
            too_deep: AtomicU64::new(0),
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

    /// Records dropped: their slot was contended, or their span was opened
    /// deeper than a thread's stack of open records.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) + self.too_deep.load(Ordering::Relaxed)
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
    /// record. An occupied slot takes the header and the used arena bytes
    /// only.
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
            Ok(mut guard) => match guard.as_mut() {
                Some(slot) => slot.copy_used_from(rec),
                None => *guard = Some(*rec),
            },
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy of every live record, each span followed by the
    /// events that rode in it, sorted stably by `(start_ns, trace_id)`: ties
    /// keep record order, so an event stamped with its span's start still
    /// follows its span.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for slot in &self.slots {
            if let Ok(guard) = slot.try_read() {
                if let Some(rec) = guard.as_ref() {
                    rec.unpack_into(&mut out);
                }
            }
        }
        out.sort_by_key(|r| (r.start_ns, r.trace_id));
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
///
/// When its parent is the innermost span open on this thread, the event
/// rides in that span's record and reaches the ring when the span closes;
/// otherwise it is a record of its own.
pub fn trace_event(name: &str, attrs: &[(&str, AttrValue<'_>)]) {
    record_event(name, attrs, false);
}

/// [`trace_event`] for an event that follows the last stamp its span took
/// with nothing worth timing in between — the span's start, or the event
/// just before it: riding in the span, it takes that stamp and reads no
/// clock. Where it cannot ride in its span it reads the clock, as
/// [`trace_event`] does.
pub fn trace_event_at_last_stamp(name: &str, attrs: &[(&str, AttrValue<'_>)]) {
    record_event(name, attrs, true);
}

fn record_event(name: &str, attrs: &[(&str, AttrValue<'_>)], last_stamp: bool) {
    if !enabled() {
        return;
    }
    let Some((trace_id, parent)) =
        CURRENT.with(|c| c.borrow().as_ref().map(|ctx| (ctx.trace_id, ctx.span_id)))
    else {
        return;
    };
    let id = next_id();
    // Err: the event needs a record of its own, stamped already if it was.
    let rode = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let Some(top) = open.top().filter(|t| t.rec.trace_id == trace_id && t.rec.span_id == parent)
        else {
            return Err(None);
        };
        let stamp = if last_stamp { top.last_ns } else { fast_now_ns() };
        if !top.rec.push_event(id, name, stamp, attrs) {
            return Err(Some(stamp));
        }
        top.last_ns = stamp;
        Ok(())
    });
    if let Err(stamp) = rode {
        let mut p = PackedSpan::new(trace_id, id, parent, name, stamp.unwrap_or_else(fast_now_ns));
        p.push_attrs(attrs);
        TraceBuffer::global().record_packed(&p);
    }
}

/// A timed child span: derives a child of the installed context, installs
/// it for the guard's lifetime (so nested spans parent correctly), and
/// records into the flight recorder on drop, with the events that rode in
/// it. Opened with [`trace_span_timed`], it also observes its duration into
/// a histogram.
///
/// When no context is installed (or recording is off) the guard is inert —
/// callers do not need to branch. The guard stays on the thread that opened
/// it (`!Send`): its record is in that thread's stack of open records.
#[must_use = "a span records when the guard drops"]
pub struct TraceSpan<'h> {
    /// Index of this span's record in its thread's stack of open records;
    /// `None` when inert or opened past the stack's depth.
    open: Option<usize>,
    /// `(span_id, parent_span_id)` of the installed context before this span
    /// re-pointed it at itself; restored on drop. The full context never
    /// moves — a child span shares the trace id and baggage, so opening one
    /// only swings the two span ids in place.
    restore: Option<(u64, u64)>,
    /// The histogram this span times and its start stamp, which is the
    /// record's own when the span records.
    timed: Option<(&'h Histogram, u64)>,
    _thread: PhantomData<*const ()>,
}

impl std::fmt::Debug for TraceSpan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpan").field("active", &self.open.is_some()).finish()
    }
}

impl TraceSpan<'_> {
    /// Adds an attribute to the span (bounded; ignored on inert spans).
    pub fn attr<'a>(&mut self, key: &str, value: impl Into<AttrValue<'a>>) {
        if let Some(at) = self.open {
            let value = value.into();
            OPEN.with(|open| {
                if let Some(open) = open.borrow_mut().records.get_mut(at) {
                    open.rec.push_attr(key, value);
                }
            });
        }
    }

    /// Is this span actually recording?
    pub fn is_active(&self) -> bool {
        self.open.is_some()
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        // End time is taken before the parent span ids are restored, so a
        // span's duration never includes its own teardown.
        if self.open.is_some() || self.timed.is_some() {
            let end_ns = fast_now_ns();
            let trace_id = self.open.and_then(|at| OPEN.with(|o| o.borrow_mut().close(at, end_ns)));
            if let Some((hist, start_ns)) = self.timed {
                let elapsed = end_ns.saturating_sub(start_ns);
                match trace_id {
                    Some(trace_id) => hist.observe_traced(elapsed, trace_id),
                    None => hist.observe_linked(elapsed),
                }
            }
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
pub fn trace_span(name: &str) -> TraceSpan<'static> {
    open_span(name, &[], None)
}

/// [`trace_span`] with initial attributes.
pub fn trace_span_with(name: &str, attrs: &[(&str, AttrValue<'_>)]) -> TraceSpan<'static> {
    open_span(name, attrs, None)
}

/// [`trace_span_with`] that also observes its duration into `hist`, from
/// the span's own two stamps. The histogram is observed on every path:
/// from an inert span, and with recording off, too.
pub fn trace_span_timed<'h>(
    name: &str,
    attrs: &[(&str, AttrValue<'_>)],
    hist: &'h Histogram,
) -> TraceSpan<'h> {
    open_span(name, attrs, Some(hist))
}

fn open_span<'h>(
    name: &str,
    attrs: &[(&str, AttrValue<'_>)],
    hist: Option<&'h Histogram>,
) -> TraceSpan<'h> {
    // One TLS visit: mint the span id, read the ids and re-point the
    // installed context at the new span, so nested spans parent correctly.
    // Trace id and baggage are shared with the parent and stay where they
    // are.
    let ids = enabled()
        .then(|| {
            CURRENT.with(|c| {
                let mut cur = c.borrow_mut();
                let ctx = cur.as_mut()?;
                let prev = (ctx.span_id, ctx.parent_span_id);
                ctx.parent_span_id = ctx.span_id;
                ctx.span_id = next_id();
                Some((ctx.trace_id, ctx.span_id, prev))
            })
        })
        .flatten();
    let start_ns = if ids.is_some() || hist.is_some() { fast_now_ns() } else { 0 };
    let mut span = TraceSpan {
        open: None,
        restore: None,
        timed: hist.map(|hist| (hist, start_ns)),
        _thread: PhantomData,
    };
    if let Some((trace_id, span_id, prev)) = ids {
        span.restore = Some(prev);
        let ids = (trace_id, span_id, prev.0);
        span.open = OPEN.with(|o| o.borrow_mut().push(ids, name, start_ns, attrs));
        if span.open.is_none() {
            TraceBuffer::global().too_deep.fetch_add(1, Ordering::Relaxed);
        }
    }
    span
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

    /// Installs a fresh `ManualClock` reading `at` as the global clock until
    /// the returned guard drops.
    struct ClockSwap(Arc<dyn crate::Clock>);

    impl Drop for ClockSwap {
        fn drop(&mut self) {
            Registry::global().set_clock(self.0.clone());
        }
    }

    fn manual_clock(at: u64) -> (Arc<ManualClock>, ClockSwap) {
        let swap = ClockSwap(Registry::global().clock());
        let clock = Arc::new(ManualClock::new());
        clock.set(at);
        Registry::global().set_clock(clock.clone());
        (clock, swap)
    }

    fn named<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
        spans.iter().filter(|s| s.name == name).collect()
    }

    #[test]
    fn an_event_under_an_open_span_rides_in_it_and_keeps_its_id_and_stamp() {
        let _g = global_state_guard();
        let (clock, _swap) = manual_clock(1_000);
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        let span_id;
        {
            let _span = trace_span("outer");
            span_id = current().map(|c| c.span_id).unwrap_or(0);
            clock.advance(500);
            trace_event("sent", &[("bytes", 100u64.into())]);
            clock.advance(100);
            trace_event_at_last_stamp("after", &[]);
            // Both ride in the open record: nothing reaches the ring yet.
            assert!(TraceBuffer::global().spans_of(ctx.trace_id).is_empty());
            clock.advance(400);
        }
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "sent", "after"], "{spans:?}");
        let (outer, sent, after) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!((outer.span_id, outer.start_ns, outer.end_ns), (span_id, 1_000, 2_000));
        assert_eq!((sent.parent_span_id, sent.start_ns, sent.end_ns), (span_id, 1_500, 1_500));
        assert_eq!(sent.attrs, [("bytes".to_string(), "100".to_string())]);
        assert_eq!((after.parent_span_id, after.start_ns), (span_id, 1_500), "the last stamp");
        assert!(outer.attrs.is_empty());
        let ids = [outer.span_id, sent.span_id, after.span_id];
        assert!(ids.iter().all(|&id| id != 0) && ids[0] != ids[1] && ids[1] != ids[2]);
    }

    #[test]
    fn span_attrs_added_after_an_event_stay_the_spans() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        {
            let mut span = trace_span_with("attempt", &[("attempt", 0u32.into())]);
            trace_event_at_last_stamp("selection", &[("outcome", "cached".into())]);
            span.attr("proto", "shm");
        }
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let attrs = |s: &SpanRecord| {
            s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
        };
        let attrs: Vec<String> = spans.iter().map(attrs).collect();
        assert_eq!(attrs, ["attempt=0 proto=shm", "outcome=cached"]);
    }

    #[test]
    fn a_span_left_by_unwinding_still_brings_its_events_to_the_ring() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        let unwound = std::panic::catch_unwind(|| {
            let _span = trace_span("unwound");
            trace_event("before-the-panic", &[]);
            panic!("unwinding through an open span");
        });
        assert!(unwound.is_err());
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["unwound", "before-the-panic"]);
        assert_eq!(OPEN.with(|o| o.borrow().depth), 0);
    }

    #[test]
    fn events_that_overflow_the_arena_become_records_of_their_own() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        let value = "v".repeat(100);
        let span_id;
        {
            let _span = trace_span("full");
            span_id = current().map(|c| c.span_id).unwrap_or(0);
            for i in 0..20u32 {
                trace_event("ev", &[("i", i.into()), ("pad", value.as_str().into())]);
            }
            // About two events fit the arena; the rest went to the ring.
            assert!(TraceBuffer::global().spans_of(ctx.trace_id).len() >= 17);
        }
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let mut seen: Vec<String> = named(&spans, "ev")
            .iter()
            .inspect(|e| assert_eq!(e.parent_span_id, span_id))
            .map(|e| e.attrs[0].1.clone())
            .collect();
        seen.sort_by_key(|i| i.parse::<u32>().unwrap_or(u32::MAX));
        let want: Vec<String> = (0..20).map(|i| i.to_string()).collect();
        assert_eq!(seen, want, "every event once");
    }

    #[test]
    fn an_event_that_does_not_fit_leaves_the_arena_as_it_was() {
        let mut rec = PackedSpan::new(1, 2, 0, "span", 0);
        let value = "v".repeat(ATTR_VALUE_BUDGET);
        assert!(rec.push_event(3, "ev", 0, &[("pad", value.as_str().into())]));
        let len = rec.len;
        assert!(!rec.push_event(4, "ev", 0, &[("pad", value.as_str().into())]));
        assert_eq!(rec.len, len);
        let mut out = Vec::new();
        rec.unpack_into(&mut out);
        assert_eq!(out.iter().map(|r| r.span_id).collect::<Vec<_>>(), [2, 3]);
    }

    #[test]
    fn an_event_whose_parent_is_open_on_another_thread_stays_standalone() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        let span = trace_span("here");
        let under_span = current().expect("installed");
        std::thread::spawn(move || {
            // A span of the same trace is open on this thread, as on a mux
            // leader that records another caller's reply.
            let _own = install(under_span.clone());
            let _leader = trace_span("leader");
            let _there = install(under_span);
            trace_event("there", &[]);
        })
        .join()
        .expect("joined");
        // Recorded already, though its parent is still open.
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        assert_eq!(named(&spans, "there").len(), 1, "{spans:?}");
        let parent = named(&spans, "there")[0].parent_span_id;
        drop(span);
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        assert_eq!(named(&spans, "here")[0].span_id, parent);
        assert_eq!(named(&spans, "there").len(), 1);
    }

    #[test]
    fn spans_dropped_out_of_lifo_order_are_each_recorded_once() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        {
            let _scope = install(ctx.clone());
            let a = trace_span("a");
            let b = trace_span("b");
            drop(a);
            trace_event("under-b", &[]);
            drop(b);
        }
        {
            // The stack is empty again: a fresh span carries its event.
            let _scope = install(ctx.clone());
            let _c = trace_span("c");
            trace_event("under-c", &[]);
            assert_eq!(OPEN.with(|o| o.borrow().depth), 1);
        }
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        for name in ["a", "b", "c", "under-b", "under-c"] {
            assert_eq!(named(&spans, name).len(), 1, "{name}: {spans:?}");
        }
        let c = named(&spans, "c")[0].span_id;
        assert_eq!(named(&spans, "under-c")[0].parent_span_id, c);
        assert_eq!(OPEN.with(|o| o.borrow().depth), 0);
    }

    #[test]
    fn spans_past_the_stack_depth_are_counted_as_dropped() {
        let _g = global_state_guard();
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        let dropped = TraceBuffer::global().dropped();
        {
            let open: Vec<TraceSpan<'_>> = (0..OPEN_DEPTH).map(|_| trace_span("nested")).collect();
            assert!(open.iter().all(TraceSpan::is_active));
            let deep = trace_span("too-deep");
            assert!(!deep.is_active());
            trace_event("under-too-deep", &[]);
            drop(deep);
            // Dropped in reverse, as scopes would.
            open.into_iter().rev().for_each(drop);
        }
        assert_eq!(TraceBuffer::global().dropped(), dropped + 1);
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        assert_eq!(named(&spans, "nested").len(), OPEN_DEPTH);
        assert!(named(&spans, "too-deep").is_empty());
        assert_eq!(named(&spans, "under-too-deep").len(), 1, "an event is never dropped");
    }

    #[test]
    fn a_timed_span_observes_its_histogram_when_inert_and_when_recording_is_off() {
        let _g = global_state_guard();
        let (clock, _swap) = manual_clock(10_000);
        let hist = crate::Histogram::with_default_bounds();
        {
            // No context installed: inert, still timed.
            let span = trace_span_timed("inert", &[], &hist);
            assert!(!span.is_active());
            clock.advance(300);
        }
        assert_eq!((hist.count(), hist.sum()), (1, 300));

        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        set_enabled(false);
        {
            let _span = trace_span_timed("dark", &[], &hist);
            clock.advance(200);
        }
        set_enabled(true);
        assert_eq!((hist.count(), hist.sum()), (2, 500));
        assert!(TraceBuffer::global().spans_of(ctx.trace_id).is_empty());

        {
            let _span = trace_span_timed("lit", &[], &hist);
            clock.advance(700);
        }
        assert_eq!((hist.count(), hist.sum()), (3, 1_200));
        let spans = TraceBuffer::global().spans_of(ctx.trace_id);
        let lit = named(&spans, "lit")[0];
        assert_eq!(lit.end_ns - lit.start_ns, 700, "one pair of stamps for both");
        assert_eq!(hist.exemplar().map(|e| e.trace_id), Some(ctx.trace_id));
    }

    #[test]
    fn snapshot_text_prints_a_span_before_the_events_that_share_its_stamp() {
        let _g = global_state_guard();
        let (_clock, _swap) = manual_clock(7_000);
        let ctx = TraceContext::new_root();
        let _scope = install(ctx.clone());
        // Span ids are random: sixteen tries leave a 2^-16 chance that an
        // order by span id would pass.
        for _ in 0..16 {
            let _span = trace_span("attempt");
            trace_event_at_last_stamp("selection", &[("outcome", "cached".into())]);
        }
        let trace = format!("trace={:032x}", ctx.trace_id);
        let text = TraceBuffer::global().snapshot_text();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains(&trace)).collect();
        assert_eq!(lines.len(), 32, "{text}");
        for pair in lines.chunks(2) {
            let span = pair[0].split(' ').nth(1).and_then(|s| s.strip_prefix("span="));
            let parent = pair[1].split(' ').nth(2).and_then(|s| s.strip_prefix("parent="));
            assert!(pair[0].ends_with("start=7000 end=7000 attempt"), "{}", pair[0]);
            let event = "start=7000 end=7000 selection outcome=cached";
            assert!(pair[1].ends_with(event), "{}", pair[1]);
            assert_eq!(span, parent, "{pair:?}");
        }
    }
}
