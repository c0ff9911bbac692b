//! From spans to per-layer segments.
//!
//! A timed unit's root span is cut at every layer boundary the interposers
//! stamped, in the order the stamps were taken, and the stretch after a
//! boundary is attributed to the code that boundary enters:
//!
//! ```text
//! root start ─ xdr.client_encode ─ orb.gp_pre ─ [orb.glue_pre ─ caps.client …] ─ orb.frame_pre
//!   ─ transport.client_send ─ transport.request_leg ─ orb.server_pre ─ runtime.queue_wait
//!   ─ orb.server_unglue [─ caps.server …] ─ xdr.server_decode ─ xdr.server_encode
//!   ─ orb.server_post [─ caps.server …] ─ transport.server_send ─ transport.reply_leg
//!   ─ orb.frame_post ─ [caps.client … ─ orb.glue_post] ─ orb.gp_post ─ xdr.client_decode ─ root end
//! ```
//!
//! The segments are differences of consecutive stamps, so they partition the
//! root span exactly. The process is pinned to one CPU, so whichever thread
//! stamped last is the one that was running; when a woken thread preempts
//! its waker (the server's reader running before the client's `send` has
//! returned), the stamps simply arrive in that order and the time goes where
//! it was spent. Allocations are attributed per thread: what a thread
//! allocated between two of its own consecutive stamps in a unit belongs to
//! the segment the first one opened.

use std::collections::BTreeMap;

use ledger::stats::median;

use crate::spans::{Name, Side, Span};

/// A segment of the request path: the per-layer metric it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Segment {
    XdrClientEncode,
    GpPre,
    GluePre,
    CapsClient,
    FramePre,
    ClientSend,
    RequestLeg,
    ServerPre,
    QueueWait,
    ServerUnglue,
    CapsServer,
    XdrServerDecode,
    XdrServerEncode,
    ServerPost,
    ServerSend,
    ReplyLeg,
    FramePost,
    GluePost,
    GpPost,
    XdrClientDecode,
}

impl Segment {
    /// Every segment, in path order.
    pub const ALL: [Segment; 20] = [
        Segment::XdrClientEncode,
        Segment::GpPre,
        Segment::GluePre,
        Segment::CapsClient,
        Segment::FramePre,
        Segment::ClientSend,
        Segment::RequestLeg,
        Segment::ServerPre,
        Segment::QueueWait,
        Segment::ServerUnglue,
        Segment::CapsServer,
        Segment::XdrServerDecode,
        Segment::XdrServerEncode,
        Segment::ServerPost,
        Segment::ServerSend,
        Segment::ReplyLeg,
        Segment::FramePost,
        Segment::GluePost,
        Segment::GpPost,
        Segment::XdrClientDecode,
    ];

    /// The two declared metrics the segment feeds: `<stem>_us`, `<stem>_allocs`.
    pub fn metric_names(self) -> (&'static str, &'static str) {
        macro_rules! stem {
            ($stem:literal) => {
                (concat!($stem, "_us"), concat!($stem, "_allocs"))
            };
        }
        match self {
            Segment::XdrClientEncode => stem!("xdr.client_encode"),
            Segment::GpPre => stem!("orb.gp_pre"),
            Segment::GluePre => stem!("orb.glue_pre"),
            Segment::CapsClient => stem!("caps.client"),
            Segment::FramePre => stem!("orb.frame_pre"),
            Segment::ClientSend => stem!("transport.client_send"),
            Segment::RequestLeg => stem!("transport.request_leg"),
            Segment::ServerPre => stem!("orb.server_pre"),
            Segment::QueueWait => stem!("runtime.queue_wait"),
            Segment::ServerUnglue => stem!("orb.server_unglue"),
            Segment::CapsServer => stem!("caps.server"),
            Segment::XdrServerDecode => stem!("xdr.server_decode"),
            Segment::XdrServerEncode => stem!("xdr.server_encode"),
            Segment::ServerPost => stem!("orb.server_post"),
            Segment::ServerSend => stem!("transport.server_send"),
            Segment::ReplyLeg => stem!("transport.reply_leg"),
            Segment::FramePost => stem!("orb.frame_post"),
            Segment::GluePost => stem!("orb.glue_post"),
            Segment::GpPost => stem!("orb.gp_post"),
            Segment::XdrClientDecode => stem!("xdr.client_decode"),
        }
    }
}

/// A stamp: at `at_ns`, on `thread`, the code of `enters` began. `cuts_time`
/// is false for a stamp that only bounds allocations (the call into a
/// blocking receive, the end of a submission or a task): the thread holding
/// it is about to sleep, and the time belongs to whoever stamps next.
struct Stamp {
    at_ns: u64,
    thread: u16,
    allocs: u64,
    enters: Segment,
    cuts_time: bool,
}

/// The stamps a span contributes: what its start enters and what its end
/// returns into.
fn stamps_of(span: &Span, glued: bool, out: &mut Vec<Stamp>) {
    use Segment::*;
    let side = span.attr.side();
    let reply = span.attr.is_reply();
    let around_cap = match (side, reply) {
        (Side::Client, false) => GluePre,
        (Side::Client, true) => GluePost,
        (Side::Server, false) => ServerUnglue,
        (Side::Server, true) => ServerPost,
    };
    // What the span's start and its end enter, and whether that cuts time;
    // None: no stamp.
    type Enters = Option<(Segment, bool)>;
    let (start, end): (Enters, Enters) = match span.name {
        // The root's end only closes the client thread's allocation count.
        Name::Root => (None, Some((XdrClientDecode, false))),
        Name::XdrClientEncode => (Some((XdrClientEncode, true)), Some((GpPre, true))),
        Name::GpInvoke if span.attr.is_oneway() => (None, Some((GpPost, true))),
        Name::GpInvoke => (None, Some((XdrClientDecode, true))),
        Name::XdrClientDecode => (None, None),
        Name::ProtoGlue => (Some((GluePre, true)), Some((GpPost, true))),
        Name::ProtoTransport => (
            Some((FramePre, true)),
            Some((if glued { GluePost } else { GpPost }, true)),
        ),
        Name::CapProcess | Name::CapUnprocess => {
            let caps = if side == Side::Client {
                CapsClient
            } else {
                CapsServer
            };
            (Some((caps, true)), Some((around_cap, true)))
        }
        Name::ConnSend => match side {
            Side::Client => (Some((ClientSend, true)), Some((RequestLeg, true))),
            Side::Server => (Some((ServerSend, true)), Some((ReplyLeg, true))),
        },
        Name::ConnRecv => match side {
            Side::Server => (Some((RequestLeg, false)), Some((ServerPre, true))),
            Side::Client => (Some((ReplyLeg, false)), Some((FramePost, true))),
        },
        Name::ExecSubmit => (Some((QueueWait, true)), Some((QueueWait, false))),
        Name::ExecRun => (Some((ServerUnglue, true)), Some((QueueWait, false))),
        Name::Dispatch => (Some((XdrServerDecode, true)), Some((ServerPost, true))),
        Name::XdrServerDecode => (None, Some((XdrServerEncode, true))),
        Name::XdrServerEncode => (None, None),
    };
    if let Some((enters, cuts_time)) = start {
        out.push(Stamp {
            at_ns: span.start_ns,
            thread: span.thread,
            allocs: span.allocs_start,
            enters,
            cuts_time,
        });
    }
    if let Some((enters, cuts_time)) = end {
        out.push(Stamp {
            at_ns: span.end_ns,
            thread: span.thread,
            allocs: span.allocs_end,
            enters,
            cuts_time,
        });
    }
}

/// One traced timed unit, attributed.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// When the root span opened, ns on the tracer's clock.
    pub start_ns: u64,
    /// Root span's length, ns.
    pub root_ns: u64,
    /// Time per segment, ns. Sums to `root_ns`.
    pub time_ns: BTreeMap<Segment, u64>,
    /// Allocations per segment.
    pub allocs: BTreeMap<Segment, u64>,
    /// Time and allocations inside each capability, by capability number.
    pub cap_time_ns: BTreeMap<u8, u64>,
    /// See `cap_time_ns`.
    pub cap_allocs: BTreeMap<u8, u64>,
    /// Capability `process`/`unprocess` calls.
    pub cap_calls: u64,
    /// Frames sent, either way, and their bytes.
    pub frames: u64,
    /// See `frames`.
    pub wire_bytes: u64,
    /// Request frame length (the last request sent), for the bare-RTT probes.
    pub request_frame: u32,
    /// Reply frame length.
    pub reply_frame: u32,
    /// Executor tasks run, their total length and allocations.
    pub tasks: u64,
    /// See `tasks`.
    pub run_ns: u64,
    /// See `tasks`.
    pub run_allocs: u64,
}

/// Attributes every complete unit in `spans`. `glued`: the workload has a
/// glue chain, so the transport proto-object returns into the glue one.
pub fn units(spans: &[Span], glued: bool) -> Vec<Unit> {
    let mut by_op: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(s);
    }
    by_op
        .values()
        .filter_map(|spans| unit(spans, glued))
        .collect()
}

fn unit(spans: &[&Span], glued: bool) -> Option<Unit> {
    let root = spans.iter().find(|s| s.name == Name::Root)?;
    let mut u = Unit {
        start_ns: root.start_ns,
        root_ns: root.end_ns - root.start_ns,
        ..Unit::default()
    };

    let mut stamps = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        stamps_of(s, glued, &mut stamps);
        match s.name {
            Name::CapProcess | Name::CapUnprocess => {
                u.cap_calls += 1;
                *u.cap_time_ns.entry(s.attr.cap_index()).or_default() += s.end_ns - s.start_ns;
                *u.cap_allocs.entry(s.attr.cap_index()).or_default() +=
                    s.allocs_end - s.allocs_start;
            }
            Name::ConnSend => {
                u.frames += 1;
                u.wire_bytes += s.bytes as u64;
                match s.attr.side() {
                    Side::Client => u.request_frame = s.bytes,
                    Side::Server => u.reply_frame = s.bytes,
                }
            }
            Name::ExecRun => {
                u.tasks += 1;
                u.run_ns += s.end_ns - s.start_ns;
                u.run_allocs += s.allocs_end - s.allocs_start;
            }
            _ => {}
        }
    }

    // Time: cut the root span at every time-cutting stamp inside it. The
    // sort is stable, so stamps taken at one instant keep their order.
    let mut cuts: Vec<&Stamp> = stamps
        .iter()
        .filter(|s| s.cuts_time && s.at_ns >= root.start_ns && s.at_ns <= root.end_ns)
        .collect();
    cuts.sort_by_key(|s| s.at_ns);
    let mut at = root.start_ns;
    let mut inside = Segment::XdrClientEncode;
    for cut in cuts {
        *u.time_ns.entry(inside).or_default() += cut.at_ns - at;
        (at, inside) = (cut.at_ns, cut.enters);
    }
    *u.time_ns.entry(inside).or_default() += root.end_ns - at;

    // Allocations: per thread, between consecutive stamps of this unit.
    stamps.sort_by_key(|s| (s.thread, s.at_ns));
    for pair in stamps.windows(2) {
        if pair[0].thread == pair[1].thread {
            *u.allocs.entry(pair[0].enters).or_default() +=
                pair[1].allocs.saturating_sub(pair[0].allocs);
        }
    }
    Some(u)
}

/// Median over units of `f`, as a float; 0 when there is no unit.
pub fn median_of(units: &[Unit], f: impl Fn(&Unit) -> u64) -> f64 {
    let values: Vec<f64> = units.iter().map(|u| f(u) as f64).collect();
    median(&values).unwrap_or(0.0)
}

/// The typical units: those whose root span lies between the first and the
/// third quartile of all root spans. Segment times are reported as means
/// over these, because means add up — the segments' means sum to the root
/// span's mean over the same units exactly — while the selection keeps out
/// the units a neighbour or a timer tick disturbed, as a median would.
pub fn typical(units: &[Unit]) -> Vec<&Unit> {
    let mut sorted: Vec<&Unit> = units.iter().collect();
    sorted.sort_by_key(|u| u.root_ns);
    let n = sorted.len();
    sorted[n / 4..(3 * n).div_ceil(4).max(n / 4 + 1).min(n)].to_vec()
}

/// Mean over `units` of `f`; 0 when there is no unit.
pub fn mean_of(units: &[&Unit], f: impl Fn(&Unit) -> u64) -> f64 {
    if units.is_empty() {
        return 0.0;
    }
    units.iter().map(|u| f(u) as f64).sum::<f64>() / units.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Attr, NONE};

    fn span(name: Name, attr: Attr, thread: u16, start: u64, end: u64, allocs: (u64, u64)) -> Span {
        Span {
            index: 0,
            name,
            attr,
            thread,
            op: 1,
            start_ns: start,
            end_ns: end,
            parent: NONE,
            bytes: 100,
            allocs_start: allocs.0,
            allocs_end: allocs.1,
        }
    }

    /// A plain two-way call in the textbook order: client 0, server reader
    /// 1, worker 2, client demux reader 3.
    fn plain_call() -> Vec<Span> {
        let c = Attr::on(Side::Client);
        let s = Attr::on(Side::Server);
        vec![
            span(Name::Root, c, 0, 1000, 2000, (10, 30)),
            span(Name::XdrClientEncode, c, 0, 1000, 1010, (10, 12)),
            span(Name::GpInvoke, c, 0, 1010, 1980, (12, 28)),
            span(Name::ProtoTransport, c, 0, 1050, 1950, (15, 27)),
            span(Name::ConnSend, c, 0, 1100, 1150, (18, 19)),
            span(Name::ConnRecv, s, 1, 500, 1300, (5, 6)),
            span(Name::ExecSubmit, s, 1, 1350, 1380, (8, 10)),
            span(Name::ExecRun, s, 2, 1400, 1800, (50, 60)),
            span(Name::Dispatch, s, 2, 1500, 1600, (53, 56)),
            span(Name::XdrServerDecode, s, 2, 1500, 1540, (53, 54)),
            span(Name::XdrServerEncode, s, 2, 1540, 1600, (54, 56)),
            span(Name::ConnSend, s, 2, 1700, 1750, (58, 59)),
            span(Name::ConnRecv, c, 3, 400, 1850, (70, 71)),
            span(Name::XdrClientDecode, c, 0, 1980, 2000, (28, 30)),
        ]
    }

    #[test]
    fn segments_partition_the_root_span_exactly() {
        let units = units(&plain_call(), false);
        assert_eq!(units.len(), 1);
        let u = &units[0];
        assert_eq!(u.root_ns, 1000);
        assert_eq!(u.time_ns.values().sum::<u64>(), 1000);
        let t = |s| u.time_ns.get(&s).copied().unwrap_or(0);
        assert_eq!(t(Segment::XdrClientEncode), 10);
        assert_eq!(t(Segment::GpPre), 40);
        assert_eq!(t(Segment::FramePre), 50);
        assert_eq!(t(Segment::ClientSend), 50);
        assert_eq!(t(Segment::RequestLeg), 150);
        assert_eq!(t(Segment::ServerPre), 50);
        assert_eq!(t(Segment::QueueWait), 50);
        assert_eq!(t(Segment::ServerUnglue), 100);
        assert_eq!(t(Segment::XdrServerDecode), 40);
        assert_eq!(t(Segment::XdrServerEncode), 60);
        assert_eq!(t(Segment::ServerPost), 100);
        assert_eq!(t(Segment::ServerSend), 50);
        assert_eq!(t(Segment::ReplyLeg), 100);
        assert_eq!(t(Segment::FramePost), 100);
        assert_eq!(t(Segment::GpPost), 30);
        assert_eq!(t(Segment::XdrClientDecode), 20);
        assert_eq!(
            t(Segment::CapsClient) + t(Segment::CapsServer) + t(Segment::GluePre),
            0
        );
        assert_eq!(
            (u.frames, u.wire_bytes, u.tasks, u.run_ns, u.run_allocs),
            (2, 200, 1, 400, 10)
        );
    }

    #[test]
    fn allocations_follow_the_thread_that_made_them() {
        let u = &units(&plain_call(), false)[0];
        let a = |s| u.allocs.get(&s).copied().unwrap_or(0);
        assert_eq!(a(Segment::XdrClientEncode), 2);
        assert_eq!(a(Segment::GpPre), 3); // 12 -> 15, encode end to proto start
        assert_eq!(a(Segment::FramePre), 3);
        assert_eq!(a(Segment::ClientSend), 1);
        // The reader's frame buffer is allocated inside its receive.
        assert_eq!(a(Segment::RequestLeg), 8 + 1); // client 19 -> 27, reader 5 -> 6
        assert_eq!(a(Segment::ServerPre), 2);
        assert_eq!(a(Segment::XdrServerDecode), 1);
        assert_eq!(a(Segment::XdrServerEncode), 2);
        assert_eq!(a(Segment::XdrClientDecode), 2);
        // Everything a thread allocated between its first and last stamp of
        // the unit is attributed somewhere.
        assert_eq!(
            u.allocs.values().sum::<u64>(),
            (30 - 10) + (10 - 5) + (60 - 50) + (71 - 70)
        );
    }

    #[test]
    fn a_preempting_reader_takes_the_time_it_ran() {
        // The server's reader wakes inside the client's send and stamps its
        // receive before the send returns.
        let mut spans = plain_call();
        spans[4] = span(
            Name::ConnSend,
            Attr::on(Side::Client),
            0,
            1100,
            1390,
            (18, 19),
        );
        let u = &units(&spans, false)[0];
        let t = |s| u.time_ns.get(&s).copied().unwrap_or(0);
        assert_eq!(u.time_ns.values().sum::<u64>(), 1000);
        assert_eq!(t(Segment::ClientSend), 200); // until the reader's stamp at 1300
        assert_eq!(t(Segment::ServerPre), 50);
        // The send's late return re-enters the request leg for 10 ns only.
        assert_eq!(t(Segment::QueueWait), 40);
        assert_eq!(t(Segment::RequestLeg), 10);
    }

    #[test]
    fn capabilities_are_carved_out_of_the_glue_around_them() {
        let c = Attr::on(Side::Client);
        let s = Attr::on(Side::Server);
        let mut spans = plain_call();
        spans.push(span(Name::ProtoGlue, c, 0, 1020, 1970, (13, 28)));
        spans.push(span(Name::CapProcess, c.cap(2), 0, 1030, 1040, (13, 14)));
        spans.push(span(Name::CapUnprocess, s.cap(2), 2, 1420, 1450, (51, 52)));
        spans.push(span(
            Name::CapProcess,
            s.reply(true).cap(2),
            2,
            1620,
            1660,
            (56, 57),
        ));
        spans.push(span(
            Name::CapUnprocess,
            c.reply(true).cap(2),
            0,
            1955,
            1965,
            (27, 28),
        ));
        let u = &units(&spans, true)[0];
        let t = |s| u.time_ns.get(&s).copied().unwrap_or(0);
        assert_eq!(u.time_ns.values().sum::<u64>(), 1000);
        assert_eq!(t(Segment::GpPre), 10);
        assert_eq!(t(Segment::GluePre), 10 + 10);
        assert_eq!(t(Segment::CapsClient), 10 + 10);
        assert_eq!(t(Segment::CapsServer), 30 + 40);
        assert_eq!(t(Segment::ServerUnglue), 20 + 50);
        assert_eq!(t(Segment::ServerPost), 20 + 40);
        assert_eq!(t(Segment::GluePost), 5 + 5);
        assert_eq!(t(Segment::GpPost), 10);
        assert_eq!(u.cap_calls, 4);
        assert_eq!(u.cap_time_ns.get(&2), Some(&90));
        assert_eq!(u.cap_allocs.get(&2), Some(&4));
    }

    #[test]
    fn typical_units_are_the_middle_half_and_their_means_add_up() {
        let units: Vec<Unit> = [40u64, 10, 30, 20, 1000, 50, 60, 70]
            .iter()
            .map(|&root| Unit {
                root_ns: root,
                time_ns: [
                    (Segment::GpPre, root / 2),
                    (Segment::GpPost, root - root / 2),
                ]
                .into(),
                ..Unit::default()
            })
            .collect();
        let middle = typical(&units);
        let roots: Vec<u64> = middle.iter().map(|u| u.root_ns).collect();
        assert_eq!(roots, vec![30, 40, 50, 60]);
        let seg = |s| mean_of(&middle, |u| u.time_ns.get(&s).copied().unwrap_or(0));
        assert_eq!(
            seg(Segment::GpPre) + seg(Segment::GpPost),
            mean_of(&middle, |u| u.root_ns)
        );
        assert_eq!(typical(&units[..1]).len(), 1);
        assert!(typical(&[]).is_empty());
    }

    #[test]
    fn a_unit_without_its_root_is_left_out() {
        let spans: Vec<Span> = plain_call().into_iter().skip(1).collect();
        assert!(units(&spans, false).is_empty());
        assert_eq!(median_of(&[], |u| u.root_ns), 0.0);
    }
}
