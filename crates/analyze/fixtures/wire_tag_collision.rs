//! The PR 8 hazard shape: two union arms claiming the same wire tag, and a
//! tag dispatch with no unknown-tag arm. In `xdr_union!` the first does not
//! compile (E0081) and the arm is always generated; what is left to find is
//! a union written by hand.

enum ProtoFrame {
    Text(String),
    Counter(u64),
}

impl XdrEncode for ProtoFrame { //~ wire-described
    fn encode(&self, w: &mut XdrWriter) {
        match self {
            ProtoFrame::Text(s) => {
                w.put_u32(3);
                w.put_string(s);
            }
            ProtoFrame::Counter(x) => {
                w.put_u32(3);
                w.put_u64(*x);
            }
        }
    }
}

impl XdrDecode for ProtoFrame { //~ wire-described
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        match r.get_u32()? {
            3 => Ok(ProtoFrame::Text(r.get_string()?)),
            3 => Ok(ProtoFrame::Counter(r.get_u64()?)),
        }
    }
}
