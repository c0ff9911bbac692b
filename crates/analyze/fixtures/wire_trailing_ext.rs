//! The PR 7 compat hazard: a field written after the trailing extension,
//! which a legacy peer would swallow as extension payload. In `xdr_struct!`
//! a field after `as Extension<..>` does not compile, so again the finding
//! is the pair written by hand.

struct Extended {
    version: u32,
    extra: Bytes,
    checksum: u64,
}

impl XdrEncode for Extended { //~ wire-described
    fn encode(&self, w: &mut XdrWriter) {
        w.put_u32(self.version);
        w.put_trailing_extension(1, self.extra.len(), |w| w.put_fixed_opaque(&self.extra));
        w.put_u64(self.checksum);
    }
}

impl XdrDecode for Extended { //~ wire-described
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let version = r.get_u32()?;
        let extra = r.get_trailing_extension()?;
        let checksum = r.get_u64()?;
        Ok(Extended { version, extra, checksum })
    }
}
