//! The classic silent-corruption codec bug: encode writes `name` then
//! `payload`, decode reads them in the opposite order. `xdr_struct!` cannot
//! express it (one field list, both directions), so the finding is the
//! hand-written pair itself, whatever its bodies do.

struct SwappedMeta {
    name: String,
    payload: Bytes,
}

impl XdrEncode for SwappedMeta { //~ wire-described
    fn encode(&self, w: &mut XdrWriter) {
        w.put_string(&self.name);
        w.put_opaque(&self.payload);
    }
}

impl XdrDecode for SwappedMeta { //~ wire-described
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let payload = r.get_opaque()?;
        let name = r.get_string()?;
        Ok(SwappedMeta { name, payload })
    }
}
