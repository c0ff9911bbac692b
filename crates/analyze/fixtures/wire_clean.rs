//! Negative fixture: the healthy wire vocabulary — a newtype, a bounded array
//! of records, a tagged union and a trailing extension, each declared once
//! through the `ohpc-xdr` macros. The analyzer must stay silent.

xdr_struct! {
    struct ItemId(pub u64);
}

xdr_struct! {
    struct Item {
        id: ItemId,
        label: String,
    }
}

xdr_union! {
    enum Frame {
        0 => Ping(u64),
        1 => Data { items: Vec<Item> as Array<16> },
    }
}

xdr_struct! {
    struct Summary {
        count: u64,
        bytes: u64,
    }
}

xdr_struct! {
    struct Envelope {
        frame: Frame,
        body: Bytes as FrameView,
        summary: Option<Summary> as Extension<1, Summary>,
    }
}

/// Naming the codec traits in bounds is not implementing them.
impl<T: XdrEncode> std::fmt::Debug for Sized<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} B", self.0.encoded_len())
    }
}
