//! A short list held in place.

use std::fmt;
use std::ops::Deref;

/// A list of up to `N` elements held in place, and of any length beyond in
/// a `Vec` it spills to: a list that is short in practice — a glue
/// section's hops, a capability metadata blob's entries — allocates nothing
/// of its own. Slots past the length hold `T::default()`, which is how it
/// stays in safe code; a cheap default (an empty `Bytes`) keeps it cheap.
///
/// It reads as the slice of its elements, compares and prints as one, and
/// travels as an [`Array`](crate::Array) does.
#[derive(Clone)]
pub struct InlineList<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: usize, slots: [T; N] },
    Spilled(Vec<T>),
}

impl<T: Default, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        Self(Repr::Inline { len: 0, slots: std::array::from_fn(|_| T::default()) })
    }
}

impl<T: Default, const N: usize> InlineList<T, N> {
    /// An empty list with room for `cap` elements: in place up to `N`,
    /// reserved in one `Vec` beyond.
    pub fn with_capacity(cap: usize) -> Self {
        if cap <= N {
            Self::default()
        } else {
            Self(Repr::Spilled(Vec::with_capacity(cap)))
        }
    }

    /// Appends `item`; the `N + 1`st moves the list to a `Vec`.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, slots } => match slots.get_mut(*len) {
                Some(slot) => {
                    *slot = item;
                    *len += 1;
                }
                None => {
                    let mut all = Vec::with_capacity(N * 2);
                    all.extend(slots.iter_mut().map(std::mem::take));
                    all.push(item);
                    self.0 = Repr::Spilled(all);
                }
            },
            Repr::Spilled(all) => all.push(item),
        }
    }
}

impl<T, const N: usize> InlineList<T, N> {
    /// The elements, in order.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, slots } => slots.get(..*len).unwrap_or_default(),
            Repr::Spilled(all) => all,
        }
    }

    /// Whether the list outgrew its `N` slots.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }
}

impl<T, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineList<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Adopts the vector as the list's spilled storage, whatever its length.
impl<T, const N: usize> From<Vec<T>> for InlineList<T, N> {
    fn from(all: Vec<T>) -> Self {
        Self(Repr::Spilled(all))
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::default();
        iter.into_iter().for_each(|item| list.push(item));
        list
    }
}

#[cfg(test)]
mod tests {
    use super::InlineList;

    #[test]
    fn the_n_plus_first_push_spills_keeping_order() {
        let mut list = InlineList::<String, 2>::default();
        assert!(list.is_empty() && !list.spilled());
        list.push("a".into());
        list.push("b".into());
        assert_eq!((&list[..], list.spilled()), (&["a".to_string(), "b".into()][..], false));
        list.push("c".into());
        assert!(list.spilled());
        assert_eq!(list.iter().map(String::as_str).collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(format!("{list:?}"), r#"["a", "b", "c"]"#);
    }

    #[test]
    fn lists_compare_by_their_elements_not_where_they_are_held() {
        let inline: InlineList<u32, 4> = (1..=3).collect();
        let spilled = InlineList::from(vec![1, 2, 3]);
        assert!(!inline.spilled() && spilled.spilled());
        assert_eq!(inline, spilled);
        assert_ne!(inline, InlineList::from(vec![1, 2]));
        assert!(!InlineList::<u32, 4>::with_capacity(4).spilled());
        assert!(InlineList::<u32, 4>::with_capacity(5).spilled());
    }
}
