//! A list of lists in two buffers.

use crate::{__private, decode_len, put_uvarint, Reader, Wire, WireError};
use bytes::BytesMut;
use std::cmp::Ordering;

/// Most items a length prefix reserves room for before they are read:
/// the cap [`Vec`]'s codec puts on a hostile prefix.
const RESERVE_CAP: usize = 4096;

/// Rows, each a head and a run of items: the value of a
/// `Vec<(H, Vec<T>)>`, and the same bytes on the wire, but held in two
/// buffers however many rows there are — the heads, each with the end
/// of its row's items, and every row's items back to back in row order.
///
/// A row is inserted, replaced, removed or kept by a splice on the
/// items buffer, so no change allocates while both buffers have room.
/// A row whose items must be computed against the container itself is
/// built in the *tail*, past the last row's items: [`Self::push`]
/// appends to it, [`Self::items_mut`] reaches it with every row, and
/// [`Self::insert_tail`] makes it a row. Every other change drops it,
/// and the codec and equality ignore it.
#[derive(Debug)]
pub struct Ragged<H, T> {
    /// Each row's head and the end of its items in `items`.
    heads: Vec<(H, usize)>,
    /// Every row's items in row order, then the tail.
    items: Vec<T>,
}

impl<H, T> Default for Ragged<H, T> {
    fn default() -> Self {
        Ragged {
            heads: Vec::new(),
            items: Vec::new(),
        }
    }
}

/// Rows and heads alike; the tail is not part of the value.
impl<H: PartialEq, T: PartialEq> PartialEq for Ragged<H, T> {
    fn eq(&self, other: &Self) -> bool {
        self.heads == other.heads && self.items() == other.items()
    }
}

impl<H: Eq, T: Eq> Eq for Ragged<H, T> {}

impl<H, T> Ragged<H, T> {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Drop every row and the tail, keeping both buffers.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.items.clear();
    }

    /// Where row `row`'s items start.
    fn start(&self, row: usize) -> usize {
        row.checked_sub(1).map_or(0, |before| self.heads[before].1)
    }

    /// Where the tail starts.
    fn tail_start(&self) -> usize {
        self.start(self.heads.len())
    }

    /// Row `row`'s head. Panics past the last row.
    pub fn head(&self, row: usize) -> &H {
        &self.heads[row].0
    }

    /// Row `row`'s items. Panics past the last row.
    pub fn row(&self, row: usize) -> &[T] {
        &self.items[self.start(row)..self.heads[row].1]
    }

    /// Every head, in row order.
    pub fn heads(&self) -> impl DoubleEndedIterator<Item = &H> + ExactSizeIterator + Clone {
        self.heads.iter().map(|(head, _)| head)
    }

    /// Every row, its head and its items, in row order.
    pub fn iter(&self) -> impl Iterator<Item = (&H, &[T])> {
        let mut start = 0;
        self.heads.iter().map(move |(head, end)| {
            let items = &self.items[start..*end];
            start = *end;
            (head, items)
        })
    }

    /// Every row's items back to back, in row order.
    pub fn items(&self) -> &[T] {
        &self.items[..self.tail_start()]
    }

    /// Every row's items back to back, in row order, then the tail's:
    /// to be rewritten in place.
    pub fn items_mut(&mut self) -> &mut [T] {
        &mut self.items
    }

    /// Binary search of the heads with `compare`, as
    /// [`slice::binary_search_by`]: the row found, or where one would
    /// go to keep the heads in that order.
    pub fn binary_search_by(
        &self,
        mut compare: impl FnMut(&H) -> Ordering,
    ) -> Result<usize, usize> {
        self.heads.binary_search_by(|(head, _)| compare(head))
    }

    /// Append `item` to the tail.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Make the tail row `at` under `head`, the rows from `at` on moving
    /// up one: the tail is rotated in front of their items. Panics if
    /// `at` is greater than [`Self::len`].
    pub fn insert_tail(&mut self, at: usize, head: H) {
        let start = self.start(at);
        let tail = self.items.len() - self.tail_start();
        self.items[start..].rotate_right(tail);
        self.heads.insert(at, (head, start));
        for (_, end) in &mut self.heads[at..] {
            *end += tail;
        }
    }

    /// Insert `items` as row `at` under `head`, the rows from `at` on
    /// moving up one. Drops the tail. Panics if `at` is greater than
    /// [`Self::len`].
    pub fn insert(&mut self, at: usize, head: H, items: impl IntoIterator<Item = T>) {
        self.items.truncate(self.tail_start());
        self.items.extend(items);
        self.insert_tail(at, head);
    }

    /// Make `items` row `at`'s items under `head`, in place of the ones
    /// it had: its old items go before the new ones are written, so
    /// the buffer never holds both. Drops the tail. Panics if there is
    /// no row `at`.
    pub fn replace(&mut self, at: usize, head: H, items: impl IntoIterator<Item = T>) {
        self.remove(at);
        self.insert(at, head, items);
    }

    /// Remove row `at`, the later rows moving down one. Drops the tail.
    /// Panics if there is no row `at`.
    pub fn remove(&mut self, at: usize) {
        self.items.truncate(self.tail_start());
        let (start, end) = (self.start(at), self.heads[at].1);
        self.items.drain(start..end);
        self.heads.remove(at);
        for (_, later) in &mut self.heads[at..] {
            *later -= end - start;
        }
    }

    /// Keep only the rows `keep` approves, in order, in one pass over
    /// each buffer. Drops the tail.
    pub fn retain(&mut self, mut keep: impl FnMut(&H, &[T]) -> bool) {
        let (mut start, mut kept) = (0, 0);
        let items = &mut self.items;
        self.heads.retain_mut(|(head, end)| {
            let row = start..*end;
            start = *end;
            if !keep(head, &items[row.clone()]) {
                return false;
            }
            for from in row {
                items.swap(kept, from);
                kept += 1;
            }
            *end = kept;
            true
        });
        items.truncate(kept);
    }
}

/// A clone holds no tail, and [`Clone::clone_from`] copies into the
/// two buffers held: no allocation while they have room.
impl<H: Clone, T: Clone> Clone for Ragged<H, T> {
    fn clone(&self) -> Self {
        Ragged {
            heads: self.heads.clone(),
            items: self.items().to_vec(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.heads.clone_from(&source.heads);
        self.items.clear();
        self.items.extend_from_slice(source.items());
    }
}

impl<H, T> __private::Sealed for Ragged<H, T> {}

/// The bytes of the `Vec<(H, Vec<T>)>` it holds: a row count, then per
/// row the head, an item count and the items.
impl<H: Wire, T: Wire> Wire for Ragged<H, T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.heads.len() as u64);
        for (head, items) in self.iter() {
            head.encode(buf);
            put_uvarint(buf, items.len() as u64);
            for item in items {
                item.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut value = Self::new();
        value.decode_into(buf)?;
        Ok(value)
    }

    /// Heads and items held are decoded into in place, the rest pushed;
    /// no length prefix reserves room for more than 4096 entries before
    /// they are read.
    fn decode_into(&mut self, buf: &mut Reader<'_>) -> Result<(), WireError> {
        let rows = decode_len(buf)?;
        self.heads.truncate(rows);
        self.heads
            .reserve((rows - self.heads.len()).min(RESERVE_CAP));
        let mut end = 0;
        for row in 0..rows {
            match self.heads.get_mut(row) {
                Some((head, _)) => head.decode_into(buf)?,
                None => self.heads.push((H::decode(buf)?, end)),
            }
            let len = decode_len(buf)?;
            let held = self.items.len().saturating_sub(end).min(len);
            for item in &mut self.items[end..end + held] {
                item.decode_into(buf)?;
            }
            if held < len {
                self.items.reserve((len - held).min(RESERVE_CAP));
                for _ in held..len {
                    self.items.push(T::decode(buf)?);
                }
            }
            end += len;
            self.heads[row].1 = end;
        }
        self.items.truncate(end);
        Ok(())
    }
}
