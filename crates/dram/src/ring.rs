/// A fixed-capacity ring that overwrites its oldest record when full and
/// counts what it overwrote, so a long run keeps the trailing window: the
/// device's command trace and, in `easydram`, each lane's event ring. All
/// storage is reserved at construction; `push` never allocates, so it is
/// legal inside the serve loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRing<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl<T: Copy> TraceRing<T> {
    /// A ring holding at most `capacity` records (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Records `rec`, overwriting the oldest record when full.
    pub fn push(&mut self, rec: T) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            // `head < cap`, so the wrap is one compare, not a division on
            // every traced request.
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// The number of records held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends every held record to `out`, oldest first, and empties the
    /// ring. Returns how many records were overwritten since the last
    /// drain and resets that count. Allocates in `out`: drain time only.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> u64 {
        out.reserve(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        std::mem::take(&mut self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::TraceRing;

    #[test]
    fn overwrites_oldest_and_drains_in_order() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u32 {
            ring.push(i);
        }
        assert_eq!(
            (ring.len(), ring.is_empty()),
            (3, false),
            "full at capacity"
        );
        let mut out = vec![99];
        assert_eq!(ring.drain_into(&mut out), 2);
        assert_eq!(
            (ring.len(), ring.is_empty()),
            (0, true),
            "a drain empties it"
        );
        assert_eq!(out, [99, 2, 3, 4], "appended oldest first after a wrap");
        ring.push(5);
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out), 0, "a drain resets the count");
        assert_eq!(out, [5]);
        let mut one = TraceRing::new(0);
        one.push(1);
        one.push(2);
        let mut out = Vec::new();
        assert_eq!(one.drain_into(&mut out), 1, "capacity 0 holds one record");
        assert_eq!(out, [2]);
    }
}
