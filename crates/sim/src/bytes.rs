//! Shared, cheaply sliceable byte buffers: the payload currency of the
//! data path.
//!
//! A simulated media session moves the same bytes through many hands —
//! application encode, TCP send buffer, segmentize, retransmit, receive
//! reassembly, depacketize. Carrying `Vec<u8>` forces a heap copy at
//! every hand-off; [`PayloadBytes`] instead carries an `Arc<[u8]>` plus
//! an `(offset, len)` window, so cloning and slicing are pointer
//! arithmetic and a retransmission re-uses the very allocation the
//! application handed in. [`ByteRope`] chains such windows into the
//! byte-offset-indexed buffer TCP needs.
//!
//! The representation is invisible on the wire: segment sizes, timing,
//! and delivered bytes are identical to the `Vec`-backed implementation,
//! which is what keeps campaign dumps bit-identical across the refactor.

use std::collections::VecDeque;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// A cheaply clonable, cheaply sliceable view into shared immutable bytes.
///
/// `clone` bumps a refcount; [`PayloadBytes::slice`] narrows the window
/// without touching the backing allocation. Equality is by content, so
/// segments carrying these compare like the `Vec<u8>` they replaced.
#[derive(Clone)]
pub struct PayloadBytes {
    buf: Arc<[u8]>,
    off: u32,
    len: u32,
}

fn empty_backing() -> &'static Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..]))
}

impl PayloadBytes {
    /// The empty payload. Allocation-free: every empty segment (SYNs,
    /// pure ACKs, FINs, RSTs) shares one static backing.
    pub fn empty() -> Self {
        PayloadBytes {
            buf: Arc::clone(empty_backing()),
            off: 0,
            len: 0,
        }
    }

    /// Takes ownership of `vec` as shared bytes. This is the one copy a
    /// payload pays on its way into the shared representation
    /// (`Arc<[u8]>` cannot adopt a `Vec`'s allocation); every clone,
    /// slice, and retransmission afterwards is copy-free.
    pub fn from_vec(vec: Vec<u8>) -> Self {
        if vec.is_empty() {
            return PayloadBytes::empty();
        }
        let len = u32::try_from(vec.len()).expect("payload exceeds u32::MAX bytes");
        PayloadBytes {
            buf: Arc::from(vec),
            off: 0,
            len,
        }
    }

    /// Copies `bytes` into a fresh shared backing.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return PayloadBytes::empty();
        }
        let len = u32::try_from(bytes.len()).expect("payload exceeds u32::MAX bytes");
        PayloadBytes {
            buf: Arc::from(bytes),
            off: 0,
            len,
        }
    }

    /// Window length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-window of this payload, sharing the same backing allocation
    /// (never copies; see [`PayloadBytes::same_backing`]).
    ///
    /// # Panics
    /// When the range falls outside `0..len`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of bounds for payload of {} bytes",
            self.len()
        );
        PayloadBytes {
            buf: Arc::clone(&self.buf),
            off: self.off + start as u32,
            len: (end - start) as u32,
        }
    }

    /// `true` when both views share one backing allocation — the
    /// observable fact behind the zero-copy guarantee, testable without
    /// exposing the `Arc` itself.
    pub fn same_backing(&self, other: &PayloadBytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Deref for PayloadBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.off as usize..(self.off + self.len) as usize]
    }
}

impl AsRef<[u8]> for PayloadBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for PayloadBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Payloads are bulk data; print shape, not contents.
        write!(f, "PayloadBytes({} bytes)", self.len)
    }
}

impl Default for PayloadBytes {
    fn default() -> Self {
        PayloadBytes::empty()
    }
}

impl From<Vec<u8>> for PayloadBytes {
    fn from(vec: Vec<u8>) -> Self {
        PayloadBytes::from_vec(vec)
    }
}

impl From<&[u8]> for PayloadBytes {
    fn from(bytes: &[u8]) -> Self {
        PayloadBytes::copy_from_slice(bytes)
    }
}

impl<const N: usize> From<&[u8; N]> for PayloadBytes {
    fn from(bytes: &[u8; N]) -> Self {
        PayloadBytes::copy_from_slice(bytes)
    }
}

impl PartialEq for PayloadBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PayloadBytes {}

impl PartialEq<[u8]> for PayloadBytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u8]> for PayloadBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u8>> for PayloadBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PayloadBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == other[..]
    }
}

/// A recycling allocator for [`PayloadBytes`] backings.
///
/// The data path's one unavoidable copy ([`PayloadBytes::copy_from_slice`]
/// on the way into the shared representation) is also its one unavoidable
/// *allocation* — and on a server pumping media every ~20 ms, those add up
/// to thousands per session. The pool removes them: it keeps a small set
/// of fixed-capacity `Arc<[u8]>` backings and copies new payloads into
/// whichever one has no outstanding windows (`Arc` strong count of one —
/// checked via [`Arc::get_mut`], so reuse is possible exactly when no
/// other view of the bytes can exist). Once the working set is warm,
/// [`PayloadPool::copy_in`] allocates nothing.
///
/// Windows handed out are byte-for-byte identical to fresh allocations
/// (length-exact, contents fully overwritten), so pooling is invisible to
/// everything but the allocator.
#[derive(Debug)]
pub struct PayloadPool {
    chunks: Vec<Arc<[u8]>>,
    chunk_capacity: usize,
    /// Rotating scan start. Windows release in roughly FIFO order (ACKed
    /// TCP data, delivered UDP datagrams), so the chunk freed longest ago
    /// sits just past the one most recently claimed; starting the scan
    /// there makes reuse O(1) amortized instead of rescanning the pinned
    /// prefix on every call.
    cursor: usize,
}

/// Default backing capacity: comfortably above one pacing pump's staged
/// bytes at the highest simulated media rates.
const DEFAULT_POOL_CHUNK: usize = 16 * 1024;

/// [`PayloadPool::new`], so a struct holding a pool can derive `Default`
/// (a derived impl here would set a zero chunk capacity, which pools
/// nothing).
impl Default for PayloadPool {
    fn default() -> Self {
        Self::new()
    }
}

impl PayloadPool {
    /// A pool with the default chunk capacity.
    pub fn new() -> Self {
        Self::with_chunk_capacity(DEFAULT_POOL_CHUNK)
    }

    /// A pool whose recycled backings hold up to `capacity` bytes.
    /// Payloads larger than that fall back to a fresh exact allocation.
    pub fn with_chunk_capacity(capacity: usize) -> Self {
        PayloadPool {
            chunks: Vec::new(),
            chunk_capacity: capacity.max(1),
            cursor: 0,
        }
    }

    /// Copies `bytes` into a recycled backing when one is free, a fresh
    /// one otherwise. The returned window is indistinguishable from
    /// [`PayloadBytes::copy_from_slice`].
    pub fn copy_in(&mut self, bytes: &[u8]) -> PayloadBytes {
        if bytes.is_empty() {
            return PayloadBytes::empty();
        }
        let len = u32::try_from(bytes.len()).expect("payload exceeds u32::MAX bytes");
        if bytes.len() > self.chunk_capacity {
            return PayloadBytes::copy_from_slice(bytes);
        }
        let n = self.chunks.len();
        for probe in 0..n {
            let i = (self.cursor + probe) % n;
            // Strong count 1 ⇔ every window into this backing is gone.
            if let Some(buf) = Arc::get_mut(&mut self.chunks[i]) {
                buf[..bytes.len()].copy_from_slice(bytes);
                self.cursor = i + 1;
                return PayloadBytes {
                    buf: Arc::clone(&self.chunks[i]),
                    off: 0,
                    len,
                };
            }
        }
        // Every backing still has live windows: grow the working set.
        let mut fresh = vec![0u8; self.chunk_capacity];
        fresh[..bytes.len()].copy_from_slice(bytes);
        let arc: Arc<[u8]> = Arc::from(fresh);
        self.chunks.push(Arc::clone(&arc));
        self.cursor = 0;
        PayloadBytes {
            buf: arc,
            off: 0,
            len,
        }
    }

    /// Number of backings the pool currently owns (instrumentation/tests).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

/// A byte-offset-indexed chain of [`PayloadBytes`] chunks: the TCP
/// send/receive buffer representation.
///
/// Pushing takes ownership of a chunk without copying. [`ByteRope::slice`]
/// returns a zero-copy sub-window when the requested range lies within
/// one chunk (the common case: the server flushes one chunk per pacing
/// tick, far larger than an MSS) and pays one bounded gather copy when it
/// spans chunks — segment sizes are dictated by MSS/window arithmetic and
/// must not bend to chunk geometry, or the wire trace would change.
#[derive(Debug, Default)]
pub struct ByteRope {
    chunks: VecDeque<PayloadBytes>,
    len: usize,
}

impl ByteRope {
    /// An empty rope.
    pub fn new() -> Self {
        ByteRope::default()
    }

    /// Total buffered bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all buffered bytes.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Appends a chunk, taking ownership (no copy).
    pub fn push(&mut self, chunk: PayloadBytes) {
        if chunk.is_empty() {
            return;
        }
        self.len += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Appends by copying `bytes` into one fresh chunk.
    pub fn push_slice(&mut self, bytes: &[u8]) {
        self.push(PayloadBytes::copy_from_slice(bytes));
    }

    /// The bytes at `off..off + len` as one payload. Zero-copy when the
    /// range lies within a single chunk; otherwise gathers into a fresh
    /// allocation.
    ///
    /// # Panics
    /// When `off + len` exceeds the buffered length.
    pub fn slice(&self, off: usize, len: usize) -> PayloadBytes {
        assert!(
            off + len <= self.len,
            "slice {off}+{len} out of bounds for rope of {} bytes",
            self.len
        );
        if len == 0 {
            return PayloadBytes::empty();
        }
        let mut start = off;
        let mut iter = self.chunks.iter();
        // Skip chunks wholly before the window.
        let first = loop {
            let chunk = iter.next().expect("offset within rope");
            if start < chunk.len() {
                break chunk;
            }
            start -= chunk.len();
        };
        if start + len <= first.len() {
            return first.slice(start..start + len);
        }
        // Spanning slice: gather. Bounded by the caller's request (an MSS
        // on the TCP transmit path), not by the rope size.
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&first[start..]);
        while out.len() < len {
            let chunk = iter.next().expect("length within rope");
            let take = (len - out.len()).min(chunk.len());
            out.extend_from_slice(&chunk[..take]);
        }
        PayloadBytes::from_vec(out)
    }

    /// Drops the first `n` bytes (acknowledged data leaving a send
    /// buffer). Whole chunks are released; a straddled chunk is narrowed
    /// in place via a zero-copy sub-slice.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance {n} past rope of {} bytes", self.len);
        let mut left = n;
        while left > 0 {
            let head = self.chunks.front_mut().expect("bytes remain");
            if left >= head.len() {
                left -= head.len();
                self.chunks.pop_front();
            } else {
                *head = head.slice(left..);
                left = 0;
            }
        }
        self.len -= n;
    }

    /// Reads and consumes up to `max` bytes from the front, handing each
    /// contiguous chunk to `sink` without copying. Returns bytes consumed.
    pub fn read_with(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> usize {
        let mut read = 0;
        while read < max {
            let Some(head) = self.chunks.front_mut() else {
                break;
            };
            let take = (max - read).min(head.len());
            sink(&head[..take]);
            if take == head.len() {
                self.chunks.pop_front();
            } else {
                *head = head.slice(take..);
            }
            read += take;
        }
        self.len -= read;
        read
    }

    /// Number of chunks currently chained (instrumentation/tests).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payloads_share_one_backing() {
        let a = PayloadBytes::empty();
        let b = PayloadBytes::empty();
        assert!(a.same_backing(&b));
        assert_eq!(a.len(), 0);
        assert!(a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn from_vec_round_trips_contents() {
        let p = PayloadBytes::from_vec(vec![1, 2, 3, 4]);
        assert_eq!(&*p, &[1, 2, 3, 4]);
        assert_eq!(p.len(), 4);
        assert_eq!(p, vec![1, 2, 3, 4]);
        assert_eq!(p, [1u8, 2, 3, 4]);
        assert_eq!(p, &[1u8, 2, 3, 4][..]);
    }

    #[test]
    fn slice_never_copies() {
        let p = PayloadBytes::from_vec((0..100).collect());
        let s = p.slice(10..60);
        assert!(s.same_backing(&p), "slice must share the backing Arc");
        assert_eq!(s.len(), 50);
        assert_eq!(s[0], 10);
        let s2 = s.slice(5..);
        assert!(s2.same_backing(&p), "slice of slice still shares");
        assert_eq!(s2[0], 15);
        let c = s2.clone();
        assert!(c.same_backing(&p), "clone shares too");
    }

    #[test]
    fn equality_is_by_content_not_backing() {
        let a = PayloadBytes::from_vec(vec![7, 8, 9]);
        let b = PayloadBytes::copy_from_slice(&[7, 8, 9]);
        assert!(!a.same_backing(&b));
        assert_eq!(a, b);
        assert_ne!(a, PayloadBytes::from_vec(vec![7, 8]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        PayloadBytes::from_vec(vec![1, 2]).slice(0..3);
    }

    #[test]
    fn rope_tracks_length_across_push_and_advance() {
        let mut r = ByteRope::new();
        assert!(r.is_empty());
        r.push_slice(&[1, 2, 3]);
        r.push(PayloadBytes::from_vec(vec![4, 5]));
        r.push(PayloadBytes::empty()); // no-op
        assert_eq!(r.len(), 5);
        assert_eq!(r.chunk_count(), 2);
        r.advance(4);
        assert_eq!(r.len(), 1);
        assert_eq!(r.slice(0, 1), [5u8]);
        r.advance(1);
        assert!(r.is_empty());
        assert_eq!(r.chunk_count(), 0);
    }

    #[test]
    fn rope_slice_within_chunk_is_zero_copy() {
        let mut r = ByteRope::new();
        let chunk = PayloadBytes::from_vec((0..50).collect());
        r.push_slice(&[99; 10]);
        r.push(chunk.clone());
        let s = r.slice(15, 20);
        assert!(s.same_backing(&chunk), "within-chunk slice shares backing");
        assert_eq!(&*s, &(5..25).collect::<Vec<u8>>()[..]);
    }

    #[test]
    fn rope_slice_spanning_chunks_gathers_correctly() {
        let mut r = ByteRope::new();
        r.push_slice(&[0, 1, 2]);
        r.push_slice(&[3, 4]);
        r.push_slice(&[5, 6, 7, 8]);
        let s = r.slice(1, 6);
        assert_eq!(&*s, &[1, 2, 3, 4, 5, 6]);
        // Whole-rope slice too.
        assert_eq!(&*r.slice(0, 9), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn rope_advance_narrows_straddled_chunk_zero_copy() {
        let mut r = ByteRope::new();
        let chunk = PayloadBytes::from_vec((0..10).collect());
        r.push(chunk.clone());
        r.advance(4);
        let s = r.slice(0, 6);
        assert!(s.same_backing(&chunk));
        assert_eq!(&*s, &[4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn rope_read_with_consumes_in_order() {
        let mut r = ByteRope::new();
        r.push_slice(&[1, 2, 3]);
        r.push_slice(&[4, 5]);
        let mut got = Vec::new();
        let n = r.read_with(4, &mut |c| got.extend_from_slice(c));
        assert_eq!(n, 4);
        assert_eq!(got, vec![1, 2, 3, 4]);
        assert_eq!(r.len(), 1);
        got.clear();
        assert_eq!(
            r.read_with(usize::MAX, &mut |c| got.extend_from_slice(c)),
            1
        );
        assert_eq!(got, vec![5]);
        assert_eq!(r.read_with(10, &mut |_| panic!("empty rope")), 0);
    }

    #[test]
    fn pool_recycles_backing_once_windows_drop() {
        let mut pool = PayloadPool::with_chunk_capacity(64);
        let a = pool.copy_in(&[1, 2, 3]);
        assert_eq!(a, [1u8, 2, 3]);
        assert_eq!(pool.chunk_count(), 1);
        // `a` still alive: a second copy_in must not clobber it.
        let b = pool.copy_in(&[9, 9]);
        assert!(!a.same_backing(&b));
        assert_eq!(pool.chunk_count(), 2);
        assert_eq!(a, [1u8, 2, 3]);
        drop(a);
        drop(b);
        // Both backings free again: no growth, contents exact.
        let c = pool.copy_in(&[7; 64]);
        assert_eq!(pool.chunk_count(), 2);
        assert_eq!(c, [7u8; 64]);
        // Slices keep the backing pinned too.
        let s = c.slice(1..5);
        drop(c);
        let d = pool.copy_in(&[8]);
        assert!(!s.same_backing(&d), "live slice must pin its backing");
        assert_eq!(s, [7u8, 7, 7, 7]);
    }

    #[test]
    fn pool_oversize_payloads_fall_back_to_exact_alloc() {
        let mut pool = PayloadPool::with_chunk_capacity(4);
        let big = pool.copy_in(&[5; 100]);
        assert_eq!(big.len(), 100);
        assert_eq!(big, [5u8; 100]);
        assert_eq!(pool.chunk_count(), 0, "oversize payloads are not pooled");
        assert!(pool.copy_in(&[]).is_empty());
    }

    #[test]
    fn rope_clear_resets() {
        let mut r = ByteRope::new();
        r.push_slice(&[1, 2, 3]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.chunk_count(), 0);
    }
}
