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
    /// slice, and retransmission afterwards is copy-free. `vec` is under
    /// 4 GiB (the precondition of `window_len`).
    pub fn from_vec(vec: Vec<u8>) -> Self {
        if vec.is_empty() {
            return PayloadBytes::empty();
        }
        let len = window_len(vec.len());
        PayloadBytes {
            buf: Arc::from(vec),
            off: 0,
            len,
        }
    }

    /// Copies `bytes` into a fresh shared backing. `bytes` is under
    /// 4 GiB (the precondition of `window_len`).
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return PayloadBytes::empty();
        }
        let len = window_len(bytes.len());
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

/// The size classes, derived here and nowhere else: class `c` holds
/// backings of `1 << (POOL_MIN_SHIFT + c)` bytes.
const POOL_MIN_SHIFT: u32 = 9;
const POOL_MAX_SHIFT: u32 = 16;
const POOL_CLASSES: usize = (POOL_MAX_SHIFT - POOL_MIN_SHIFT + 1) as usize;

/// The class whose backings hold `len` bytes, for `len` in
/// `1..=MAX_POOLED`; of a backing's own length, the class it belongs to.
fn pool_class(len: usize) -> usize {
    let shift = len.next_power_of_two().trailing_zeros();
    (shift.max(POOL_MIN_SHIFT) - POOL_MIN_SHIFT) as usize
}

/// A window's length as the `u32` that keeps a payload 24 bytes.
/// Precondition, infallible because every payload the simulator makes is
/// bounded four orders of magnitude below 4 GiB (none outgrows a 256 KiB
/// send buffer): a longer one is a caller bug, refused here.
fn window_len(len: usize) -> u32 {
    assert!(
        len <= u32::MAX as usize,
        "payload of {len} bytes exceeds u32::MAX"
    );
    len as u32
}

/// A zeroed backing in one allocation (`Arc<[u8]>` collects an
/// exact-size iterator straight into its own block; `Arc::from(Vec)`
/// would allocate twice).
fn zeroed_backing(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, len).collect()
}

/// A recycling allocator for [`PayloadBytes`] backings.
///
/// The data path's one unavoidable copy ([`PayloadBytes::copy_from_slice`]
/// on the way into the shared representation) is also its one unavoidable
/// *allocation* — and on a server pumping media every ~20 ms, those add up
/// to thousands per session. The pool removes them, and what it owns and
/// what it touches track what is in flight:
///
/// * **Size classes.** Backings are powers of two from 512 B to
///   [`PayloadPool::MAX_POOLED`] (64 KiB); a payload is written into the
///   smallest class that holds it, so a 1.2 KB pump occupies 2 KiB, not
///   the largest payload's capacity. Anything larger is one exact
///   allocation the pool never keeps.
/// * **A claim-order queue.** A backing with windows out waits in the
///   order it was claimed. Windows release in roughly FIFO order (ACKed
///   TCP data, delivered UDP datagrams), so freed backings collect at the
///   front, where each claim moves them onto their class's free stack.
///   The only freedom test anywhere is [`Arc::get_mut`] — it succeeds
///   exactly when no other view of the bytes can exist.
/// * **Most-recently-freed first.** A claim takes the *top* of its
///   class's stack: the backing the receiver dropped last, still in
///   cache, instead of the one freed longest ago. Backings the working
///   set no longer needs sink to the bottom and are never touched again.
/// * **No allocation past a free backing.** When the front is pinned (a
///   loss-dropped packet freed behind an older in-flight one, an outage
///   parking the oldest) and the class's stack is empty, one pass walks
///   the queue — shelving every free backing it meets, requeueing every
///   pinned one behind the newest claim — and stops at the first free
///   backing of the class. Only a pass that finds none allocates, so per
///   class the pool never owns more backings than were once live
///   together. A long-pinned backing costs one requeue per trip through
///   the queue, not a pass per claim.
///
/// Windows handed out are byte-for-byte identical to fresh allocations
/// (length-exact, contents fully overwritten), so pooling is invisible to
/// everything but the allocator. Once the working set is warm,
/// [`PayloadPool::gather`] allocates nothing.
#[derive(Debug, Default)]
pub struct PayloadPool {
    /// Backings with windows out and the payload length written into
    /// each, oldest claim at the front.
    out: VecDeque<(Arc<[u8]>, u32)>,
    /// Free backings by class, the most recently shelved on top.
    free: [Vec<Arc<[u8]>>; POOL_CLASSES],
    /// Payload lengths summed over `out`, and the sum's high-water mark.
    out_bytes: usize,
    peak_out_bytes: usize,
}

/// What a [`PayloadPool`] holds (instrumentation/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolFootprint {
    /// Backings owned, free or with windows out.
    pub backings: usize,
    /// Their capacities, summed.
    pub bytes: usize,
    /// High-water mark of payload bytes with windows out: what was in
    /// flight at once (a freed payload counts until a claim notices).
    pub peak_out_bytes: usize,
}

/// Two holdings together: backings and bytes add; the peak is the larger
/// one. Each pool's busiest moment need not have been the other's, so
/// what was in flight at once across both is known only to be at least
/// the larger peak: that is the figure a bound on owned bytes can read.
impl std::ops::Add for PoolFootprint {
    type Output = PoolFootprint;

    fn add(self, other: PoolFootprint) -> PoolFootprint {
        PoolFootprint {
            backings: self.backings + other.backings,
            bytes: self.bytes + other.bytes,
            peak_out_bytes: self.peak_out_bytes.max(other.peak_out_bytes),
        }
    }
}

impl std::iter::Sum for PoolFootprint {
    fn sum<I: Iterator<Item = PoolFootprint>>(iter: I) -> PoolFootprint {
        iter.fold(PoolFootprint::default(), std::ops::Add::add)
    }
}

impl PayloadPool {
    /// The largest payload the pool recycles a backing for: the top size
    /// class. Covers the largest write the data path makes, a UDP pump
    /// spending the token bucket's 32,000-byte burst (33,018 bytes at
    /// most over the benchmark's campaigns, FEC parity and the
    /// end-of-stream marker included). TCP media is written packet by
    /// packet into [`ByteRope`] tails of at most 16 KiB, and TCP's
    /// spanning gathers are one segment long.
    pub const MAX_POOLED: usize = 1 << POOL_MAX_SHIFT;

    /// An empty pool. Allocation-free until the first claim.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `len`-byte payload written in place by `fill`, which receives
    /// exactly `len` bytes of unspecified content and must overwrite all
    /// of them (`len` is under 4 GiB, the precondition of `window_len`).
    /// The pool's one writing primitive: a backing of `len`'s class is
    /// claimed (`take`), filled, and queued behind the other claims
    /// (`hand_out`); a rope's open tail is the same two steps with many
    /// fills between them.
    pub fn gather(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> PayloadBytes {
        if len == 0 {
            return PayloadBytes::empty();
        }
        let mut buf = self.take(len);
        // Writes in place, never copying: a fresh backing has one owner,
        // and a shelved one had none but the pool when it was shelved and
        // can gain none since.
        fill(&mut Arc::make_mut(&mut buf)[..len]);
        self.hand_out(buf, len)
    }

    /// A backing that holds `len` bytes and that nobody else can see: a
    /// claimed one of `len`'s class, or for `len` above
    /// [`PayloadPool::MAX_POOLED`] an exact allocation.
    fn take(&mut self, len: usize) -> Arc<[u8]> {
        if len <= Self::MAX_POOLED {
            self.claim(pool_class(len))
        } else {
            zeroed_backing(len)
        }
    }

    /// The first `len` bytes of `buf`, a backing [`PayloadPool::take`]
    /// returned and its caller filled, as a window; a pooled backing joins
    /// the claim-order queue, to be recycled once the window and its
    /// slices are gone.
    fn hand_out(&mut self, buf: Arc<[u8]>, len: usize) -> PayloadBytes {
        let window = window_len(len);
        if buf.len() <= Self::MAX_POOLED {
            self.out_bytes += len;
            self.peak_out_bytes = self.peak_out_bytes.max(self.out_bytes);
            self.out.push_back((Arc::clone(&buf), window));
        }
        PayloadBytes {
            buf,
            off: 0,
            len: window,
        }
    }

    /// Puts a backing [`PayloadPool::take`] returned and no window was
    /// made of back on its class's stack.
    fn put_back(&mut self, buf: Arc<[u8]>) {
        if buf.len() <= Self::MAX_POOLED {
            self.free[pool_class(buf.len())].push(buf);
        }
    }

    /// A backing of `class` nobody else can see, off `out` and the stacks.
    fn claim(&mut self, class: usize) -> Arc<[u8]> {
        // Windows release FIFO: whatever was freed since the last claim
        // sits at the front, oldest first — so the newest lands on top.
        while let Some((front, _)) = self.out.front_mut() {
            if Arc::get_mut(front).is_none() {
                break;
            }
            self.shelve_front();
        }
        if let Some(buf) = self.free[class].pop() {
            return buf;
        }
        // The front is pinned and the class has nothing free in sight:
        // look behind it before allocating.
        for _ in 0..self.out.len() {
            let Some((front, _)) = self.out.front_mut() else {
                break;
            };
            if Arc::get_mut(front).is_none() {
                self.out.rotate_left(1);
                continue;
            }
            let found = pool_class(front.len()) == class;
            self.shelve_front();
            if found {
                break;
            }
        }
        let shelved = self.free[class].pop();
        shelved.unwrap_or_else(|| zeroed_backing(1 << (POOL_MIN_SHIFT + class as u32)))
    }

    /// Moves the front of `out`, known free, onto its class's stack.
    fn shelve_front(&mut self) {
        if let Some((buf, len)) = self.out.pop_front() {
            self.out_bytes -= len as usize;
            self.free[pool_class(buf.len())].push(buf);
        }
    }

    /// What the pool holds (instrumentation/tests).
    pub fn footprint(&self) -> PoolFootprint {
        let out = self.out.iter().map(|(buf, _)| buf);
        let owned = out.chain(self.free.iter().flatten());
        let (backings, bytes) = owned.fold((0, 0), |(n, b), buf| (n + 1, b + buf.len()));
        PoolFootprint {
            backings,
            bytes,
            peak_out_bytes: self.peak_out_bytes,
        }
    }

    /// Backings owned of the class a `len`-byte payload is written into
    /// (instrumentation/tests); 0 for lengths the pool does not recycle.
    pub fn backings_for(&self, len: usize) -> usize {
        if len == 0 || len > Self::MAX_POOLED {
            return 0;
        }
        let class = pool_class(len);
        let out = self.out.iter().map(|(buf, _)| pool_class(buf.len()));
        out.filter(|&c| c == class).count() + self.free[class].len()
    }
}

/// The largest open tail a [`ByteRope`] writes into: a stalled sender's
/// bytes sit in backings of this size, so it owns about what it has
/// queued. Swept from 4 to 64 KiB over the benchmark's workloads, a
/// larger cap cost a few percent more allocated bytes for a few percent
/// fewer allocations, with peak RSS flat up to 16 KiB and higher at 32
/// and 64 KiB; 16 KiB is the largest cap before that rise, not a
/// measured optimum.
const TAIL_MAX: usize = 16 * 1024;

/// A byte-offset-indexed chain of [`PayloadBytes`] chunks: the TCP
/// send/receive buffer representation.
///
/// Pushing takes ownership of a chunk without copying. [`ByteRope::slice`]
/// returns a zero-copy sub-window when the requested range lies within
/// one chunk and pays one bounded gather copy when it spans chunks —
/// segment sizes are dictated by MSS/window arithmetic and must not bend
/// to chunk geometry, or the wire trace would change. So the gather's
/// backing comes from the rope's own [`PayloadPool`]: one copy, and once
/// the pool is warm no allocation.
///
/// Copies in ([`ByteRope::push_with`], [`ByteRope::push_slice`]) land in
/// the rope's *open tail*: a backing from that pool that only the rope
/// can see, so each write appends in place and many small writes share
/// one backing. The tail is sealed — handed to the pool's claim queue and
/// appended to the chunks — when a read ([`ByteRope::slice`],
/// [`ByteRope::advance`], [`ByteRope::read_with`]) reaches into it, when a
/// zero-copy [`ByteRope::push`] follows it, or when a write does not fit.
/// A tail that filled unread is followed by one twice its size, up to
/// 16 KiB; after a read the next is sized to the write that opens it. A
/// sender whose path drains slower than it writes thus owns about the
/// bytes it has queued, in 16 KiB backings, and one that is read as it
/// writes owns about one small backing per flight of writes.
#[derive(Debug, Default)]
pub struct ByteRope {
    /// The sealed chunks, oldest first.
    chunks: VecDeque<PayloadBytes>,
    /// Buffered bytes: the chunks' and the open tail's.
    len: usize,
    /// Backings for the copies the rope itself makes; survives `clear`.
    pool: PayloadPool,
    /// The open tail, if one was opened and not sealed since: its first
    /// `open_len` bytes are the rope's last. No window of it exists, so
    /// it is written in place. Survives `clear`, emptied.
    open: Option<Arc<[u8]>>,
    open_len: usize,
    /// The least capacity the next tail opens with: twice the last one's
    /// when it filled unread, 0 when a read or a push sealed it.
    next_open: usize,
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

    /// Drops all buffered bytes, keeping the chunk deque's capacity, the
    /// pool and the open tail's backing: a cleared rope is an empty one
    /// with its storage warm.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
        self.open_len = 0;
        self.next_open = 0;
    }

    /// Bytes of storage held: the chunk deque, the pool's backings and
    /// the open tail's.
    pub fn retained_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<PayloadBytes>() + self.footprint().bytes
    }

    /// What the rope's pool holds, the open tail's backing counted with
    /// it (instrumentation/tests).
    pub fn footprint(&self) -> PoolFootprint {
        let open = self.open.as_ref().map(|buf| PoolFootprint {
            backings: 1,
            bytes: buf.len(),
            peak_out_bytes: 0,
        });
        self.pool.footprint() + open.unwrap_or_default()
    }

    /// Bytes the open tail can still take without a new backing: 0 when
    /// none is open (instrumentation/tests).
    pub fn tail_room(&self) -> usize {
        self.open
            .as_ref()
            .map_or(0, |buf| buf.len() - self.open_len)
    }

    /// Appends a chunk, taking ownership (no copy). Seals the open tail
    /// first: its bytes come before the chunk's.
    pub fn push(&mut self, chunk: PayloadBytes) {
        if chunk.is_empty() {
            return;
        }
        self.seal(0);
        self.len += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Appends by copying `bytes` in (see [`ByteRope::push_with`]).
    pub fn push_slice(&mut self, bytes: &[u8]) {
        self.push_with(bytes.len(), bytes.len(), |out| out.copy_from_slice(bytes));
    }

    /// Appends the first `keep` of `len` bytes that `fill` writes: it
    /// receives exactly `len` bytes of unspecified content and must
    /// overwrite all of them. Written into the open tail while it has
    /// room — no allocation, no new chunk — and otherwise into a new
    /// tail from the rope's pool. `keep` above `len` keeps `len`; a
    /// `keep` of 0 appends nothing and does not call `fill`.
    pub fn push_with(&mut self, len: usize, keep: usize, fill: impl FnOnce(&mut [u8])) {
        let keep = keep.min(len);
        if keep == 0 {
            return;
        }
        if len > self.tail_room() {
            self.reopen(len);
        }
        let start = self.open_len;
        match self.open.as_mut() {
            // Writes in place, never copying: the rope is the tail's one
            // owner until it is sealed.
            Some(buf) => fill(&mut Arc::make_mut(buf)[start..start + len]),
            // Above the largest tail: a chunk of its own, sealed at once.
            None => {
                let chunk = self.pool.gather(len, fill);
                self.len += keep;
                self.chunks.push_back(chunk.slice(..keep));
                return;
            }
        }
        self.open_len += keep;
        self.len += keep;
    }

    /// Makes room for a `len`-byte write the open tail cannot take: seals
    /// it (it filled unread) and opens one that holds `len` bytes and is
    /// at least as large as the growth rule asks. A write larger than
    /// [`TAIL_MAX`] opens none.
    fn reopen(&mut self, len: usize) {
        let grown = self.open.as_ref().map_or(0, |buf| 2 * buf.len());
        self.seal(grown.min(TAIL_MAX));
        // Still open: emptied by `clear` and too small. Back to the pool.
        if let Some(buf) = self.open.take() {
            self.pool.put_back(buf);
        }
        if len <= TAIL_MAX {
            self.open = Some(self.pool.take(len.max(self.next_open)));
        }
    }

    /// Hands the open tail's bytes to the pool as one window and appends
    /// it to the chunks; the next tail opens with at least `next_open`
    /// bytes. An empty tail stays open.
    fn seal(&mut self, next_open: usize) {
        if self.open_len == 0 {
            return;
        }
        if let Some(buf) = self.open.take() {
            let chunk = self.pool.hand_out(buf, self.open_len);
            self.chunks.push_back(chunk);
        }
        self.open_len = 0;
        self.next_open = next_open;
    }

    /// Seals the open tail if any of the first `upto` bytes lie in it: a
    /// read that reaches the tail needs it as a chunk.
    fn seal_for_read(&mut self, upto: usize) {
        if upto > self.len - self.open_len {
            self.seal(0);
        }
    }

    /// The bytes at `off..off + len` as one payload. Zero-copy when the
    /// range lies within a single chunk; otherwise gathered into a backing
    /// from the rope's pool (which is why this takes `&mut self`).
    ///
    /// # Panics
    /// When `off + len` exceeds the buffered length.
    pub fn slice(&mut self, off: usize, len: usize) -> PayloadBytes {
        assert!(
            off + len <= self.len,
            "slice {off}+{len} out of bounds for rope of {} bytes",
            self.len
        );
        if len == 0 {
            return PayloadBytes::empty();
        }
        self.seal_for_read(off + len);
        let mut start = off;
        let mut iter = self.chunks.iter();
        // Skip chunks wholly before the window; the assert above puts
        // byte `off` in one of them.
        let Some(first) = iter.find(|chunk| {
            let holds = start < chunk.len();
            if !holds {
                start -= chunk.len();
            }
            holds
        }) else {
            return PayloadBytes::empty();
        };
        if start + len <= first.len() {
            return first.slice(start..start + len);
        }
        // Spanning slice: gather. Bounded by the caller's request (an MSS
        // on the TCP transmit path), not by the rope size.
        self.pool.gather(len, |out| {
            let (head, mut rest) = out.split_at_mut(first.len() - start);
            head.copy_from_slice(&first[start..]);
            for chunk in iter {
                if rest.is_empty() {
                    break;
                }
                let (filled, tail) = rest.split_at_mut(rest.len().min(chunk.len()));
                filled.copy_from_slice(&chunk[..filled.len()]);
                rest = tail;
            }
        })
    }

    /// Drops the first `n` bytes (acknowledged data leaving a send
    /// buffer). Whole chunks are released; a straddled chunk is narrowed
    /// in place via a zero-copy sub-slice.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance {n} past rope of {} bytes", self.len);
        self.seal_for_read(n);
        let mut left = n;
        // The assert above leaves a chunk under every byte to drop.
        while let Some(head) = self.chunks.front_mut().filter(|_| left > 0) {
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
        self.seal_for_read(max.min(self.len));
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
        r.advance(4);
        assert_eq!(r.len(), 1);
        assert_eq!(r.slice(0, 1), [5u8]);
        r.advance(1);
        assert!(r.is_empty());
        // The consumed chunk left the chain: its backing is free again,
        // and the next write's tail opens on it.
        r.push_slice(&[6]);
        assert_eq!(r.footprint().backings, 1);
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

    /// `bytes` as a window of `pool`: a claim, filled with a copy.
    fn copy_in(pool: &mut PayloadPool, bytes: &[u8]) -> PayloadBytes {
        pool.gather(bytes.len(), |out| out.copy_from_slice(bytes))
    }

    #[test]
    fn pool_recycles_backing_once_windows_drop() {
        let mut pool = PayloadPool::new();
        let a = copy_in(&mut pool, &[1, 2, 3]);
        assert_eq!(a, [1u8, 2, 3]);
        assert_eq!(pool.footprint().backings, 1);
        // `a` still alive: a second claim must not clobber it.
        let b = copy_in(&mut pool, &[9, 9]);
        assert!(!a.same_backing(&b));
        assert_eq!(pool.footprint().backings, 2);
        assert_eq!(a, [1u8, 2, 3]);
        drop(a);
        drop(b);
        // Both backings free again: no growth, contents exact.
        let c = copy_in(&mut pool, &[7; 64]);
        assert_eq!(pool.footprint().backings, 2);
        assert_eq!(c, [7u8; 64]);
        // Slices keep the backing pinned too.
        let s = c.slice(1..5);
        drop(c);
        let d = copy_in(&mut pool, &[8]);
        assert!(!s.same_backing(&d), "live slice must pin its backing");
        assert_eq!(s, [7u8, 7, 7, 7]);
    }

    #[test]
    fn pool_payloads_above_the_top_class_fall_back_to_exact_alloc() {
        let mut pool = PayloadPool::new();
        let big = copy_in(&mut pool, &vec![5; PayloadPool::MAX_POOLED + 1]);
        assert_eq!(big.len(), PayloadPool::MAX_POOLED + 1);
        assert!(big.iter().all(|&b| b == 5));
        assert_eq!(
            pool.footprint().backings,
            0,
            "oversize payloads are not pooled"
        );
        assert_eq!(pool.backings_for(big.len()), 0);
        assert!(copy_in(&mut pool, &[]).is_empty());
        // The bound is the top class, inclusive: the largest UDP pump is
        // recycled.
        let top = copy_in(&mut pool, &vec![6; PayloadPool::MAX_POOLED]);
        assert_eq!(top.len(), PayloadPool::MAX_POOLED);
        assert!(top.iter().all(|&b| b == 6));
        let owned = pool.footprint();
        assert_eq!((owned.backings, owned.bytes), (1, PayloadPool::MAX_POOLED));
    }

    /// What `fill` finds in the backing it is handed: the stamp the
    /// backing's previous claim wrote, 0 for a fresh one. The only way to
    /// name a backing whose every window is gone.
    fn claim_stamped(pool: &mut PayloadPool, len: usize, stamp: u8) -> (PayloadBytes, u8) {
        let mut found = 0;
        let window = pool.gather(len, |out| {
            found = out[0];
            out.fill(stamp);
        });
        (window, found)
    }

    #[test]
    fn pool_sizes_a_backing_to_its_payloads_class() {
        let mut pool = PayloadPool::new();
        let mut live = Vec::new(); // every claim a new backing
        for (len, capacity) in [(1, 512), (512, 512), (513, 1024), (1_219, 2_048)] {
            let before = pool.footprint().bytes;
            live.push(copy_in(&mut pool, &vec![1; len]));
            assert_eq!(pool.footprint().bytes - before, capacity, "{len} bytes");
        }
        assert_eq!(pool.backings_for(300), 2);
        assert_eq!(pool.backings_for(2_000), 1);
        assert_eq!(pool.backings_for(2_049), 0);
        // A class serves only its own lengths: nothing above is reused for
        // a small payload, nothing below for a large one.
        let mut pool = PayloadPool::new();
        drop(copy_in(&mut pool, &[1; 4_000]));
        drop(copy_in(&mut pool, &[1; 100]));
        assert_eq!(pool.footprint().backings, 2);
        assert_eq!(
            claim_stamped(&mut pool, 3_000, 2).1,
            1,
            "4 KiB class reused"
        );
    }

    #[test]
    fn pool_reuses_the_backing_freed_last() {
        let mut pool = PayloadPool::new();
        let windows: Vec<_> = (1..=3)
            .map(|s| claim_stamped(&mut pool, 600, s).0)
            .collect();
        drop(windows); // freed in claim order: 1, 2, 3
        let (third, found) = claim_stamped(&mut pool, 700, 4);
        assert_eq!(found, 3, "the top of the stack is the backing freed last");
        let (second, found) = claim_stamped(&mut pool, 700, 5);
        assert_eq!(found, 2);
        drop(third);
        assert_eq!(claim_stamped(&mut pool, 700, 6).1, 4, "freed since: on top");
        assert!(second.iter().all(|&b| b == 5));
        assert_eq!(pool.footprint().backings, 3);
    }

    #[test]
    fn pool_looks_behind_a_pinned_front_before_allocating() {
        let mut pool = PayloadPool::new();
        let pinned = claim_stamped(&mut pool, 600, 1).0;
        let other_class = claim_stamped(&mut pool, 5_000, 2).0;
        let behind = claim_stamped(&mut pool, 600, 3).0;
        let newest = claim_stamped(&mut pool, 600, 4).0;
        drop(other_class);
        drop(behind);
        // The oldest claim is still out, its class's stack is empty, and a
        // free backing of the class sits two places behind it.
        let (reused, found) = claim_stamped(&mut pool, 600, 5);
        assert_eq!(found, 3);
        assert_eq!(pool.footprint().backings, 4, "nothing allocated");
        // The other class's backing was shelved on the way past.
        assert_eq!(claim_stamped(&mut pool, 5_000, 6).1, 2);
        // All three of the class out: only now does it grow.
        assert_eq!(claim_stamped(&mut pool, 600, 7).1, 0);
        assert_eq!(pool.backings_for(600), 4);
        assert!(pinned.iter().all(|&b| b == 1));
        assert!(newest.iter().all(|&b| b == 4));
        assert!(reused.iter().all(|&b| b == 5));
    }

    #[test]
    fn pool_footprint_tracks_what_is_out() {
        let mut pool = PayloadPool::new();
        assert_eq!(pool.footprint(), PoolFootprint::default());
        let a = copy_in(&mut pool, &[1; 600]);
        let b = copy_in(&mut pool, &[2; 3_000]);
        drop(a);
        drop(b);
        let c = copy_in(&mut pool, &[3; 10]);
        let want = PoolFootprint {
            backings: 3,
            bytes: 1_024 + 4_096 + 512,
            peak_out_bytes: 600 + 3_000,
        };
        assert_eq!(pool.footprint(), want);
        drop(c);
        // Two pools' holdings add; their peaks need not have coincided, so
        // together they read the larger one.
        let other = PoolFootprint {
            backings: 1,
            bytes: 2_048,
            peak_out_bytes: 1_500,
        };
        let both = PoolFootprint {
            backings: 4,
            bytes: want.bytes + 2_048,
            peak_out_bytes: 3_600,
        };
        assert_eq!(want + other, both);
        assert_eq!([other, want].into_iter().sum::<PoolFootprint>(), both);
    }

    #[test]
    fn rope_copies_come_from_its_pool() {
        let mut r = ByteRope::new();
        // Two 700-byte writes: the second does not fit the first's 1 KiB
        // tail, which is sealed, and opens a 2 KiB one.
        r.push_slice(&[1; 700]);
        r.push_slice(&[2; 700]);
        let spanning = r.slice(600, 200);
        assert_eq!(&spanning[..100], &[1; 100]);
        assert_eq!(&spanning[100..], &[2; 100]);
        assert_eq!(r.footprint().backings, 3, "two tails and a 512 B gather");
        // Once the segment is gone its backing serves the next gather,
        // and a retransmission of the same range reads the same bytes.
        drop(spanning);
        let again = r.slice(600, 200);
        assert_eq!(r.footprint().backings, 3);
        assert_eq!(&again[..100], &[1; 100]);
        assert_eq!(&again[100..], &[2; 100]);
        // `clear` drops the bytes, not the pool: what the rope copies
        // next lands in the backings it already owns.
        drop(again);
        r.clear();
        r.push_slice(&[3; 900]);
        r.push_slice(&[4; 300]);
        assert_eq!(r.footprint().backings, 3);
        assert_eq!(r.slice(0, 1_200)[899..901], [3, 4]);
        assert_eq!(
            r.footprint().backings,
            4,
            "a 2 KiB gather while both tails are out: a new backing"
        );
    }

    #[test]
    fn rope_clear_resets() {
        let mut r = ByteRope::new();
        r.push_slice(&[1, 2, 3]);
        r.clear();
        assert!(r.is_empty());
        // The open tail survives, emptied: the next write lands in it.
        r.push_slice(&[4]);
        assert_eq!(r.footprint().backings, 1);
        assert_eq!(r.pool.footprint().backings, 0, "the tail is the rope's");
        assert_eq!(r.slice(0, 1), [4u8]);
    }

    #[test]
    fn rope_writes_share_the_open_tail_until_it_fills() {
        let mut r = ByteRope::new();
        r.push_with(300, 300, |out| out.fill(1));
        assert_eq!(r.tail_room(), 212, "a 512 B tail");
        r.push_with(200, 200, |out| out.fill(2));
        assert_eq!((r.tail_room(), r.footprint().backings), (12, 1));
        // A write the tail cannot take seals it and opens one twice its
        // size; unread tails keep doubling up to 16 KiB.
        let mut capacities = Vec::new();
        for _ in 0..40 {
            r.push_with(1_000, 1_000, |out| out.fill(3));
            let owned = r.footprint().bytes;
            if capacities.last() != Some(&owned) {
                capacities.push(owned);
            }
        }
        let step = |n: usize| 512 + (1..=n).map(|k| 512 << k.min(5)).sum::<usize>();
        assert_eq!(
            capacities[..6],
            [step(1), step(2), step(3), step(4), step(5), step(6)]
        );
        assert_eq!(r.len(), 500 + 40_000);
        let bytes = r.slice(0, r.len());
        assert!(bytes[..300].iter().all(|&b| b == 1));
        assert!(bytes[300..500].iter().all(|&b| b == 2));
        assert!(bytes[500..].iter().all(|&b| b == 3));
    }

    #[test]
    fn a_read_into_the_tail_seals_it_and_the_next_opens_small() {
        let mut r = ByteRope::new();
        for _ in 0..20 {
            r.push_with(1_000, 1_000, |out| out.fill(7));
        }
        assert_eq!(r.footprint().bytes, 1_024 + 2_048 + 4_096 + 8_192 + 16_384);
        // A read short of the tail leaves it open ...
        let before = r.tail_room();
        assert_eq!(r.slice(0, 1_460).len(), 1_460);
        assert_eq!(r.tail_room(), before);
        // ... one that reaches it seals it, and the next write opens a
        // tail of its own class.
        r.advance(r.len() - 1);
        assert_eq!(r.tail_room(), 0);
        r.push_with(600, 600, |out| out.fill(8));
        assert_eq!(r.tail_room(), 1_024 - 600);
        let mut read = Vec::new();
        assert_eq!(r.read_with(601, &mut |c| read.extend_from_slice(c)), 601);
        assert_eq!(read[0], 7);
        assert!(read[1..].iter().all(|&b| b == 8));
        assert_eq!(r.tail_room(), 0);
    }

    #[test]
    fn push_with_keeps_the_first_keep_bytes() {
        let mut r = ByteRope::new();
        r.push_with(4, 2, |out| out.copy_from_slice(&[1, 2, 3, 4]));
        r.push_with(3, 9, |out| out.copy_from_slice(&[5, 6, 7]));
        r.push_with(3, 0, |_| panic!("nothing kept, nothing written"));
        assert_eq!(r.len(), 5);
        assert_eq!(r.slice(0, 5), [1u8, 2, 5, 6, 7]);
        // Above the largest tail: a chunk of its own, truncated alike.
        let big = 20 * 1024;
        r.push_with(big, big - 1, |out| out.fill(9));
        assert_eq!(r.len(), 5 + big - 1);
        assert_eq!(r.tail_room(), 0, "no tail opened for it");
        r.push_slice(&[10]);
        let all = r.slice(0, r.len());
        assert_eq!(all[..5], [1, 2, 5, 6, 7]);
        assert!(all[5..5 + big - 1].iter().all(|&b| b == 9));
        assert_eq!(all[5 + big - 1], 10);
    }
}
