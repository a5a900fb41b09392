//! A small-string type for RTSP header names and values.
//!
//! Control-channel messages are built and parsed roughly once a second
//! per session (receiver reports), and almost every header name and value
//! is under a couple dozen bytes ("CSeq", "sess-3", "0.013200:87214.5").
//! Storing them inline keeps steady-state RTSP traffic allocation-free;
//! the rare long value (the OPTIONS Public list, a Transport spec) spills
//! to a heap `String` transparently.

use std::fmt;
use std::ops::Deref;

/// Bytes storable without a heap allocation.
const INLINE_CAP: usize = 31;

/// An immutable string that stores up to `INLINE_CAP` (31) bytes inline.
#[derive(Clone)]
pub enum SmallStr {
    /// Inline storage: `len` valid bytes of `buf`.
    Inline {
        /// Number of valid bytes.
        len: u8,
        /// Inline byte storage (valid UTF-8 in `..len`).
        buf: [u8; INLINE_CAP],
    },
    /// Spilled storage for strings longer than `INLINE_CAP`.
    Heap(String),
}

impl SmallStr {
    /// An empty string.
    pub const fn new() -> Self {
        SmallStr::Inline {
            len: 0,
            buf: [0; INLINE_CAP],
        }
    }

    /// Builds from a `&str`, inline when it fits.
    fn copy_from(s: &str) -> Self {
        if s.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            SmallStr::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            SmallStr::Heap(s.to_string())
        }
    }

    /// Formats `value` directly into a `SmallStr` — no intermediate
    /// `String` when the rendering fits inline (the `CSeq: 17` case).
    pub fn from_display(value: impl fmt::Display) -> Self {
        let mut out = SmallStr::new();
        fmt::Write::write_fmt(&mut out, format_args!("{value}")).expect("SmallStr never errors");
        out
    }

    /// The string view.
    pub fn as_str(&self) -> &str {
        match self {
            SmallStr::Inline { len, buf } => {
                std::str::from_utf8(&buf[..usize::from(*len)]).expect("always valid UTF-8")
            }
            SmallStr::Heap(s) => s.as_str(),
        }
    }
}

impl fmt::Write for SmallStr {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match self {
            SmallStr::Inline { len, buf } => {
                let cur = usize::from(*len);
                if cur + s.len() <= INLINE_CAP {
                    buf[cur..cur + s.len()].copy_from_slice(s.as_bytes());
                    *len = (cur + s.len()) as u8;
                } else {
                    let mut heap = String::with_capacity(cur + s.len());
                    heap.push_str(self.as_str());
                    heap.push_str(s);
                    *self = SmallStr::Heap(heap);
                }
            }
            SmallStr::Heap(heap) => heap.push_str(s),
        }
        Ok(())
    }
}

impl Default for SmallStr {
    fn default() -> Self {
        SmallStr::new()
    }
}

impl Deref for SmallStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for SmallStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for SmallStr {
    fn from(s: &str) -> Self {
        SmallStr::copy_from(s)
    }
}

impl From<&String> for SmallStr {
    fn from(s: &String) -> Self {
        SmallStr::copy_from(s)
    }
}

impl From<&SmallStr> for SmallStr {
    fn from(s: &SmallStr) -> Self {
        s.clone()
    }
}

impl From<String> for SmallStr {
    fn from(s: String) -> Self {
        if s.len() <= INLINE_CAP {
            SmallStr::copy_from(&s)
        } else {
            SmallStr::Heap(s)
        }
    }
}

impl PartialEq for SmallStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SmallStr {}

impl PartialEq<str> for SmallStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SmallStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_strings_stay_inline() {
        let s = SmallStr::from("CSeq");
        assert!(matches!(s, SmallStr::Inline { .. }));
        assert_eq!(s.as_str(), "CSeq");
        assert_eq!(s, "CSeq");
    }

    #[test]
    fn long_strings_spill() {
        let long = "DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN, SET_PARAMETER";
        let s = SmallStr::from(long);
        assert!(matches!(s, SmallStr::Heap(_)));
        assert_eq!(s.as_str(), long);
    }

    #[test]
    fn boundary_fits_inline() {
        let edge = "a".repeat(INLINE_CAP);
        assert!(matches!(
            SmallStr::from(edge.as_str()),
            SmallStr::Inline { .. }
        ));
        let over = "a".repeat(INLINE_CAP + 1);
        assert!(matches!(SmallStr::from(over.as_str()), SmallStr::Heap(_)));
    }

    #[test]
    fn from_display_renders_inline() {
        let s = SmallStr::from_display(1234u32);
        assert!(matches!(s, SmallStr::Inline { .. }));
        assert_eq!(s, "1234");
    }

    #[test]
    fn incremental_writes_spill_when_needed() {
        use fmt::Write;
        let mut s = SmallStr::new();
        for _ in 0..10 {
            s.write_str("abcd").unwrap();
        }
        assert_eq!(s.as_str().len(), 40);
        assert!(matches!(s, SmallStr::Heap(_)));
    }
}
