//! The server's clip catalog.
//!
//! A RealServer hosted a set of clips addressed by URL path. The paper
//! found ~10 % of clip requests failed although the server itself was up
//! ("general RealVideo clip availability", Figure 10); the catalog models
//! that with a per-clip availability flag the study toggles per request.

use std::sync::Arc;

use rv_media::Clip;

/// A collection of clips served by one server.
///
/// Clips are shared, not owned: every server a campaign stands up for a
/// clip serves the plan's one copy of it, and a stream holds it the same
/// way — standing up a server clones no clip.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// By name, in order.
    clips: Vec<CatalogEntry>,
}

#[derive(Debug, Clone)]
struct CatalogEntry {
    clip: Arc<Clip>,
    available: bool,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a clip (available by default) — owned, or shared with
    /// whoever else holds it. Replaces any same-named clip.
    pub fn add(&mut self, clip: impl Into<Arc<Clip>>) {
        let entry = CatalogEntry {
            clip: clip.into(),
            available: true,
        };
        match self.find(&entry.clip.name) {
            Ok(at) => self.clips[at] = entry,
            Err(at) => self.clips.insert(at, entry),
        }
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.clips
            .binary_search_by(|e| e.clip.name.as_str().cmp(name))
    }

    fn entry(&self, name: &str) -> Option<&CatalogEntry> {
        self.find(name).ok().map(|at| &self.clips[at])
    }

    /// Looks up an *available* clip.
    pub fn get(&self, name: &str) -> Option<&Arc<Clip>> {
        self.entry(name).filter(|e| e.available).map(|e| &e.clip)
    }

    /// Marks a clip (un)available; returns `false` if unknown.
    pub fn set_available(&mut self, name: &str, available: bool) -> bool {
        match self.find(name) {
            Ok(at) => {
                self.clips[at].available = available;
                true
            }
            Err(_) => false,
        }
    }

    /// Removes every clip, keeping the storage.
    pub fn clear(&mut self) {
        self.clips.clear();
    }

    /// Number of clips.
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// `true` when the catalog has no clips.
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }

    /// Clip names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.clips.iter().map(|e| e.clip.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_media::ContentKind;
    use rv_sim::SimDuration;

    fn clip(name: &str) -> Clip {
        Clip::new(name, SimDuration::from_secs(120), ContentKind::News)
    }

    #[test]
    fn add_and_get() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.add(clip("a.rm"));
        c.add(clip("b.rm"));
        assert_eq!(c.len(), 2);
        assert!(c.get("a.rm").is_some());
        assert!(c.get("missing.rm").is_none());
        assert_eq!(c.names().collect::<Vec<_>>(), vec!["a.rm", "b.rm"]);
    }

    #[test]
    fn availability_gates_get() {
        let mut c = Catalog::new();
        c.add(clip("a.rm"));
        assert!(c.set_available("a.rm", false));
        assert!(c.get("a.rm").is_none());
        assert!(c.set_available("a.rm", true));
        assert!(c.get("a.rm").is_some());
        assert!(!c.set_available("nope.rm", false));
    }

    #[test]
    fn replace_same_name() {
        let mut c = Catalog::new();
        c.add(clip("a.rm"));
        let mut longer = clip("a.rm");
        longer.duration = SimDuration::from_secs(999);
        c.add(longer);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("a.rm").unwrap().duration, SimDuration::from_secs(999));
    }
}
