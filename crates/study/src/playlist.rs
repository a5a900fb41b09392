//! The 98-clip playlist RealTracer shipped with.
//!
//! Clips are distributed across the eleven servers in proportion to
//! Figure 8's serving shares, with a per-site content mix (news sites serve
//! news and talk, entertainment sites more sports and music). Users play
//! the playlist sequentially from the top (RealTracer's default), so the
//! list is shuffled to make every prefix representative.

use std::sync::Arc;

use rv_media::{Clip, ContentKind, SureStream};
use rv_sim::{SimDuration, SimRng, Weights};

use crate::servers::ServerSite;

/// A playlist entry: a clip hosted on a specific server.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaylistEntry {
    /// Index into the server roster.
    pub server: usize,
    /// The clip (name is unique across the playlist), shared by every
    /// server that streams it.
    pub clip: Arc<Clip>,
}

/// The number of clips in the study playlist.
pub const PLAYLIST_LEN: usize = 98;

/// Content mix by site character: news outlets vs. general entertainment.
fn content_weights(site: &ServerSite) -> &'static Weights<4> {
    // [News, Sports, Music, Talk] — matches ContentKind::ALL order.
    const NEWS_SITE: Weights<4> = Weights::new([0.55, 0.15, 0.05, 0.25]);
    const ENTERTAINMENT_SITE: Weights<4> = Weights::new([0.25, 0.30, 0.30, 0.15]);
    if site.name.contains("CNN")
        || site.name.contains("BBC")
        || site.name.contains("ITN")
        || site.name.contains("CBC")
        || site.name.contains("ABC")
    {
        &NEWS_SITE
    } else {
        &ENTERTAINMENT_SITE
    }
}

/// Builds the playlist for a server roster, deterministically.
pub fn build_playlist(roster: &[ServerSite], rng: &mut SimRng) -> Vec<PlaylistEntry> {
    assert!(!roster.is_empty(), "empty server roster");
    // Apportion the 98 slots by serve weight, repairing rounding drift.
    let total_w: f64 = roster.iter().map(|s| s.serve_weight).sum();
    let mut slots: Vec<usize> = roster
        .iter()
        .map(|s| ((s.serve_weight / total_w) * PLAYLIST_LEN as f64).round() as usize)
        .collect();
    let mut drift = PLAYLIST_LEN as i64 - slots.iter().map(|s| *s as i64).sum::<i64>();
    let mut i = 0;
    while drift != 0 {
        let idx = i % slots.len();
        if drift > 0 {
            slots[idx] += 1;
            drift -= 1;
        } else if slots[idx] > 1 {
            slots[idx] -= 1;
            drift += 1;
        }
        i += 1;
    }

    let mut playlist = Vec::with_capacity(PLAYLIST_LEN);
    for (server_idx, (site, n)) in roster.iter().zip(&slots).enumerate() {
        let weights = content_weights(site);
        for k in 0..*n {
            let content = ContentKind::ALL[rng.pick(weights)];
            // "Even small clips lasting several minutes": 2–10 minutes.
            let minutes = rng.range(2.0..10.0);
            let name = format!(
                "{}-clip{:02}.rm",
                site.name.replace('/', "_").to_lowercase(),
                k
            );
            // Encoding practice varied wildly in 2001: half the content had
            // a full SureStream ladder, much of the rest was encoded for
            // broadband audiences only, and a sizable tail was single-rate.
            // Modem users hitting broadband-only clips is a major source of
            // the paper's slideshow-rate (<3 fps) modem sessions.
            const LADDERS: Weights<4> = Weights::new([0.6, 0.25, 0.1, 0.05]);
            let ladder = match rng.pick(&LADDERS) {
                0 => SureStream::standard(),
                1 => SureStream::broadband_only(),
                2 => SureStream::single(150_000),
                _ => SureStream::single(300_000),
            };
            playlist.push(PlaylistEntry {
                server: server_idx,
                clip: Arc::new(Clip::with_ladder(
                    &name,
                    SimDuration::from_secs_f64(minutes * 60.0),
                    content,
                    ladder,
                )),
            });
        }
    }
    rng.shuffle(&mut playlist);
    playlist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servers::server_roster;

    fn playlist(seed: u64) -> Vec<PlaylistEntry> {
        let roster = server_roster();
        let mut rng = SimRng::seed_from_u64(seed);
        build_playlist(&roster, &mut rng)
    }

    #[test]
    fn playlist_has_98_unique_clips() {
        let list = playlist(1);
        assert_eq!(list.len(), PLAYLIST_LEN);
        let names: std::collections::BTreeSet<&str> =
            list.iter().map(|e| e.clip.name.as_str()).collect();
        assert_eq!(names.len(), PLAYLIST_LEN, "clip names must be unique");
    }

    #[test]
    fn every_server_hosts_clips() {
        let roster = server_roster();
        let list = playlist(2);
        for (idx, site) in roster.iter().enumerate() {
            assert!(
                list.iter().any(|e| e.server == idx),
                "server {} hosts nothing",
                site.name
            );
        }
    }

    #[test]
    fn shares_follow_figure_8() {
        let roster = server_roster();
        let list = playlist(3);
        let total_w: f64 = roster.iter().map(|s| s.serve_weight).sum();
        for (idx, site) in roster.iter().enumerate() {
            let n = list.iter().filter(|e| e.server == idx).count();
            let expected = (site.serve_weight / total_w) * PLAYLIST_LEN as f64;
            assert!(
                (n as f64 - expected).abs() <= 2.0,
                "{}: {} clips, expected ~{expected:.1}",
                site.name,
                n
            );
        }
    }

    #[test]
    fn clip_durations_are_several_minutes() {
        for e in playlist(4) {
            let secs = e.clip.duration.as_secs_f64();
            assert!((120.0..=600.0).contains(&secs), "duration {secs}");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(playlist(7), playlist(7));
    }

    #[test]
    fn shuffled_prefix_spans_servers() {
        // The first 20 entries (what a light user plays) must touch many
        // servers, or per-server breakdowns would be dominated by heavy
        // users.
        let list = playlist(8);
        let servers: std::collections::BTreeSet<usize> =
            list.iter().take(20).map(|e| e.server).collect();
        assert!(
            servers.len() >= 6,
            "only {} servers in prefix",
            servers.len()
        );
    }
}
