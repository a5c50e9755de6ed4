//! Extent-lock manager: a miniature Lustre DLM.
//!
//! Locks are held per client as sets of disjoint byte extents (the caller
//! rounds requests outward — the file system expands lock requests to
//! stripe boundaries, which is how unaligned file realms come to ping-pong
//! boundary stripes between aggregators, §6.4).
//!
//! Acquiring a range that another client holds *revokes* the overlap: the
//! victim's overlapping extent is shrunk and the caller learns which ranges
//! were taken so it can flush/invalidate the victim's cached pages. A
//! request fully covered by locks the client already holds is free — the
//! persistent-file-realm win.
//!
//! A request is one of two kinds ([`LockKind`]). An *ordinary* request is
//! what a plain read or write makes: with expansion on, an uncontended
//! grant grows into the free space around it. An *ahead* request conflicts
//! and cancels exactly like an ordinary one but is granted as asked, never
//! grown: it is what a client makes for an extent it knows it owns and
//! will come back to (Lustre's lockahead advice for collective buffering,
//! Moore et al., CUG 2017), so that its grant cannot spread over extents
//! its peers are about to ask for.

use crate::extent::ExtentSet;
use std::collections::HashMap;

/// Lock state for one file.
#[derive(Debug)]
pub struct LockTable {
    held: HashMap<usize, ExtentSet>,
    grants: u64,
    revocations: u64,
    /// Lustre-style lock expansion: grow each grant into the free space
    /// around it (up to the nearest other holder, or 0 / ∞). This is what
    /// makes an uncontended writer own `[0, ∞)` after one request — and
    /// what makes *shifting* realm assignments revoke locks every
    /// collective call (§6.4).
    expand: bool,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable::new(true)
    }
}

/// What a lock request asks to be granted. The kind never changes whom a
/// request conflicts with or what it cancels — only whether the grant may
/// be larger than the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// Grow an uncontended grant into the free space around the request
    /// (when the table expands at all).
    Ordinary,
    /// Grant exactly the extent asked for.
    Ahead,
}

/// Result of a lock acquisition.
#[derive(Debug, PartialEq, Eq)]
pub struct Acquire {
    /// The request was already fully covered by this client's locks.
    pub already_held: bool,
    /// `(victim_client, start, end)` ranges revoked from other clients,
    /// whose cached pages must be flushed and invalidated.
    pub revoked: Vec<(usize, u64, u64)>,
}

impl LockTable {
    /// New table; `expand` enables Lustre-style grant expansion.
    pub fn new(expand: bool) -> Self {
        LockTable { held: HashMap::new(), grants: 0, revocations: 0, expand }
    }

    /// Acquire `[start, end)` for `client` with an ordinary request:
    /// [`LockTable::request`] with [`LockKind::Ordinary`].
    pub fn acquire(&mut self, client: usize, start: u64, end: u64) -> Acquire {
        self.request(client, start, end, LockKind::Ordinary)
    }

    /// Acquire `[start, end)` for `client`, revoking conflicting holders.
    /// With expansion on, an uncontended ordinary grant grows into the
    /// free space around the request; an ahead grant is the request.
    pub fn request(&mut self, client: usize, start: u64, end: u64, kind: LockKind) -> Acquire {
        debug_assert!(start < end);
        if self.held.get(&client).map(|s| s.covers(start, end)).unwrap_or(false) {
            return Acquire { already_held: true, revoked: Vec::new() };
        }
        let mut revoked = Vec::new();
        for (&other, set) in self.held.iter_mut() {
            if other == client {
                continue;
            }
            if self.expand {
                // Lustre-style whole-lock cancellation: a conflicting lock
                // is cancelled in its entirety, not trimmed.
                let overlapping: Vec<(u64, u64)> =
                    set.ranges().iter().copied().filter(|&(s, e)| s < end && e > start).collect();
                for (s, e) in overlapping {
                    set.remove(s, e);
                    revoked.push((other, s, e));
                }
            } else {
                // Precise mode: shrink only the overlap.
                for (s, e) in set.intersect(start, end) {
                    set.remove(s, e);
                    revoked.push((other, s, e));
                }
            }
        }
        revoked.sort_unstable();
        self.revocations += revoked.len() as u64;
        self.grants += 1;
        let (mut lo, mut hi) = (start, end);
        if self.expand && kind == LockKind::Ordinary && revoked.is_empty() {
            // Uncontended: expand into the free gap around the request, up
            // to the nearest extent of any other client (Lustre grants a
            // sole writer `[0, ∞)` after one request). Contended grants
            // stay exact — re-expanding over a peer we just cancelled
            // would ping-pong forever.
            lo = 0;
            hi = u64::MAX;
            for (&other, set) in self.held.iter() {
                if other == client {
                    continue;
                }
                for &(s, e) in set.ranges() {
                    if e <= start {
                        lo = lo.max(e);
                    }
                    if s >= end {
                        hi = hi.min(s);
                    }
                }
            }
        }
        self.held.entry(client).or_default().insert(lo, hi);
        Acquire { already_held: false, revoked }
    }

    /// Does `client` currently hold all of `[start, end)`?
    pub fn holds(&self, client: usize, start: u64, end: u64) -> bool {
        self.held.get(&client).map(|s| s.covers(start, end)).unwrap_or(start >= end)
    }

    /// Drop all locks held by `client` (file close).
    pub fn release_all(&mut self, client: usize) {
        self.held.remove(&client);
    }

    /// Total grants processed (new lock acquisitions, not cache hits).
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total revocations performed.
    pub fn revocations(&self) -> u64 {
        self.revocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::test_draw as draw;

    #[test]
    fn first_acquire_grants() {
        let mut t = LockTable::new(false);
        let a = t.acquire(0, 0, 100);
        assert!(!a.already_held);
        assert!(a.revoked.is_empty());
        assert!(t.holds(0, 0, 100));
        assert_eq!(t.grants(), 1);
    }

    #[test]
    fn covered_reacquire_is_free() {
        let mut t = LockTable::new(false);
        t.acquire(0, 0, 100);
        let a = t.acquire(0, 10, 50);
        assert!(a.already_held);
        assert_eq!(t.grants(), 1, "no second grant charged");
    }

    #[test]
    fn conflict_revokes_overlap_only() {
        let mut t = LockTable::new(false);
        t.acquire(0, 0, 100);
        let a = t.acquire(1, 50, 150);
        assert!(!a.already_held);
        assert_eq!(a.revoked, vec![(0, 50, 100)]);
        assert!(t.holds(1, 50, 150));
        assert!(t.holds(0, 0, 50));
        assert!(!t.holds(0, 0, 51));
        assert_eq!(t.revocations(), 1);
    }

    #[test]
    fn revokes_multiple_victims() {
        let mut t = LockTable::new(false);
        t.acquire(0, 0, 10);
        t.acquire(1, 10, 20);
        t.acquire(2, 20, 30);
        let a = t.acquire(3, 5, 25);
        assert_eq!(a.revoked, vec![(0, 5, 10), (1, 10, 20), (2, 20, 25)]);
    }

    #[test]
    fn ping_pong_counts_revocations() {
        let mut t = LockTable::new(false);
        for _ in 0..5 {
            t.acquire(0, 0, 10);
            t.acquire(1, 0, 10);
        }
        assert_eq!(t.revocations(), 9); // all but the very first acquire
    }

    #[test]
    fn release_all_clears() {
        let mut t = LockTable::new(false);
        t.acquire(0, 0, 100);
        t.release_all(0);
        assert!(!t.holds(0, 0, 1));
        let a = t.acquire(1, 0, 100);
        assert!(a.revoked.is_empty());
    }

    #[test]
    fn disjoint_clients_no_conflict() {
        let mut t = LockTable::new(false);
        t.acquire(0, 0, 50);
        let a = t.acquire(1, 50, 100);
        assert!(a.revoked.is_empty());
        assert_eq!(t.revocations(), 0);
    }

    #[test]
    fn expansion_grows_to_infinity_when_uncontended() {
        let mut t = LockTable::default();
        t.acquire(0, 100, 200);
        assert!(t.holds(0, 0, 1 << 60), "uncontended grant must expand");
        // A covered reacquire anywhere is free.
        let a = t.acquire(0, 1 << 40, (1 << 40) + 1);
        assert!(a.already_held);
        assert_eq!(t.grants(), 1);
    }

    #[test]
    fn contended_grant_cancels_whole_lock_and_stays_exact() {
        let mut t = LockTable::default();
        t.acquire(0, 0, 100); // expands to [0, MAX)
        let a = t.acquire(1, 200, 300); // cancels 0's whole lock
        assert_eq!(a.revoked, vec![(0, 0, u64::MAX)]);
        // Client 0 lost everything; client 1 got exactly the request.
        assert!(!t.holds(0, 0, 1));
        assert!(t.holds(1, 200, 300));
        assert!(!t.holds(1, 199, 300));
        assert!(!t.holds(1, 200, 301));
    }

    #[test]
    fn expansion_steady_state_no_traffic() {
        // Two clients repeatedly touching their own halves: after warm-up
        // the lock layout stabilizes and no further grants or revocations
        // happen — the PFR + aligned-realm regime.
        let mut t = LockTable::default();
        t.acquire(0, 0, 100); // [0, MAX)
        t.acquire(1, 1000, 1100); // cancels 0, exact grant
        t.acquire(0, 0, 100); // regrant, expands to [0, 1000)
        let (g, r) = (t.grants(), t.revocations());
        for k in 0..10u64 {
            let a = t.acquire(0, k * 10, k * 10 + 10);
            assert!(a.already_held, "step {k} client 0");
            let a = t.acquire(1, 1000 + k * 10, 1010 + k * 10);
            assert!(a.already_held, "step {k} client 1");
        }
        assert_eq!((t.grants(), t.revocations()), (g, r));
    }

    #[test]
    fn uncontended_regrant_expands_into_gap() {
        let mut t = LockTable::default();
        t.acquire(0, 0, 100);
        t.acquire(1, 1000, 1100); // cancels 0
        let a = t.acquire(0, 50, 60); // uncontended now
        assert!(!a.already_held);
        assert!(a.revoked.is_empty());
        assert!(t.holds(0, 0, 1000), "should expand up to the neighbour");
        assert!(!t.holds(0, 0, 1001));
    }

    // ---- ahead requests ---------------------------------------------------

    /// Every client's extents, clients ascending: the whole table.
    fn layout(t: &LockTable) -> Vec<(usize, Vec<(u64, u64)>)> {
        let mut out: Vec<_> = t
            .held
            .iter()
            .filter(|(_, set)| !set.is_empty())
            .map(|(&c, set)| (c, set.ranges().to_vec()))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn ahead_grant_is_exactly_the_request() {
        for expand in [true, false] {
            let mut t = LockTable::new(expand);
            let a = t.request(0, 100, 200, LockKind::Ahead);
            assert_eq!(a, Acquire { already_held: false, revoked: Vec::new() });
            assert!(t.holds(0, 100, 200));
            assert!(!t.holds(0, 99, 200), "expand={expand}: grew downwards");
            assert!(!t.holds(0, 100, 201), "expand={expand}: grew upwards");
            // Covered again, by either kind: free.
            assert!(t.request(0, 120, 180, LockKind::Ahead).already_held);
            assert!(t.acquire(0, 100, 200).already_held);
            assert_eq!(t.grants(), 1);
        }
    }

    #[test]
    fn disjoint_ahead_requests_commute() {
        // Six clients, pairwise-disjoint extents (touching, gapped, one far
        // out): whatever order they arrive in, the table is the requests,
        // one grant each, nobody cancelled. (Ordinary requests on an
        // expanding table fail this: the first arrival owns `[0, ∞)`.)
        let want: Vec<(usize, u64, u64)> = vec![
            (0, 0, 64),
            (1, 64, 128),
            (2, 192, 256),
            (3, 256, 320),
            (4, 1024, 1088),
            (5, 128, 192),
        ];
        for expand in [true, false] {
            let mut reference = None;
            for seed in 0..64u64 {
                let mut order = want.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, draw(seed, i as u64, i as u64 + 1) as usize);
                }
                let mut t = LockTable::new(expand);
                for &(c, s, e) in &order {
                    let a = t.request(c, s, e, LockKind::Ahead);
                    assert_eq!(
                        a,
                        Acquire { already_held: false, revoked: Vec::new() },
                        "{order:?}"
                    );
                }
                assert_eq!((t.grants(), t.revocations()), (6, 0), "{order:?}");
                let got = layout(&t);
                assert_eq!(*reference.get_or_insert_with(|| got.clone()), got, "{order:?}");
            }
            let mut sorted = want.clone();
            sorted.sort_unstable();
            let exact: Vec<_> = sorted.iter().map(|&(c, s, e)| (c, vec![(s, e)])).collect();
            assert_eq!(reference.unwrap(), exact, "expand={expand}");
        }
    }

    #[test]
    fn ahead_over_an_expanded_lock_cancels_it_whole_once() {
        let mut t = LockTable::default();
        t.acquire(0, 0, 100); // ordinary, uncontended: [0, MAX)
        let a = t.request(1, 1000, 1100, LockKind::Ahead);
        assert_eq!(
            a.revoked,
            vec![(0, 0, u64::MAX)],
            "whole-lock cancellation, as for any conflict"
        );
        assert_eq!(t.revocations(), 1);
        // The peer's ordinary regrant grows only into the free gaps, never
        // over the ahead extent — below it ...
        let a = t.acquire(0, 0, 100);
        assert!(!a.already_held && a.revoked.is_empty());
        assert!(t.holds(0, 0, 1000) && !t.holds(0, 0, 1001));
        // ... and above it.
        let a = t.acquire(0, 2000, 2100);
        assert!(a.revoked.is_empty());
        assert!(t.holds(0, 1100, 1 << 60) && !t.holds(0, 1099, 1101));
        assert_eq!(
            layout(&t),
            vec![(0, vec![(0, 1000), (1100, u64::MAX)]), (1, vec![(1000, 1100)])]
        );
        // From here on neither client's traffic inside its own extents
        // costs anything.
        assert!(t.request(1, 1000, 1100, LockKind::Ahead).already_held);
        assert!(t.acquire(0, 500, 600).already_held);
        assert_eq!((t.grants(), t.revocations()), (4, 1));
    }

    #[test]
    fn an_ahead_request_over_a_peers_ahead_extent_cancels_it() {
        // What a realm set replaced by a rebalance or a recovery relies on:
        // the old owner's ahead lock is an ordinary holder to the new one.
        let mut t = LockTable::default();
        t.request(0, 0, 128, LockKind::Ahead);
        t.request(1, 128, 256, LockKind::Ahead);
        let a = t.request(1, 64, 256, LockKind::Ahead); // 1's realm grew by a stripe
        assert_eq!(a.revoked, vec![(0, 0, 128)]);
        assert_eq!(layout(&t), vec![(1, vec![(64, 256)])]);
        let a = t.request(0, 0, 64, LockKind::Ahead);
        assert!(a.revoked.is_empty(), "the shrunk realm fits beside the grown one");
        assert_eq!(layout(&t), vec![(0, vec![(0, 64)]), (1, vec![(64, 256)])]);
    }

    #[test]
    fn without_expansion_the_kinds_are_indistinguishable() {
        // A precise table never grows a grant, so there is nothing for the
        // kind to switch off: on any request sequence, a table asked with
        // random kinds and one asked ordinarily throughout agree on every
        // answer and every extent.
        for seed in 0..32u64 {
            let (mut mixed, mut plain) = (LockTable::new(false), LockTable::new(false));
            for i in 0..400u64 {
                let client = draw(seed, 4 * i, 4) as usize;
                let start = draw(seed, 4 * i + 1, 64) * 16;
                let end = start + (1 + draw(seed, 4 * i + 2, 8)) * 16;
                let kind = if draw(seed, 4 * i + 3, 2) == 0 {
                    LockKind::Ahead
                } else {
                    LockKind::Ordinary
                };
                let got = mixed.request(client, start, end, kind);
                let want = plain.acquire(client, start, end);
                assert_eq!(got, want, "seed {seed} request {i}");
                assert_eq!(layout(&mixed), layout(&plain), "seed {seed} request {i}");
            }
            assert_eq!(mixed.grants(), plain.grants());
            assert_eq!(mixed.revocations(), plain.revocations());
            assert!(plain.revocations() > 0, "seed {seed}: the sequence never conflicted");
        }
    }
}
