//! One OST's booking calendar: the service intervals booked in the
//! current world, so that a request can be served in idle time that lies
//! before the OST's latest booking.
//!
//! Requests are booked in host call order, which is not their virtual
//! arrival order: a request that arrived early may be booked after one
//! that arrived late. A single clock per OST (start at `max(clock,
//! arrival)`) then queues the early arrival behind the late one even when
//! the OST sat idle when it arrived. The calendar starts it in the first
//! gap after its arrival that is long enough to hold it. A booked request
//! never moves and its duration is never recomputed, so the calendar
//! still depends on booking order: it only ever starts a request at or
//! before the single clock's start for the same sequence of bookings.

/// Where the last request of a booking left the OST: its file's id and
/// the page-rounded end of its bytes. The seek model reads it.
pub type Tail = (u64, u64);

/// A run of back-to-back service: `[start, end)` with no idle time, and
/// the tail of the last request in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Booking {
    /// Virtual ns the first request in the run started.
    pub start: u64,
    /// Virtual ns the last request in the run was done.
    pub end: u64,
    /// Where the last request in the run left the OST.
    pub tail: Tail,
}

/// One OST's bookings: sorted, disjoint, and never abutting (abutting
/// runs merge, so a saturated OST holds one booking).
#[derive(Debug, Clone, Default)]
pub struct Calendar {
    booked: Vec<Booking>,
}

impl Calendar {
    /// Book a request that arrives at `arrival` and leaves the OST at
    /// `tail`. It starts at the first `t ≥ arrival` at which `[t, t + d)`
    /// overlaps no booking, where `d = dur(before)` is its duration in the
    /// gap it is tried in and `before` is the tail of the booking just
    /// before that gap (`None` before every booking). Returns the start
    /// and the duration. The search begins at a binary search over the
    /// booking ends, so a saturated OST costs `O(log n)` a request.
    pub fn book(
        &mut self,
        arrival: u64,
        tail: Tail,
        mut dur: impl FnMut(Option<Tail>) -> u64,
    ) -> (u64, u64) {
        let b = &mut self.booked;
        // The first booking that ends after `arrival`; if it is already
        // busy then, the first gap to try is after it.
        let mut i = b.partition_point(|x| x.end <= arrival);
        let mut t = arrival;
        if b.get(i).is_some_and(|x| x.start <= t) {
            t = b[i].end;
            i += 1;
        }
        loop {
            let d = dur(i.checked_sub(1).map(|p| b[p].tail));
            if b.get(i).is_none_or(|next| t + d <= next.start) {
                let end = t + d;
                if d > 0 {
                    let joins_prev = i > 0 && b[i - 1].end == t;
                    let joins_next = b.get(i).is_some_and(|next| next.start == end);
                    match (joins_prev, joins_next) {
                        (true, true) => {
                            b[i - 1].end = b[i].end;
                            b[i - 1].tail = b[i].tail;
                            b.remove(i);
                        }
                        (true, false) => b[i - 1] = Booking { end, tail, ..b[i - 1] },
                        (false, true) => b[i].start = t,
                        (false, false) => b.insert(i, Booking { start: t, end, tail }),
                    }
                }
                return (t, d);
            }
            t = b[i].end;
            i += 1;
        }
    }

    /// Drop every booking: a new world starts on an idle OST.
    pub fn clear(&mut self) {
        self.booked.clear();
    }

    /// The bookings, in time order.
    pub fn bookings(&self) -> &[Booking] {
        &self.booked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(d: u64) -> impl FnMut(Option<Tail>) -> u64 {
        move |_| d
    }

    #[test]
    fn a_late_booked_early_arrival_lands_in_a_gap() {
        let mut cal = Calendar::default();
        assert_eq!(cal.book(100, (1, 0), fixed(10)), (100, 10));
        // Arrived at 0, booked second: a single clock would start it at
        // 110; the OST was idle until 100, and 10 ns fit.
        assert_eq!(cal.book(0, (1, 0), fixed(10)), (0, 10));
        // 95 ns from 5 do not fit before 100: the next gap is at 110.
        assert_eq!(cal.book(5, (1, 0), fixed(95)), (110, 95));
        // 90 ns from 10 fill [10, 100) exactly, and everything merges.
        assert_eq!(cal.book(10, (2, 7), fixed(90)), (10, 90));
        assert_eq!(cal.bookings(), [Booking { start: 0, end: 205, tail: (1, 0) }]);
    }

    #[test]
    fn the_duration_is_asked_with_the_tail_before_each_gap_tried() {
        let mut cal = Calendar::default();
        cal.book(0, (1, 64), fixed(10));
        cal.book(30, (2, 64), fixed(10));
        let mut asked = Vec::new();
        // Arrived inside [0, 10): 25 ns do not fit in [10, 30); they do
        // after 40.
        let got = cal.book(5, (3, 0), |before| {
            asked.push(before);
            25
        });
        assert_eq!(got, (40, 25));
        assert_eq!(asked, [Some((1, 64)), Some((2, 64))]);
        assert_eq!(cal.book(20, (3, 0), fixed(0)), (20, 0), "nothing to book");
        assert_eq!(cal.bookings().len(), 2);
        cal.clear();
        assert_eq!(cal.book(0, (3, 0), |before| if before.is_none() { 7 } else { 9 }), (0, 7));
    }
}
