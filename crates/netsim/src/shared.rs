//! Shared network capacity for fleet simulations.
//!
//! A single replicated pair owns its [`crate::SimChannel`] outright — the
//! paper's testbed is a dedicated link. A *fleet* of pairs shares rack and
//! core switches: when hundreds of primaries flush at once, frames queue
//! behind each other on the shared trunk. The trunk is one serializer on
//! the fleet's global timeline, kept as a calendar of busy intervals: a
//! frame admitted at global instant `t` transmits in the first idle gap at
//! or after `t` and occupies the trunk for `bytes × per_byte`; the
//! admission delay (queue wait + serialization) is added on top of the
//! channel's own local-link costs.
//!
//! The calendar — rather than a scalar next-free pointer — makes the
//! model *admission-order independent*: pairs multiplexed by a scheduler
//! admit frames slightly out of global-time order (one pair's step can
//! jump past another's), and a frame sent at an early instant must not
//! queue behind a reservation made for the far future. With the
//! calendar, the delay a frame sees depends only on the set of other
//! frames' (instant, size) pairs, not on the order the scheduler
//! happened to discover them in.
//!
//! The calendar lives in two halves. The master [`Trunk`] holds the
//! fleet-wide [`Calendar`]: an immutable sorted slice that the windowed
//! scheduler's barrier rebuilds once per window and shares with every
//! port by `Arc`. Each slot's [`TrunkPort`] places frames against that
//! frozen slice plus a small sorted list of its own placements since the
//! last barrier, and logs them for the next merge.
//!
//! Channels attach a port via [`crate::SimChannel::attach_shared`] with
//! the pair's local→global clock offset. Unattached channels are
//! byte-identical to a build without this module.

use crate::clock::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Counters describing everything the shared trunk carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Frames admitted.
    pub frames: u64,
    /// Payload bytes serialized onto the trunk.
    pub bytes: u64,
    /// Total time frames spent queued behind other pairs' traffic.
    pub queue_total: SimTime,
    /// Largest single queue wait.
    pub queue_peak: SimTime,
    /// Time the trunk spent transmitting (busy time; divide by the global
    /// makespan for utilization).
    pub busy: SimTime,
}

impl SharedStats {
    /// Folds `delta` in: sums plus one max, so the fold is commutative.
    fn absorb(&mut self, delta: &SharedStats) {
        self.frames += delta.frames;
        self.bytes += delta.bytes;
        self.queue_total += delta.queue_total;
        self.queue_peak = self.queue_peak.max(delta.queue_peak);
        self.busy += delta.busy;
    }
}

/// A frozen busy calendar: intervals `(start, end)` in ns, sorted by
/// start, disjoint and coalesced (no two overlap or abut). Immutable once
/// built; every port in a window shares the same one.
pub type Calendar = Arc<[(u64, u64)]>;

/// One scheduler window's trunk activity on one or more ports: the busy
/// intervals the ports placed plus the statistics delta they accumulated.
/// Plain data, so it can cross worker-thread boundaries to the merge
/// leader of a windowed parallel scheduler.
#[derive(Debug, Clone, Default)]
pub struct TrunkWindow {
    /// Raw placed intervals `(start, end)` in ns, each port's in
    /// admission order.
    pub intervals: Vec<(u64, u64)>,
    /// The statistics delta the ports accumulated over the window.
    pub stats: SharedStats,
}

impl TrunkWindow {
    /// True when the window carried no traffic at all.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty() && self.stats.frames == 0
    }
}

/// The master trunk of a windowed fleet: the merged calendar every port
/// re-grounds on at a barrier, plus the fleet-wide statistics.
#[derive(Debug, Default)]
pub struct Trunk {
    calendar: Calendar,
    stats: SharedStats,
}

impl Trunk {
    /// Creates an idle master trunk with an empty calendar.
    pub fn new() -> Self {
        Trunk::default()
    }

    /// The current frozen calendar, for ports to share.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Aggregate trunk statistics.
    pub fn stats(&self) -> SharedStats {
        self.stats
    }

    /// Merges one barrier's finished port windows and publishes the next
    /// frozen calendar. The windows' intervals union in — overlap- and
    /// abutment-coalescing, because concurrent ports may have placed
    /// overlapping reservations inside one window — and their statistics
    /// deltas add on. Union, sums and a max are commutative, so the
    /// result does not depend on the order the windows come in.
    ///
    /// Merged intervals ending at or before `horizon` are dropped. That is
    /// safe once every port's clock has reached the horizon: an admission
    /// only consults intervals ending after its start instant, so a
    /// reservation wholly in the past can never move a future placement.
    /// The rest can still be long: a congested trunk queues frames
    /// milliseconds ahead, and the 512-slot fleet's calendar holds a
    /// median of ~1,240 intervals reaching ~5 ms (ten 500 µs windows) past
    /// the horizon.
    pub fn merge<'a>(
        &mut self,
        windows: impl IntoIterator<Item = &'a TrunkWindow>,
        horizon: SimTime,
    ) {
        let mut new = Vec::new();
        for w in windows {
            new.extend(w.intervals.iter().filter(|&&(lo, hi)| hi > lo));
            self.stats.absorb(&w.stats);
        }
        new.sort_unstable_by_key(|&(lo, _)| lo);
        // One pass over both start-sorted inputs; the next interval joins
        // the last merged one when it overlaps or abuts it.
        let old = &self.calendar[..];
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(old.len() + new.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            let next = if j == new.len() || (i < old.len() && old[i].0 <= new[j].0) {
                i += 1;
                old[i - 1]
            } else {
                j += 1;
                new[j - 1]
            };
            match merged.last_mut() {
                Some(last) if next.0 <= last.1 => last.1 = last.1.max(next.1),
                _ => merged.push(next),
            }
        }
        let cut = merged.partition_point(|&(_, end)| end <= horizon.as_nanos());
        self.calendar = merged[cut..].into();
    }
}

/// One slot's view of the shared trunk: the frozen master [`Calendar`]
/// plus the frames this port placed since the last
/// [`TrunkPort::sync_window`]. A fresh port has an empty frozen calendar,
/// so without a scheduler it is simply the whole trunk.
#[derive(Debug)]
pub struct TrunkPort {
    /// Serialization cost per payload byte on the shared trunk.
    per_byte: SimTime,
    /// The master calendar as of the last barrier.
    frozen: Calendar,
    /// This port's placements since the last sync, sorted by start and
    /// without zero-length ones. Each was placed in a gap of `frozen` and
    /// of the others, so the union with `frozen` is disjoint (it may
    /// abut).
    own: Vec<(u64, u64)>,
    /// The same placements in admission order, zero-length ones included:
    /// the window log handed to the merge.
    log: Vec<(u64, u64)>,
    stats: SharedStats,
}

impl TrunkPort {
    /// Creates an idle port with the given per-byte serialization cost.
    pub fn new(per_byte: SimTime) -> Self {
        TrunkPort {
            per_byte,
            frozen: Calendar::default(),
            own: Vec::new(),
            log: Vec::new(),
            stats: SharedStats::default(),
        }
    }

    /// Creates a port handle shareable between channels.
    pub fn shared(per_byte: SimTime) -> SharedLink {
        Rc::new(RefCell::new(TrunkPort::new(per_byte)))
    }

    /// Admits one frame at global instant `now`, returning the extra
    /// delay (queue wait plus trunk serialization) the frame suffers on
    /// top of its dedicated-link costs. The frame transmits in the first
    /// gap of `bytes × per_byte` at or after `now`.
    pub fn admit(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let tx = self.per_byte.as_nanos() * bytes as u64;
        let start = self.first_fit(now.as_nanos(), tx);
        self.log.push((start, start + tx));
        if tx > 0 {
            let at = self.own.partition_point(|&(s, _)| s < start);
            self.own.insert(at, (start, start + tx));
        }
        let queue = SimTime::from_nanos(start - now.as_nanos());
        let tx = SimTime::from_nanos(tx);
        self.stats.absorb(&SharedStats {
            frames: 1,
            bytes: bytes as u64,
            queue_total: queue,
            queue_peak: queue,
            busy: tx,
        });
        queue + tx
    }

    /// The earliest instant at or after `now` from which `tx` ns are free
    /// in the union of the frozen calendar and this port's placements. A
    /// zero-length frame still needs its start instant free.
    fn first_fit(&self, now: u64, tx: u64) -> u64 {
        let need = tx.max(1);
        let (a, b) = (&self.frozen[..], &self.own[..]);
        let mut i = a.partition_point(|&(_, e)| e <= now);
        let mut j = b.partition_point(|&(_, e)| e <= now);
        let mut start = now;
        // Walk the union in start order. Every interval from `a[i]` and
        // `b[j]` on ends after `start`: ends are sorted within each list,
        // and the two lists never overlap.
        loop {
            let next = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) if y.0 < x.0 => {
                    j += 1;
                    y
                }
                (Some(x), _) => {
                    i += 1;
                    x
                }
                (None, Some(y)) => {
                    j += 1;
                    y
                }
                (None, None) => return start,
            };
            if next.0 >= start + need {
                return start;
            }
            start = next.1;
        }
    }

    /// Aggregate statistics since the last sync (or since creation).
    pub fn stats(&self) -> SharedStats {
        self.stats
    }

    /// Re-grounds this port on a frozen master calendar and starts a fresh
    /// window: subsequent admissions see the master's reservations through
    /// the previous window plus only this port's own in-window
    /// placements. Stats reset to zero so [`TrunkPort::take_window_into`]
    /// yields a pure delta.
    pub fn sync_window(&mut self, frozen: &Calendar) {
        self.frozen = Arc::clone(frozen);
        self.own.clear();
        self.log.clear();
        self.stats = SharedStats::default();
    }

    /// Moves the finished window — the raw intervals this port placed and
    /// the statistics delta it accumulated since the last sync — onto
    /// `into`, which may gather the windows of several ports.
    pub fn take_window_into(&mut self, into: &mut TrunkWindow) {
        into.intervals.append(&mut self.log);
        into.stats.absorb(&std::mem::take(&mut self.stats));
    }
}

/// A handle to a slot's [`TrunkPort`], cloneable per channel. `Rc`
/// because a port belongs to one slot, and a slot lives and dies on the
/// one pool worker that owns it; only [`TrunkWindow`]s cross threads.
pub type SharedLink = Rc<RefCell<TrunkPort>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_queues_fifo() {
        let mut bw = TrunkPort::new(SimTime::from_nanos(10));
        // First frame at t=0: no queue, 1000ns of serialization.
        let d1 = bw.admit(SimTime::ZERO, 100);
        assert_eq!(d1.as_nanos(), 1_000);
        // Second frame at t=200 queues behind the first (busy to 1000).
        let d2 = bw.admit(SimTime::from_nanos(200), 50);
        assert_eq!(d2.as_nanos(), 800 + 500);
        // Third frame after the trunk went idle: serialization only.
        let d3 = bw.admit(SimTime::from_nanos(10_000), 10);
        assert_eq!(d3.as_nanos(), 100);
        let s = bw.stats();
        assert_eq!(s.frames, 3);
        assert_eq!(s.bytes, 160);
        assert_eq!(s.queue_total.as_nanos(), 800);
        assert_eq!(s.queue_peak.as_nanos(), 800);
        assert_eq!(s.busy.as_nanos(), 1_600);
    }

    #[test]
    fn out_of_order_admission_is_causal() {
        let mut bw = TrunkPort::new(SimTime::from_nanos(10));
        // A pair far ahead on the global clock reserves [1ms, 1ms+1µs).
        let far = bw.admit(SimTime::from_nanos(1_000_000), 100);
        assert_eq!(far.as_nanos(), 1_000);
        // A frame sent at t=0 must NOT queue behind the far-future
        // reservation — the trunk is idle at t=0.
        let early = bw.admit(SimTime::ZERO, 100);
        assert_eq!(early.as_nanos(), 1_000, "serialization only, no queue");
        assert_eq!(bw.stats().queue_total, SimTime::ZERO);
    }

    #[test]
    fn frames_fill_gaps_between_reservations() {
        let mut bw = TrunkPort::new(SimTime::from_nanos(10));
        bw.admit(SimTime::ZERO, 100); // busy [0, 1000)
        bw.admit(SimTime::from_nanos(5_000), 100); // busy [5000, 6000)
                                                   // 100ns frame at t=2000 fits in the gap: no queue.
        let d = bw.admit(SimTime::from_nanos(2_000), 10);
        assert_eq!(d.as_nanos(), 100);
        // A 401-byte frame at t=500 needs a 4.01µs gap; neither
        // [1000, 2000) nor [2100, 5000) is wide enough, so it starts
        // when the last reservation ends at 6000.
        let d = bw.admit(SimTime::from_nanos(500), 401);
        assert_eq!(d.as_nanos(), (6_000 - 500) + 4_010);
    }

    #[test]
    fn union_insert_coalesces_overlaps_and_abutments() {
        let mut master = Trunk::new();
        let w = TrunkWindow {
            intervals: vec![(100, 200), (150, 300), (300, 400), (500, 600), (50, 120)],
            stats: SharedStats::default(),
        };
        master.merge([&w], SimTime::ZERO);
        assert_eq!(master.calendar()[..], [(50, 400), (500, 600)]);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let a = TrunkWindow { intervals: vec![(0, 100), (250, 300)], ..Default::default() };
        let b = TrunkWindow { intervals: vec![(80, 260), (400, 500)], ..Default::default() };
        let mut m1 = Trunk::new();
        m1.merge([&a], SimTime::ZERO);
        m1.merge([&b], SimTime::ZERO);
        let mut m2 = Trunk::new();
        m2.merge([&b], SimTime::ZERO);
        m2.merge([&a], SimTime::ZERO);
        assert_eq!(m1.calendar(), m2.calendar());
        assert_eq!(m1.calendar()[..], [(0, 300), (400, 500)]);
    }

    #[test]
    fn windowed_port_sees_frozen_master_plus_own_traffic() {
        let mut master = Trunk::new();
        let mut first = TrunkPort::new(SimTime::from_nanos(10));
        first.admit(SimTime::ZERO, 100); // master busy [0, 1000)
        let mut w = TrunkWindow::default();
        first.take_window_into(&mut w);
        master.merge([&w], SimTime::ZERO);
        let mut port = TrunkPort::new(SimTime::from_nanos(10));
        port.sync_window(master.calendar());
        // The port queues behind the frozen reservation …
        let d = port.admit(SimTime::from_nanos(500), 50);
        assert_eq!(d.as_nanos(), 500 + 500);
        // … and behind its own in-window placement.
        let d = port.admit(SimTime::from_nanos(1_200), 10);
        assert_eq!(d.as_nanos(), 300 + 100);
        let mut w = TrunkWindow::default();
        port.take_window_into(&mut w);
        assert_eq!(w.intervals, vec![(1_000, 1_500), (1_500, 1_600)]);
        assert_eq!(w.stats.frames, 2);
        assert_eq!(w.stats.queue_total.as_nanos(), 800);
        master.merge([&w], SimTime::ZERO);
        assert_eq!(master.calendar()[..], [(0, 1_600)]);
        assert_eq!(master.stats().frames, 3);
    }

    #[test]
    fn prune_drops_only_fully_past_intervals() {
        let mut bw = TrunkPort::new(SimTime::from_nanos(10));
        bw.admit(SimTime::ZERO, 100); // [0, 1000)
        bw.admit(SimTime::from_nanos(2_000), 100); // [2000, 3000)
        bw.admit(SimTime::from_nanos(5_000), 100); // [5000, 6000)
        let mut master = Trunk::new();
        let mut w = TrunkWindow::default();
        bw.take_window_into(&mut w);
        master.merge([&w], SimTime::from_nanos(3_000));
        assert_eq!(master.calendar()[..], [(5_000, 6_000)]);
        // Placement after the prune is unaffected for any admit at or
        // past the horizon.
        bw.sync_window(master.calendar());
        let d = bw.admit(SimTime::from_nanos(5_500), 10);
        assert_eq!(d.as_nanos(), 500 + 100);
    }

    /// The calendar as one coalescing `BTreeMap`: each port held a full
    /// copy of the master's, and the master unioned intervals in one at a
    /// time. The reference `Trunk` and `TrunkPort` are held to.
    mod model {
        use super::SharedStats;
        use crate::clock::SimTime;
        use std::collections::BTreeMap;

        #[derive(Debug, Clone, Default)]
        pub struct Calendar {
            pub busy: BTreeMap<u64, u64>,
            pub stats: SharedStats,
            pub log: Vec<(u64, u64)>,
        }

        impl Calendar {
            /// Admits a frame, returning its delay in ns.
            pub fn admit(&mut self, per_byte: u64, now: u64, bytes: usize) -> u64 {
                let tx = per_byte * bytes as u64;
                let mut start = now;
                if let Some((_, &end)) = self.busy.range(..=start).next_back() {
                    if end > start {
                        start = end;
                    }
                }
                while let Some((&s, &e)) = self.busy.range(start..).next() {
                    if s.saturating_sub(start) >= tx {
                        break;
                    }
                    start = e;
                }
                self.log.push((start, start + tx));
                let (mut lo, mut hi) = (start, start + tx);
                if let Some((&s, &e)) = self.busy.range(..=lo).next_back() {
                    if e == lo {
                        self.busy.remove(&s);
                        lo = s;
                    }
                }
                if let Some(&e) = self.busy.get(&hi) {
                    self.busy.remove(&hi);
                    hi = e;
                }
                if hi > lo {
                    self.busy.insert(lo, hi);
                }
                let queue = SimTime::from_nanos(start - now);
                self.stats.frames += 1;
                self.stats.bytes += bytes as u64;
                self.stats.queue_total += queue;
                self.stats.queue_peak = self.stats.queue_peak.max(queue);
                self.stats.busy += SimTime::from_nanos(tx);
                start - now + tx
            }

            pub fn merge(&mut self, intervals: &[(u64, u64)], stats: &SharedStats) {
                for &(lo, hi) in intervals {
                    self.insert_union(lo, hi);
                }
                self.stats.absorb(stats);
            }

            pub fn prune_before(&mut self, h: u64) {
                while let Some((&s, &e)) = self.busy.iter().next() {
                    if e > h {
                        break;
                    }
                    self.busy.remove(&s);
                }
            }

            fn insert_union(&mut self, mut lo: u64, mut hi: u64) {
                if hi <= lo {
                    return;
                }
                if let Some((&s, &e)) = self.busy.range(..=lo).next_back() {
                    if e >= lo {
                        self.busy.remove(&s);
                        lo = s;
                        hi = hi.max(e);
                    }
                }
                while let Some((&s, &e)) = self.busy.range(lo..).next() {
                    if s > hi {
                        break;
                    }
                    self.busy.remove(&s);
                    hi = hi.max(e);
                }
                self.busy.insert(lo, hi);
            }

            pub fn intervals(&self) -> Vec<(u64, u64)> {
                self.busy.iter().map(|(&s, &e)| (s, e)).collect()
            }
        }
    }

    mod against_model {
        use super::model;
        use super::*;
        use proptest::prelude::*;

        const PER_BYTE: u64 = 10;
        /// Frame sizes; on the 10 ns grid their transmit times (0 to 80 ns)
        /// match the calendar's gap widths exactly now and then.
        const SIZES: [usize; 6] = [0, 1, 2, 3, 5, 8];

        /// An admission instant picked relative to the frozen calendar:
        /// at an interval's start, inside it, at its end (abutting), on its
        /// last busy nanosecond, exactly one frame before it, or anywhere.
        fn instant(cal: &[(u64, u64)], kind: u8, anchor: usize, tx: u64, raw: u64) -> u64 {
            let Some(&(s, e)) = cal.get(anchor % cal.len().max(1)) else { return raw };
            match kind {
                0 => s,
                1 => s + 1,
                2 => e,
                3 => e - 1,
                4 => s.saturating_sub(tx),
                _ => raw,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
            #[test]
            fn port_and_trunk_match_the_btreemap_calendar(
                seed in prop::collection::vec((0u64..300, 0u64..12), 0..24),
                first_horizon in 0u64..3_000,
                windows in prop::collection::vec(
                    prop::collection::vec(
                        prop::collection::vec((0u8..6, 0usize..64, 0usize..6, 0u64..4_000), 0..8),
                        1..4,
                    ),
                    1..4,
                ),
            ) {
                // Raw seed intervals on the 10 ns grid: overlapping,
                // abutting and zero-length ones all occur.
                let seed = TrunkWindow {
                    intervals: seed
                        .iter()
                        .map(|&(s, len)| (s * PER_BYTE, (s + len) * PER_BYTE))
                        .collect(),
                    stats: SharedStats::default(),
                };
                let mut trunk = Trunk::new();
                let mut want = model::Calendar::default();
                trunk.merge([&seed], SimTime::from_nanos(first_horizon));
                want.merge(&seed.intervals, &seed.stats);
                want.prune_before(first_horizon);
                prop_assert_eq!(trunk.calendar().to_vec(), want.intervals());

                // A never-synced port is the whole trunk on its own.
                let mut classic = TrunkPort::new(SimTime::from_nanos(PER_BYTE));
                let mut classic_want = model::Calendar::default();

                let mut horizon = first_horizon;
                let mut ports: Vec<TrunkPort> = Vec::new();
                for window in &windows {
                    let frozen = trunk.calendar().clone();
                    let mut logs = Vec::new();
                    for (p, frames) in window.iter().enumerate() {
                        if ports.len() <= p {
                            ports.push(TrunkPort::new(SimTime::from_nanos(PER_BYTE)));
                        }
                        let port = &mut ports[p];
                        port.sync_window(&frozen);
                        let mut port_want = model::Calendar {
                            busy: want.busy.clone(),
                            ..model::Calendar::default()
                        };
                        for &(kind, anchor, size, raw) in frames {
                            let bytes = SIZES[size];
                            let now = instant(&frozen, kind, anchor, PER_BYTE * bytes as u64, raw);
                            let got = port.admit(SimTime::from_nanos(now), bytes).as_nanos();
                            prop_assert_eq!(got, port_want.admit(PER_BYTE, now, bytes), "delay at {}", now);
                            let got = classic.admit(SimTime::from_nanos(now), bytes).as_nanos();
                            prop_assert_eq!(got, classic_want.admit(PER_BYTE, now, bytes), "classic delay at {}", now);
                        }
                        let mut w = TrunkWindow::default();
                        port.take_window_into(&mut w);
                        prop_assert_eq!(&w.intervals, &port_want.log);
                        prop_assert_eq!(w.stats, port_want.stats);
                        logs.push(w);
                    }
                    horizon += 250;
                    trunk.merge(logs.iter().rev(), SimTime::from_nanos(horizon));
                    for w in &logs {
                        want.merge(&w.intervals, &w.stats);
                    }
                    want.prune_before(horizon);
                    prop_assert_eq!(trunk.calendar().to_vec(), want.intervals());
                    prop_assert_eq!(trunk.stats(), want.stats);
                }
                prop_assert_eq!(classic.stats(), classic_want.stats);
            }
        }
    }
}
