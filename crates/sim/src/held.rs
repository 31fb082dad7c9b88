//! The worm engine's arbitration state: one record per *held* channel.
//!
//! A channel no message holds has no record at all, so the state follows
//! the live traffic, not the system: on the 2²⁰-endpoint organization at
//! most ~27 k of its 12.6 M channels are ever held at once. The records
//! sit in an open-addressing table keyed by channel id: a power-of-two
//! capacity, a multiplicative hash, linear probing, and backward-shift
//! deletion, so no tombstones build up and a probe run ends at the first
//! empty slot. The table doubles when an insert would take it past half
//! full and never shrinks, so once it has grown to the run's held-set
//! peak it allocates nothing more.
//!
//! A channel whose holder has scheduled its release while nobody waits
//! keeps its record in a third state, [`PENDING`]: the release's
//! `(time, seq)` key waits in the table's slab of pending releases
//! instead of on the future-event list, until a request for the channel,
//! a purge or the end of the run resolves it. Before an insert would
//! double the table, the engine purges the pending releases keyed before
//! the event it is handling ([`HeldChans::make_room`]), so the table
//! follows the live traffic and not every channel a run has touched. The
//! slab reuses vacant entries, so it too stops allocating at its peak.

use crate::events::key_lt;

/// One held channel's arbitration record: `[chan, head, tail]`. `head` is
/// [`HELD`] (held, nobody waiting), [`PENDING`] (held, nobody waiting,
/// and the holder's release kept in slab entry `tail`), or the first
/// waiter's slab slot plus [`WAITER`]; `tail` is then the last waiter's,
/// offset alike. Waiters link through the message slab (each message's
/// `next`) and leave only from the front (granted, or dropped at the grant
/// when the channel failed meanwhile). A slot whose `head` is [`FREE`]
/// holds no record.
pub(crate) type Held = [u32; 3];

/// `head` of a slot that holds no record; a channel without a record is
/// free.
pub(crate) const FREE: u32 = 0;
/// `head` of a held channel nobody waits for; also the `next` link of the
/// last waiter.
pub(crate) const HELD: u32 = 1;
/// `head` of a held channel nobody waits for whose release is pending in
/// the table's slab, at index `tail`.
pub(crate) const PENDING: u32 = 2;
/// Offset of a slab slot stored in a FIFO link.
pub(crate) const WAITER: u32 = 3;

/// An empty slot. All zeros, so a new table is allocated zeroed.
const EMPTY: Held = [0, FREE, 0];

/// log₂ of a new table's capacity.
const MIN_BITS: u32 = 4;

/// A channel release kept beside the future-event list: the key it would
/// pop under, and the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Release {
    pub(crate) free_at: f64,
    pub(crate) seq: u64,
    pub(crate) chan: u32,
}

/// `seq` of a vacant slab entry; no event takes this sequence number.
const VACANT: u64 = u64::MAX;

/// Open-addressing table of the held channels' records, keyed by channel
/// id, with the slab of their pending releases (see the module doc).
#[derive(Debug)]
pub(crate) struct HeldChans {
    slots: Vec<Held>,
    /// Records in the table.
    len: usize,
    /// `32 − log₂(capacity)`: a key's home slot is the top bits of its
    /// 32-bit multiplicative hash.
    shift: u32,
    /// Pending releases, each reached from its [`PENDING`] record's
    /// `tail`; vacant entries have `seq` [`VACANT`] and are listed in
    /// `vacant`.
    releases: Vec<Release>,
    vacant: Vec<u32>,
}

impl Default for HeldChans {
    fn default() -> Self {
        HeldChans {
            slots: vec![EMPTY; 1 << MIN_BITS],
            len: 0,
            shift: 32 - MIN_BITS,
            releases: Vec::new(),
            vacant: Vec::new(),
        }
    }
}

impl HeldChans {
    /// Home slot of `chan`: Fibonacci hashing, so consecutive ids spread
    /// over the whole table.
    #[inline]
    fn home(&self, chan: u32) -> usize {
        (chan.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// The slot of `chan`'s record, or, if it has none, the empty slot
    /// where [`Self::insert`] puts it. Each probe reads one 12-byte slot.
    #[inline]
    pub(crate) fn find(&self, chan: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(chan);
        loop {
            let [key, head, _] = self.slots[i];
            if head == FREE || key == chan {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether slot `i` holds a record.
    #[inline]
    pub(crate) fn is_held(&self, i: usize) -> bool {
        self.slots[i][1] != FREE
    }

    /// The `head` of slot `i`: [`FREE`] when it holds no record.
    #[inline]
    pub(crate) fn head(&self, i: usize) -> u32 {
        self.slots[i][1]
    }

    /// The record in slot `i`.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut Held {
        &mut self.slots[i]
    }

    /// Whether the next [`Self::insert`] would double the table.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        2 * (self.len + 1) > self.slots.len()
    }

    /// Puts `rec` into slot `i`, the empty slot [`Self::find`] returned for
    /// its channel; `rec`'s `head` must not be [`FREE`]. If the table
    /// would pass half full, it doubles first and `rec` goes where the
    /// doubled table puts it.
    pub(crate) fn insert(&mut self, mut i: usize, rec: Held) {
        debug_assert!(!self.is_held(i) && rec[1] != FREE);
        if self.is_full() {
            self.grow();
            i = self.find(rec[0]);
        }
        self.slots[i] = rec;
        self.len += 1;
    }

    /// Removes the record in slot `i`. Each later record of the probe run
    /// whose home does not lie between the hole and itself moves back into
    /// the hole, which then moves on to the slot it left, so every record
    /// stays reachable from its home without tombstones.
    pub(crate) fn remove(&mut self, mut i: usize) {
        debug_assert!(self.is_held(i));
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let rec = self.slots[j];
            if rec[1] == FREE {
                break;
            }
            // Probe distance from the record's home to `j`, against the
            // hole's distance to `j`: the record may fill the hole only if
            // its home lies cyclically at or before the hole.
            if (j.wrapping_sub(self.home(rec[0])) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = rec;
                i = j;
            }
        }
        self.slots[i] = EMPTY;
        self.len -= 1;
    }

    /// Doubles the capacity and re-inserts every record.
    #[cold]
    fn grow(&mut self) {
        let doubled = vec![EMPTY; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for rec in old.into_iter().filter(|rec| rec[1] != FREE) {
            let i = self.find(rec[0]);
            self.slots[i] = rec;
        }
    }

    /// Keeps the release of the channel in slot `i`, held with nobody
    /// waiting, beside the list under the key `(free_at, seq)`: the record
    /// turns [`PENDING`].
    #[inline]
    pub(crate) fn defer(&mut self, i: usize, free_at: f64, seq: u64) {
        debug_assert_eq!(self.slots[i][1], HELD);
        let rel = Release {
            free_at,
            seq,
            chan: self.slots[i][0],
        };
        let idx = match self.vacant.pop() {
            Some(idx) => {
                self.releases[idx as usize] = rel;
                idx
            }
            None => {
                self.releases.push(rel);
                (self.releases.len() - 1) as u32
            }
        };
        self.slots[i][1] = PENDING;
        self.slots[i][2] = idx;
    }

    /// Takes the pending release of the [`PENDING`] record in slot `i` and
    /// returns its key; the record turns [`HELD`].
    #[inline]
    pub(crate) fn take_pending(&mut self, i: usize) -> (f64, u64) {
        debug_assert_eq!(self.slots[i][1], PENDING);
        let idx = self.slots[i][2];
        let rel = self.releases[idx as usize];
        self.releases[idx as usize].seq = VACANT;
        self.vacant.push(idx);
        self.slots[i][1] = HELD;
        (rel.free_at, rel.seq)
    }

    /// Number of pending releases.
    #[inline]
    pub(crate) fn pending_len(&self) -> usize {
        self.releases.len() - self.vacant.len()
    }

    /// Resolves every pending release keyed before `key`: hands it to
    /// `resolve` and removes its channel's record, so the channel is free.
    /// The releases go in slab order, not key order.
    pub(crate) fn purge_before(&mut self, key: (f64, u64), mut resolve: impl FnMut(Release)) {
        for idx in 0..self.releases.len() {
            let rel = self.releases[idx];
            if rel.seq == VACANT || !key_lt((rel.free_at, rel.seq), key) {
                continue;
            }
            resolve(rel);
            let i = self.find(rel.chan);
            debug_assert_eq!(self.slots[i][1..], [PENDING, idx as u32]);
            self.remove(i);
            self.releases[idx].seq = VACANT;
            self.vacant.push(idx as u32);
        }
    }

    /// Makes room before an insert that would double the table: purges
    /// the pending releases keyed before `key` (see
    /// [`Self::purge_before`]), and doubles the table only if it is still
    /// more than 3/8 full. So at least an eighth of the capacity is
    /// inserted between two purges, which keeps their cost amortized.
    #[cold]
    pub(crate) fn make_room(&mut self, key: (f64, u64), resolve: impl FnMut(Release)) {
        self.purge_before(key, resolve);
        if 8 * (self.len + 1) > 3 * self.slots.len() {
            self.grow();
        }
    }

    /// Hands every pending release to `put` and empties the slab: each
    /// [`PENDING`] record turns [`HELD`], its release now the caller's.
    pub(crate) fn take_all_pending(&mut self, mut put: impl FnMut(Release)) {
        for rec in self.slots.iter_mut().filter(|rec| rec[1] == PENDING) {
            put(self.releases[rec[2] as usize]);
            rec[1] = HELD;
        }
        self.releases.clear();
        self.vacant.clear();
    }

    /// The held records, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Held> {
        self.slots.iter().filter(|rec| rec[1] != FREE)
    }

    /// Slots in the table.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries in the slab of pending releases, vacant ones included: its
    /// high-water mark.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.releases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// What the oracle keeps per held channel: the FIFO ends of a
    /// [`HELD`] or waited-for record, or a pending release's key.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum State {
        Ends(u32, u32),
        Pending(f64, u64),
    }

    /// Asserts that `table` holds exactly `oracle`'s records, each found
    /// from its own key, at a load of at most one half, and exactly its
    /// pending releases.
    fn assert_matches(table: &HeldChans, oracle: &BTreeMap<u32, State>) {
        assert_eq!(table.len, oracle.len());
        assert_eq!(table.iter().count(), oracle.len());
        let pending = oracle
            .values()
            .filter(|s| matches!(s, State::Pending(..)))
            .count();
        assert_eq!(table.pending_len(), pending);
        for (&chan, &state) in oracle {
            let i = table.find(chan);
            assert!(table.is_held(i), "channel {chan} lost");
            match state {
                State::Ends(head, tail) => assert_eq!(table.slots[i], [chan, head, tail]),
                State::Pending(free_at, seq) => {
                    assert_eq!(table.slots[i][..2], [chan, PENDING]);
                    let rel = table.releases[table.slots[i][2] as usize];
                    assert_eq!(rel, Release { free_at, seq, chan });
                }
            }
        }
        assert!(2 * table.len <= table.slots.len(), "load above one half");
    }

    /// Keys whose home slot in a `2^bits`-slot table is `slot`.
    fn keys_homed_at(bits: u32, slot: usize, count: usize) -> Vec<u32> {
        (0u32..)
            .filter(|&k| (k.wrapping_mul(0x9E37_79B9) >> (32 - bits)) as usize == slot)
            .take(count)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random insert, find, remove, defer, take and purge sequences,
        /// checked against a `BTreeMap` after every step. Keys come from
        /// three pools: keys homed at the last slot of the new table (their
        /// probe runs collide and wrap past the end), keys homed at one
        /// middle slot (collisions inside the table), and a wide range that
        /// drives the table through several doublings. Pending releases
        /// fall on a coarse time grid, so purge keys split them at equal
        /// times by sequence number.
        #[test]
        fn held_table_matches_a_btreemap(
            ops in prop::collection::vec((0u32..16, 0u32..36, 0u32..2_000, 3u32..1_000), 400..1_600),
        ) {
            let last = keys_homed_at(MIN_BITS, (1 << MIN_BITS) - 1, 12);
            let middle = keys_homed_at(MIN_BITS, 5, 12);
            let mut table = HeldChans::default();
            let mut oracle = BTreeMap::new();
            let (mut wrapped, mut grew, mut purged) = (false, 0, 0);
            let mut seq = 0u64;
            for (kind, pick, wide, value) in ops {
                let chan = match pick % 3 {
                    0 => last[(pick / 3) as usize],
                    1 => middle[(pick / 3) as usize],
                    _ => wide * 7,
                };
                let i = table.find(chan);
                prop_assert_eq!(table.is_held(i), oracle.contains_key(&chan));
                let capacity = table.slots.len();
                let time = f64::from(value % 8);
                match kind {
                    // Insert (or, when present, update the FIFO ends).
                    0..=5 => {
                        let head = if value % 4 == 0 { HELD } else { value };
                        let rec = [chan, head, value ^ 1];
                        if table.is_held(i) {
                            if table.head(i) == PENDING {
                                table.take_pending(i);
                            }
                            *table.get_mut(i) = rec;
                        } else {
                            wrapped |= i < table.home(chan);
                            table.insert(i, rec);
                        }
                        oracle.insert(chan, State::Ends(head, value ^ 1));
                    }
                    // Remove, when present and not pending.
                    6 | 7 => {
                        if table.is_held(i) && table.head(i) != PENDING {
                            table.remove(i);
                            oracle.remove(&chan);
                        }
                    }
                    // Defer the release of a held channel nobody waits for.
                    8..=10 => {
                        if table.is_held(i) && table.head(i) == HELD {
                            prop_assert!(matches!(oracle[&chan], State::Ends(HELD, _)));
                            seq += 1;
                            table.defer(i, time, seq);
                            oracle.insert(chan, State::Pending(time, seq));
                        }
                    }
                    // Take a pending release back: the record turns HELD.
                    11 | 12 => {
                        if let Some(&State::Pending(free_at, s)) = oracle.get(&chan) {
                            prop_assert_eq!(table.take_pending(i), (free_at, s));
                            let tail = table.slots[i][2];
                            oracle.insert(chan, State::Ends(HELD, tail));
                        }
                    }
                    // Purge, or make room, before a key on the grid.
                    _ => {
                        let key = (time, seq.saturating_sub(u64::from(wide % 64)));
                        let due: Vec<Release> = oracle
                            .iter()
                            .filter_map(|(&chan, &s)| match s {
                                State::Pending(free_at, seq)
                                    if key_lt((free_at, seq), key) =>
                                {
                                    Some(Release { free_at, seq, chan })
                                }
                                _ => None,
                            })
                            .collect();
                        let mut resolved = Vec::new();
                        if kind == 15 && table.is_full() {
                            table.make_room(key, |r| resolved.push(r));
                        } else {
                            table.purge_before(key, |r| resolved.push(r));
                        }
                        resolved.sort_by_key(|r| r.chan);
                        prop_assert_eq!(&resolved, &due);
                        purged += resolved.len();
                        for r in &due {
                            oracle.remove(&r.chan);
                        }
                    }
                }
                if table.slots.len() > capacity {
                    grew += 1;
                }
                assert_matches(&table, &oracle);
            }
            prop_assert!(grew >= 3, "only {} doublings", grew);
            prop_assert!(wrapped, "no probe run wrapped past the end");
            prop_assert!(purged > 0, "no purge resolved a release");
            // Handing every pending release over leaves none, and turns
            // each pending record into a held one.
            let mut handed = Vec::new();
            table.take_all_pending(|r| handed.push(r.chan));
            prop_assert_eq!(table.pending_len(), 0);
            for chan in handed {
                let i = table.find(chan);
                prop_assert_eq!(table.head(i), HELD);
                prop_assert!(matches!(oracle.get(&chan), Some(State::Pending(..))));
            }
        }
    }

    #[test]
    fn removal_shifts_a_wrapped_run_back_into_place() {
        // Four keys homed at the last slot fill it and wrap to slots 0–2;
        // removing the first must pull each later one back one slot, across
        // the wrap, and leave the run's old last slot empty.
        let keys = keys_homed_at(MIN_BITS, (1 << MIN_BITS) - 1, 4);
        let mut table = HeldChans::default();
        for &k in &keys {
            let i = table.find(k);
            table.insert(i, [k, HELD, 0]);
        }
        let slots =
            |t: &HeldChans, keys: &[u32]| keys.iter().map(|&k| t.find(k)).collect::<Vec<_>>();
        assert_eq!(slots(&table, &keys), [15, 0, 1, 2]);
        table.remove(table.find(keys[0]));
        assert_eq!(slots(&table, &keys[1..]), [15, 0, 1]);
        assert!(!table.is_held(2));
        assert!(!table.is_held(table.find(keys[0])));
    }
}
