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

/// One held channel's arbitration record: `[chan, head, tail]`. `head` is
/// [`HELD`] (held, nobody waiting) or the first waiter's slab slot plus
/// [`WAITER`]; `tail` is the last waiter's, offset alike and meaningful
/// only while someone waits. Waiters link through the message slab (each
/// message's `next`) and leave only from the front (granted, or dropped
/// at the grant when the channel failed meanwhile). A slot whose `head`
/// is [`FREE`] holds no record.
pub(crate) type Held = [u32; 3];

/// `head` of a slot that holds no record; a channel without a record is
/// free.
pub(crate) const FREE: u32 = 0;
/// `head` of a held channel nobody waits for; also the `next` link of the
/// last waiter.
pub(crate) const HELD: u32 = 1;
/// Offset of a slab slot stored in a FIFO link.
pub(crate) const WAITER: u32 = 2;

/// An empty slot. All zeros, so a new table is allocated zeroed.
const EMPTY: Held = [0, FREE, 0];

/// log₂ of a new table's capacity.
const MIN_BITS: u32 = 4;

/// Open-addressing table of the held channels' records, keyed by channel
/// id (see the module doc).
#[derive(Debug)]
pub(crate) struct HeldChans {
    slots: Vec<Held>,
    /// Records in the table.
    len: usize,
    /// `32 − log₂(capacity)`: a key's home slot is the top bits of its
    /// 32-bit multiplicative hash.
    shift: u32,
}

impl Default for HeldChans {
    fn default() -> Self {
        HeldChans {
            slots: vec![EMPTY; 1 << MIN_BITS],
            len: 0,
            shift: 32 - MIN_BITS,
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

    /// The record in slot `i`.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut Held {
        &mut self.slots[i]
    }

    /// Puts `rec` into slot `i`, the empty slot [`Self::find`] returned for
    /// its channel; `rec`'s `head` must not be [`FREE`]. If the table
    /// would pass half full, it doubles first and `rec` goes where the
    /// doubled table puts it.
    pub(crate) fn insert(&mut self, mut i: usize, rec: Held) {
        debug_assert!(!self.is_held(i) && rec[1] != FREE);
        if 2 * (self.len + 1) > self.slots.len() {
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

    /// The held records, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Held> {
        self.slots.iter().filter(|rec| rec[1] != FREE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Asserts that `table` holds exactly `oracle`'s records, each found
    /// from its own key, at a load of at most one half.
    fn assert_matches(table: &HeldChans, oracle: &BTreeMap<u32, [u32; 2]>) {
        assert_eq!(table.len, oracle.len());
        assert_eq!(table.iter().count(), oracle.len());
        for (&chan, &[head, tail]) in oracle {
            let i = table.find(chan);
            assert!(table.is_held(i), "channel {chan} lost");
            assert_eq!(table.slots[i], [chan, head, tail]);
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

        /// Random insert, find and remove sequences, checked against a
        /// `BTreeMap` after every step. Keys come from three pools: keys
        /// homed at the last slot of the new table (their probe runs
        /// collide and wrap past the end), keys homed at one middle slot
        /// (collisions inside the table), and a wide range that drives the
        /// table through several doublings.
        #[test]
        fn held_table_matches_a_btreemap(
            ops in prop::collection::vec((0u32..10, 0u32..36, 0u32..2_000, 2u32..1_000), 400..1_600),
        ) {
            let last = keys_homed_at(MIN_BITS, (1 << MIN_BITS) - 1, 12);
            let middle = keys_homed_at(MIN_BITS, 5, 12);
            let mut table = HeldChans::default();
            let mut oracle = BTreeMap::new();
            let (mut wrapped, mut grew) = (false, 0);
            for (kind, pick, wide, value) in ops {
                let chan = match pick % 3 {
                    0 => last[(pick / 3) as usize],
                    1 => middle[(pick / 3) as usize],
                    _ => wide * 7,
                };
                let i = table.find(chan);
                prop_assert_eq!(table.is_held(i), oracle.contains_key(&chan));
                let capacity = table.slots.len();
                match kind {
                    // Insert (or, when present, update the FIFO ends).
                    0..=5 => {
                        let rec = [chan, value, value ^ 1];
                        if table.is_held(i) {
                            *table.get_mut(i) = rec;
                        } else {
                            wrapped |= i < table.home(chan);
                            table.insert(i, rec);
                        }
                        oracle.insert(chan, [value, value ^ 1]);
                    }
                    // Remove, when present.
                    _ => {
                        if table.is_held(i) {
                            table.remove(i);
                            oracle.remove(&chan);
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
