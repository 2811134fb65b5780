//! Crash-consistent checkpoint storage in simulated FRAM.
//!
//! The MSP430FR5989's FRAM is nonvolatile: a brownout wipes SRAM and
//! resets the QM state machines, but bytes written to FRAM survive the
//! power cycle. This module models a small reserved NVRAM region at the
//! top of the memory map holding an **A/B double-buffered,
//! generation-numbered, CRC-guarded** checkpoint, so the recovery path
//! can resume detection after a reboot without re-enrollment.
//!
//! Commit protocol (per slot, all integers little-endian):
//!
//! | offset | bytes | field |
//! |--------|-------|------------------------------------|
//! | 0      | 4     | magic `0x4B50_4331` (`"1CPK"`)     |
//! | 4      | 4     | generation number                  |
//! | 8      | 4     | payload length                     |
//! | 12     | 4     | CRC-32 over generation‖length‖payload |
//! | 16     | …     | payload                            |
//!
//! A commit targets the slot that does **not** hold the newest valid
//! generation and writes, in order: (1) zero the magic word, (2) the
//! payload, (3) the generation, (4) the length, (5) the CRC, (6) the
//! magic word last. Power loss at *any* byte offset of that sequence
//! leaves the slot either all-zero in the header (empty) or without a
//! complete magic word / with a failing CRC (invalid) — every magic
//! byte is nonzero, so a partially (re)written magic word can never
//! match — and the previous generation in the other slot stays intact.
//! [`CheckpointStore::restore`] therefore always returns the newest
//! checkpoint that passes its CRC, or reports corruption; it can never
//! return torn or bit-rotted bytes as valid.
//!
//! Choosing a commit's target slot needs both slots' classification
//! (empty / invalid / valid generation). The store memoizes it per
//! slot, and the memo is a pure function of the region bytes: a complete
//! commit sets its target's entry to the valid state it just wrote, and
//! every torn commit and bit flip clears the memo, so the next reader
//! re-verifies from the bytes. A steady-state commit therefore runs
//! exactly one CRC pass, over its own new slot.
//!
//! This module models code inside the power-fail window, so it follows
//! the embedded profile (no heap, no panics, no floats, no unchecked
//! indexing) — certified by the analyzer's `ckpt-embedded-profile`
//! rule.

use crate::AmuletError;
use ml::embedded::crc32;

/// Size of the reserved checkpoint region, bytes (two slots).
pub const NVRAM_BYTES: usize = 4096;

/// Size of one checkpoint slot, bytes.
pub const SLOT_BYTES: usize = NVRAM_BYTES / 2;

/// Fixed per-slot header: magic + generation + length + CRC.
pub const HEADER_BYTES: usize = 16;

/// Largest payload one slot can hold.
pub const MAX_PAYLOAD_BYTES: usize = SLOT_BYTES - HEADER_BYTES;

/// Slot magic word (`"1CPK"` little-endian). Every byte is nonzero so
/// that a torn magic write — which proceeds low byte first over a
/// previously zeroed field — can never reconstruct a valid magic.
pub const MAGIC: u32 = 0x4B50_4331;

/// The slot CRC over generation‖length‖payload, fed field by field
/// through the workspace's bitwise, table-free CRC-32 (the device would
/// trade 1 KB of FRAM for a lookup table; the simulator keeps the
/// footprint honest).
fn slot_crc(generation: u32, len: u32, payload: &[u8]) -> u32 {
    let crc = crc32(0, &generation.to_le_bytes());
    let crc = crc32(crc, &len.to_le_bytes());
    crc32(crc, payload)
}

/// Read a little-endian `u32` at `at` (zero-padded past the end).
fn read_u32(region: &[u8], at: usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    for &b in region.iter().skip(at).take(4) {
        v |= u32::from(b) << shift;
        shift += 8;
    }
    v
}

/// Write `src` at `at`, consuming one unit of `budget` per byte and
/// stopping silently when the budget runs out — this is the torn-write
/// injection point: a power loss mid-commit is "the budget ran out".
fn write_bytes(region: &mut [u8], at: usize, src: &[u8], budget: &mut usize) {
    for (dst, &b) in region.iter_mut().skip(at).zip(src.iter()) {
        if *budget == 0 {
            return;
        }
        *dst = b;
        *budget -= 1;
    }
}

/// Classification of one slot's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Header is all zero: never written (or a commit died immediately).
    Empty,
    /// Header present but magic, length, or CRC does not check out.
    Invalid,
    /// Complete, CRC-verified checkpoint.
    Valid { generation: u32, len: usize },
}

/// Result of [`CheckpointStore::restore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restore<'a> {
    /// No checkpoint was ever committed.
    Empty,
    /// Both slots are corrupt (or one corrupt, one never written):
    /// nothing trustworthy to resume from.
    Corrupt,
    /// The newest CRC-verified checkpoint.
    Valid {
        /// Generation number of the surviving checkpoint.
        generation: u32,
        /// Its payload bytes, exactly as committed.
        payload: &'a [u8],
        /// True when the *other* slot held a torn or bit-rotted commit
        /// that was detected and discarded — i.e. this restore is a
        /// rollback to the previous generation.
        rolled_back: bool,
    },
}

/// Running commit counters (diagnostics; not part of any digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// Commits attempted (complete and torn).
    pub commits: u64,
    /// Commits deliberately torn by fault injection.
    pub torn_commits: u64,
}

/// The A/B checkpoint store over the reserved FRAM region.
#[derive(Clone)]
pub struct CheckpointStore {
    region: [u8; NVRAM_BYTES],
    next_generation: u32,
    stats: CheckpointStats,
    /// Memoized classification of slots A and B (`None`: not yet
    /// classified from the current bytes).
    memo: [Option<SlotState>; 2],
}

impl core::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("next_generation", &self.next_generation)
            .field("slot_a", &self.slot_state(0))
            .field("slot_b", &self.slot_state(1))
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for CheckpointStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointStore {
    /// A blank store (factory-fresh FRAM, both slots empty).
    pub fn new() -> Self {
        Self {
            region: [0; NVRAM_BYTES],
            next_generation: 1,
            stats: CheckpointStats::default(),
            memo: [None; 2],
        }
    }

    /// Commit counters.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// Total bytes written by a complete commit of `payload_len` bytes:
    /// 4 (magic zeroing) + payload + 12 (generation, length, CRC) + 4
    /// (magic). Torn-write injection cuts are offsets into this range.
    pub const fn commit_sequence_len(payload_len: usize) -> usize {
        payload_len + HEADER_BYTES + 4
    }

    /// Commit `payload` as the next generation, returning the
    /// generation number written.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::CheckpointTooLarge`] when the payload
    /// exceeds [`MAX_PAYLOAD_BYTES`]; nothing is written.
    pub fn commit(&mut self, payload: &[u8]) -> Result<u32, AmuletError> {
        let (slot, generation) = self.commit_inner(payload, usize::MAX)?;
        // The complete write sequence leaves exactly this state behind.
        if let Some(entry) = self.memo.get_mut(slot) {
            *entry = Some(SlotState::Valid {
                generation,
                len: payload.len(),
            });
        }
        Ok(generation)
    }

    /// Commit `payload` but lose power after exactly `cut_after_bytes`
    /// bytes of the write sequence have reached FRAM (fault injection).
    /// The generation counter still advances: the device believed it
    /// was committing.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::CheckpointTooLarge`] exactly as
    /// [`CheckpointStore::commit`] does.
    pub fn commit_torn(
        &mut self,
        payload: &[u8],
        cut_after_bytes: usize,
    ) -> Result<u32, AmuletError> {
        let (_, gen) = self.commit_inner(payload, cut_after_bytes)?;
        self.stats.torn_commits += 1;
        // Whatever prefix landed, only the bytes can tell what it is.
        self.memo = [None; 2];
        Ok(gen)
    }

    /// Run the ordered write sequence under `budget`, returning the
    /// target slot and the generation written. Leaves the target's memo
    /// entry stale: the caller settles it.
    fn commit_inner(
        &mut self,
        payload: &[u8],
        mut budget: usize,
    ) -> Result<(usize, u32), AmuletError> {
        if payload.len() > MAX_PAYLOAD_BYTES {
            return Err(AmuletError::CheckpointTooLarge {
                requested: payload.len(),
                max: MAX_PAYLOAD_BYTES,
            });
        }
        let generation = self.next_generation;
        self.next_generation = self.next_generation.wrapping_add(1);
        self.stats.commits += 1;
        let slot = self.target_slot();
        let base = slot * SLOT_BYTES;
        let len = payload.len() as u32;
        let gen_bytes = generation.to_le_bytes();
        let len_bytes = len.to_le_bytes();
        let crc = slot_crc(generation, len, payload);
        // The ordered write sequence; see the module docs for why any
        // prefix of it leaves the slot detectably incomplete.
        write_bytes(&mut self.region, base, &[0; 4], &mut budget);
        write_bytes(&mut self.region, base + HEADER_BYTES, payload, &mut budget);
        write_bytes(&mut self.region, base + 4, &gen_bytes, &mut budget);
        write_bytes(&mut self.region, base + 8, &len_bytes, &mut budget);
        write_bytes(&mut self.region, base + 12, &crc.to_le_bytes(), &mut budget);
        write_bytes(&mut self.region, base, &MAGIC.to_le_bytes(), &mut budget);
        Ok((slot, generation))
    }

    /// The newest checkpoint that passes its CRC, if any. Pure: restore
    /// never writes, so a failed recovery can be retried or abandoned
    /// without further state loss. Warm memo entries are trusted; a cold
    /// slot is verified from its bytes, CRC included.
    pub fn restore(&self) -> Restore<'_> {
        self.restore_from(self.current_slot_state(0), self.current_slot_state(1))
    }

    /// [`CheckpointStore::restore`] given both slots' classification.
    fn restore_from(&self, a: SlotState, b: SlotState) -> Restore<'_> {
        let invalid = matches!(a, SlotState::Invalid) || matches!(b, SlotState::Invalid);
        let best = match (a, b) {
            (
                SlotState::Valid { generation: ga, len: la },
                SlotState::Valid { generation: gb, len: lb },
            ) => {
                if ga >= gb {
                    Some((0, ga, la))
                } else {
                    Some((1, gb, lb))
                }
            }
            (SlotState::Valid { generation, len }, _) => Some((0, generation, len)),
            (_, SlotState::Valid { generation, len }) => Some((1, generation, len)),
            _ => None,
        };
        match best {
            Some((slot, generation, len)) => {
                let start = slot * SLOT_BYTES + HEADER_BYTES;
                let payload = self.region.get(start..start + len).unwrap_or(&[]);
                Restore::Valid {
                    generation,
                    payload,
                    rolled_back: invalid,
                }
            }
            None if invalid => Restore::Corrupt,
            None => Restore::Empty,
        }
    }

    /// Flip one bit of the raw region (bit-rot fault injection).
    /// Out-of-range byte offsets are ignored; the bit index wraps
    /// modulo 8.
    pub fn flip_bit(&mut self, byte: usize, bit: u8) {
        if let Some(b) = self.region.get_mut(byte) {
            *b ^= 1u8 << (bit & 7);
        }
        self.memo = [None; 2];
    }

    /// Which slot the next commit overwrites, memoizing both slots'
    /// classification on the way.
    fn target_slot(&mut self) -> usize {
        target_of(self.memoize_slot(0), self.memoize_slot(1))
    }

    /// `slot`'s classification: the memo entry when warm, otherwise
    /// verified from the bytes and memoized.
    fn memoize_slot(&mut self, slot: usize) -> SlotState {
        let state = self.current_slot_state(slot);
        if let Some(entry) = self.memo.get_mut(slot) {
            *entry = Some(state);
        }
        state
    }

    /// `slot`'s classification without touching the memo.
    fn current_slot_state(&self, slot: usize) -> SlotState {
        match self.memo.get(slot) {
            Some(&Some(state)) => state,
            _ => self.slot_state(slot),
        }
    }

    /// Classify `slot` from its bytes alone, ignoring the memo: the
    /// full CRC verification.
    fn slot_state(&self, slot: usize) -> SlotState {
        let base = slot * SLOT_BYTES;
        let header_zero = self
            .region
            .iter()
            .skip(base)
            .take(HEADER_BYTES)
            .all(|&b| b == 0);
        if header_zero {
            return SlotState::Empty;
        }
        if read_u32(&self.region, base) != MAGIC {
            return SlotState::Invalid;
        }
        let generation = read_u32(&self.region, base + 4);
        let len = read_u32(&self.region, base + 8) as usize;
        if len > MAX_PAYLOAD_BYTES {
            return SlotState::Invalid;
        }
        let start = base + HEADER_BYTES;
        let payload = self.region.get(start..start + len).unwrap_or(&[]);
        if slot_crc(generation, len as u32, payload) != read_u32(&self.region, base + 12) {
            return SlotState::Invalid;
        }
        SlotState::Valid { generation, len }
    }
}

/// The slot a commit overwrites given both slots' classification: the
/// one *not* holding the newest valid generation, so the newest
/// survivor is never put at risk by a commit.
fn target_of(a: SlotState, b: SlotState) -> usize {
    match (a, b) {
        (
            SlotState::Valid { generation: ga, .. },
            SlotState::Valid { generation: gb, .. },
        ) if ga >= gb => 1,
        (SlotState::Valid { .. }, SlotState::Valid { .. }) => 0,
        (SlotState::Valid { .. }, _) => 1,
        (_, SlotState::Valid { .. }) => 0,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ (i as u8)).collect()
    }

    fn expect_valid(store: &CheckpointStore) -> (u32, Vec<u8>, bool) {
        match store.restore() {
            Restore::Valid {
                generation,
                payload,
                rolled_back,
            } => (generation, payload.to_vec(), rolled_back),
            other => panic!("expected a valid restore, got {other:?}"),
        }
    }

    #[test]
    fn fresh_store_is_empty() {
        let store = CheckpointStore::new();
        assert_eq!(store.restore(), Restore::Empty);
        assert_eq!(store.stats(), CheckpointStats::default());
    }

    #[test]
    fn commit_restore_round_trip() {
        let mut store = CheckpointStore::new();
        let p = payload(0xA5, 100);
        let gen = store.commit(&p).unwrap();
        assert_eq!(gen, 1);
        let (g, bytes, rolled_back) = expect_valid(&store);
        assert_eq!(g, 1);
        assert_eq!(bytes, p);
        assert!(!rolled_back);
    }

    #[test]
    fn commits_alternate_slots_and_keep_the_newest() {
        let mut store = CheckpointStore::new();
        for i in 0..5u8 {
            let p = payload(i, 64 + usize::from(i));
            let gen = store.commit(&p).unwrap();
            assert_eq!(gen, u32::from(i) + 1);
            let (g, bytes, _) = expect_valid(&store);
            assert_eq!(g, gen);
            assert_eq!(bytes, p);
        }
        assert_eq!(store.stats().commits, 5);
    }

    #[test]
    fn empty_payload_commits() {
        let mut store = CheckpointStore::new();
        store.commit(&[]).unwrap();
        let (g, bytes, _) = expect_valid(&store);
        assert_eq!(g, 1);
        assert!(bytes.is_empty());
    }

    #[test]
    fn oversized_payload_rejected_without_write() {
        let mut store = CheckpointStore::new();
        let p = payload(1, MAX_PAYLOAD_BYTES + 1);
        let err = store.commit(&p).unwrap_err();
        assert_eq!(
            err,
            AmuletError::CheckpointTooLarge {
                requested: MAX_PAYLOAD_BYTES + 1,
                max: MAX_PAYLOAD_BYTES
            }
        );
        assert_eq!(store.restore(), Restore::Empty);
        assert_eq!(store.stats().commits, 0);
    }

    #[test]
    fn max_payload_fits() {
        let mut store = CheckpointStore::new();
        let p = payload(7, MAX_PAYLOAD_BYTES);
        store.commit(&p).unwrap();
        let (_, bytes, _) = expect_valid(&store);
        assert_eq!(bytes, p);
    }

    /// The tentpole invariant, exhaustively: a commit torn at *every*
    /// byte offset of the write sequence either leaves the previous
    /// generation restorable or (only at the full length) completes.
    /// No cut point ever yields accepted-but-corrupt bytes.
    #[test]
    fn torn_commit_at_every_offset_rolls_back() {
        let old = payload(0x11, 96);
        let new = payload(0x22, 128);
        let seq = CheckpointStore::commit_sequence_len(new.len());
        for cut in 0..=seq {
            let mut store = CheckpointStore::new();
            store.commit(&old).unwrap();
            store.commit_torn(&new, cut).unwrap();
            let (g, bytes, rolled_back) = expect_valid(&store);
            if cut == seq {
                assert_eq!(g, 2, "cut {cut}: full sequence must commit");
                assert_eq!(bytes, new);
                assert!(!rolled_back);
            } else {
                assert_eq!(g, 1, "cut {cut}: must roll back to generation 1");
                assert_eq!(bytes, old, "cut {cut}: old payload must survive");
                // A cut inside the magic-zeroing or payload phase leaves
                // the target header all zero — indistinguishable from an
                // empty slot; once header bytes land, the slot is a
                // detected (rolled-back) torn commit.
                assert_eq!(rolled_back, cut > 4 + new.len(), "cut {cut}");
            }
        }
    }

    /// Same sweep with both slots populated: tearing generation 3 (which
    /// targets the slot holding generation 1) must always fall back to
    /// generation 2, never resurrect generation 1's bytes as newest.
    #[test]
    fn torn_third_commit_falls_back_to_second() {
        let a = payload(0x31, 80);
        let b = payload(0x32, 70);
        let c = payload(0x33, 90);
        let seq = CheckpointStore::commit_sequence_len(c.len());
        for cut in 0..=seq {
            let mut store = CheckpointStore::new();
            store.commit(&a).unwrap();
            store.commit(&b).unwrap();
            store.commit_torn(&c, cut).unwrap();
            let (g, bytes, _) = expect_valid(&store);
            if cut == seq {
                assert_eq!((g, &bytes), (3, &c), "cut {cut}");
            } else {
                assert_eq!((g, &bytes), (2, &b), "cut {cut}");
            }
        }
    }

    #[test]
    fn torn_first_commit_reports_corrupt_or_empty_never_valid() {
        let p = payload(0x44, 50);
        let seq = CheckpointStore::commit_sequence_len(p.len());
        for cut in 0..seq {
            let mut store = CheckpointStore::new();
            store.commit_torn(&p, cut).unwrap();
            match store.restore() {
                Restore::Empty | Restore::Corrupt => {}
                Restore::Valid { .. } => {
                    panic!("cut {cut}: torn first commit must never restore as valid")
                }
            }
        }
    }

    /// Bit-rot anywhere in the newest slot is detected by CRC and rolls
    /// back to the previous generation.
    #[test]
    fn bit_rot_in_newest_slot_rolls_back() {
        let old = payload(0x55, 64);
        let new = payload(0x66, 64);
        let mut store = CheckpointStore::new();
        store.commit(&old).unwrap(); // slot 0, gen 1
        store.commit(&new).unwrap(); // slot 1, gen 2
        // Flip a payload bit of the newest checkpoint (slot 1).
        store.flip_bit(SLOT_BYTES + HEADER_BYTES + 10, 3);
        let (g, bytes, rolled_back) = expect_valid(&store);
        assert_eq!(g, 1);
        assert_eq!(bytes, old);
        assert!(rolled_back);
    }

    #[test]
    fn bit_rot_in_both_slots_is_corrupt_not_garbage() {
        let mut store = CheckpointStore::new();
        store.commit(&payload(0x77, 32)).unwrap();
        store.commit(&payload(0x78, 32)).unwrap();
        store.flip_bit(HEADER_BYTES + 1, 0);
        store.flip_bit(SLOT_BYTES + HEADER_BYTES + 1, 0);
        assert_eq!(store.restore(), Restore::Corrupt);
    }

    #[test]
    fn bit_rot_out_of_range_is_ignored() {
        let mut store = CheckpointStore::new();
        store.commit(&payload(0x79, 16)).unwrap();
        store.flip_bit(NVRAM_BYTES + 100, 0);
        let (g, _, rolled_back) = expect_valid(&store);
        assert_eq!(g, 1);
        assert!(!rolled_back);
    }

    #[test]
    fn recommit_after_torn_commit_recovers_the_slot() {
        let mut store = CheckpointStore::new();
        store.commit(&payload(1, 40)).unwrap();
        // Cut mid-header (after the payload phase) so the tear is
        // detectable, not just an empty slot.
        store.commit_torn(&payload(2, 40), 4 + 40 + 6).unwrap();
        let (g, _, rolled_back) = expect_valid(&store);
        assert_eq!(g, 1);
        assert!(rolled_back);
        // The next commit reuses the torn slot (the valid survivor is
        // never the target) and succeeds.
        store.commit(&payload(3, 40)).unwrap();
        let (g, bytes, rolled_back) = expect_valid(&store);
        assert_eq!(g, 3);
        assert_eq!(bytes, payload(3, 40));
        assert!(!rolled_back);
        assert_eq!(store.stats().torn_commits, 1);
    }

    /// The memo is a pure function of the region bytes: after any mix of
    /// complete commits, torn commits at any cut and bit flips, every
    /// warm entry equals a from-scratch classification, and the target
    /// slot and `restore()` agree with one computed from the bytes alone.
    mod memo_props {
        use super::*;
        use proptest::prelude::*;

        fn assert_memo_matches_bytes(store: &CheckpointStore, step: usize) {
            let fresh = [store.slot_state(0), store.slot_state(1)];
            for (slot, entry) in store.memo.iter().enumerate() {
                if let Some(state) = entry {
                    assert_eq!(*state, fresh[slot], "step {step}: slot {slot} memo");
                }
            }
            assert_eq!(
                store.clone().target_slot(),
                target_of(fresh[0], fresh[1]),
                "step {step}: target slot"
            );
            assert_eq!(
                store.restore(),
                store.restore_from(fresh[0], fresh[1]),
                "step {step}: restore"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            #[test]
            fn memo_agrees_with_from_scratch_classification(
                ops in prop::collection::vec(
                    (0u8..4, 0usize..240, any::<u8>(), 0usize..4096, 0u8..8),
                    1..48,
                )
            ) {
                let mut store = CheckpointStore::new();
                for (step, &(kind, len, tag, pos, bit)) in ops.iter().enumerate() {
                    // Rarely oversized, to cover the rejected commit too.
                    let len = if len == 239 { MAX_PAYLOAD_BYTES + 1 } else { len };
                    let p = payload(tag, len);
                    match kind {
                        // Complete commits are twice as likely: the
                        // steady state is what the memo speeds up.
                        0 | 1 => {
                            let _ = store.commit(&p);
                        }
                        2 => {
                            let seq = CheckpointStore::commit_sequence_len(len);
                            let _ = store.commit_torn(&p, pos % (seq + 2));
                        }
                        _ => {
                            // Mostly header and live payload bytes, of
                            // either slot; sometimes past the region.
                            let off = pos % (HEADER_BYTES + 256);
                            let byte = if pos % 17 == 0 {
                                NVRAM_BYTES + off
                            } else {
                                usize::from(tag & 1) * SLOT_BYTES + off
                            };
                            store.flip_bit(byte, bit);
                        }
                    }
                    assert_memo_matches_bytes(&store, step);
                }
            }
        }
    }

    #[test]
    fn steady_state_commits_keep_both_slots_memoized() {
        let mut store = CheckpointStore::new();
        store.commit(&payload(1, 40)).unwrap();
        store.commit(&payload(2, 40)).unwrap();
        assert!(store.memo.iter().all(Option::is_some));
        store.flip_bit(3, 0);
        assert_eq!(store.memo, [None; 2], "a bit flip clears the memo");
        store.commit(&payload(3, 40)).unwrap();
        assert!(store.memo.iter().all(Option::is_some));
        store.commit_torn(&payload(4, 40), 10).unwrap();
        assert_eq!(store.memo, [None; 2], "a torn commit clears the memo");
    }

    #[test]
    fn slot_crc_covers_generation_length_and_payload() {
        // Fed field by field, it is one CRC over the concatenation.
        let mut joined = Vec::new();
        joined.extend_from_slice(&7u32.to_le_bytes());
        joined.extend_from_slice(&9u32.to_le_bytes());
        joined.extend_from_slice(b"123456789");
        assert_eq!(slot_crc(7, 9, b"123456789"), crc32(0, &joined));
        assert_ne!(slot_crc(8, 9, b"123456789"), slot_crc(7, 9, b"123456789"));
    }
}
