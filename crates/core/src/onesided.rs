//! One-sided fast-path reads over exported segments.
//!
//! Flock's thesis (paper §2) is that coalesced RPC beats one-sided
//! access once fan-in and message rate grow. To *measure* that, this
//! module is the one-sided contender: a server publishes versioned
//! value slots into an exported memory region ([`SegmentWriter`]), and
//! clients read them with raw RDMA READs plus version-word validation
//! ([`OneSidedReader`]) — zero server CPU per read, one NIC verb, no
//! coalescing. The crossover between the two is pinned by
//! `bench onesided` (see EXPERIMENTS.md, "RPC vs one-sided crossover").
//!
//! ## Slot layout and the validation protocol
//!
//! Every slot is `[version word: u64][len: u32][pad: u32][value bytes]`
//! ([`SlotLayout`]). The word follows the kvstore's seqlock convention
//! (`flock-kvstore`'s `versioned` module): bit 63 ([`LOCK_BIT`]) is the
//! write lock, the low 63 bits are the version. A publish goes
//!
//! 1. `word ← version | LOCK_BIT`   (writers observe the slot locked)
//! 2. value bytes + length
//! 3. `word ← version + 1`          (unlock and advance)
//!
//! The in-process fabric executes each verb atomically against a region
//! (one reader/writer lock acquisition per DMA, `flock_fabric::mr`), so
//! a remote READ spanning the whole slot observes the slot either
//! before step 1 (old word, old value — consistent), between steps
//! (locked word — rejected), or after step 3 (new word, new value —
//! consistent). A reader therefore validates with a single check — the
//! word must be unlocked and the length in bounds — and retries a
//! bounded number of times on rejection. This mirrors what real seqlock
//! readers over RDMA do (FaRM-style lock-free reads), compressed to the
//! torn-read granularity our fabric can actually produce.

use flock_fabric::RemoteAddr;
use std::sync::Arc;

use crate::client::{FlThread, MemToken, MEM_SUBSLOT_SIZE};
use crate::domain::SegmentLease;
use crate::error::{FlockError, Result};

/// Write-lock bit of a slot's version word (bit 63, matching the
/// kvstore's `versioned::LOCK_BIT` — the two paths share the seqlock
/// convention so a gateway can mirror store entries into a segment).
pub const LOCK_BIT: u64 = 1 << 63;

/// Byte layout of one versioned slot:
/// `[word: u64][len: u32][pad: u32][value: val_cap bytes]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    /// Total bytes per slot (8-byte aligned).
    pub stride: u32,
    /// Maximum value bytes a slot can hold.
    pub val_cap: u32,
}

impl SlotLayout {
    /// Bytes of header before the value: version word + length + pad.
    pub const HEADER: usize = 16;

    /// Layout for slots holding up to `val_cap` value bytes.
    pub fn for_value_cap(val_cap: u32) -> SlotLayout {
        let stride = (Self::HEADER as u32 + val_cap).next_multiple_of(8);
        SlotLayout { stride, val_cap }
    }

    /// Recover the layout from a lease (`meta` carries the value
    /// capacity by the [`SegmentWriter`] convention).
    pub fn from_lease(lease: &SegmentLease) -> SlotLayout {
        SlotLayout {
            stride: lease.stride,
            val_cap: lease.meta as u32,
        }
    }

    /// Byte offset of slot `i` from the segment base.
    pub fn slot_off(&self, slot: u32) -> usize {
        slot as usize * self.stride as usize
    }
}

/// A validated one-sided read: the version word observed and the number
/// of value bytes (the value itself is in the caller's buffer at
/// `[SlotLayout::HEADER..HEADER + len]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotValue {
    /// Unlocked version word the read observed.
    pub word: u64,
    /// Value length in bytes.
    pub len: usize,
}

/// Validate one slot image. `None` means the snapshot is unusable — the
/// word was locked (a publish was in flight) or the length is out of
/// bounds — and the caller should retry the read.
pub fn decode_slot(buf: &[u8], val_cap: u32) -> Option<SlotValue> {
    if buf.len() < SlotLayout::HEADER {
        return None;
    }
    let word = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    if word & LOCK_BIT != 0 {
        return None;
    }
    let len = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
    if len > val_cap as usize || SlotLayout::HEADER + len > buf.len() {
        return None;
    }
    Some(SlotValue { word, len })
}

/// Server-side publisher of a versioned slot segment inside a memory
/// region registered with `fl_attach_mreg`. Pair with
/// `FlockServer::export_segment` to hand clients the lease.
pub struct SegmentWriter {
    mr: Arc<flock_fabric::MemoryRegion>,
    base: usize,
    layout: SlotLayout,
    slots: u32,
}

impl SegmentWriter {
    /// Wrap `slots` slots of `layout` starting at byte `base` of `mr`,
    /// initializing every version word to the unlocked version 0.
    pub fn new(
        mr: Arc<flock_fabric::MemoryRegion>,
        base: usize,
        layout: SlotLayout,
        slots: u32,
    ) -> Result<SegmentWriter> {
        let need = base + layout.stride as usize * slots as usize;
        if layout.stride < SlotLayout::HEADER as u32 || need > mr.len() {
            return Err(FlockError::CorruptMessage("segment overruns its region"));
        }
        let w = SegmentWriter {
            mr,
            base,
            layout,
            slots,
        };
        for s in 0..slots {
            w.mr.write_u64(w.off(s)?, 0)
                .map_err(|_| FlockError::RemoteOpFailed("segment init failed"))?;
        }
        Ok(w)
    }

    /// The layout this writer publishes with.
    pub fn layout(&self) -> SlotLayout {
        self.layout
    }

    /// Number of slots.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    fn off(&self, slot: u32) -> Result<usize> {
        if slot >= self.slots {
            return Err(FlockError::RemoteOpFailed("slot out of range"));
        }
        Ok(self.base + self.layout.slot_off(slot))
    }

    /// Seqlock-publish `value` into `slot`: lock the word, write the
    /// payload, unlock with the version advanced. Returns the new word.
    pub fn publish(&self, slot: u32, value: &[u8]) -> Result<u64> {
        let cur = self
            .mr
            .read_u64(self.off(slot)?)
            .map_err(|_| FlockError::RemoteOpFailed("segment read failed"))?;
        let next = ((cur & !LOCK_BIT) + 1) & !LOCK_BIT;
        self.publish_with_word(slot, value, next)?;
        Ok(next)
    }

    /// Seqlock-publish with a caller-supplied final word (must be
    /// unlocked). Lets a store mirror its own version words into the
    /// segment so RPC and one-sided readers agree on versions.
    pub fn publish_with_word(&self, slot: u32, value: &[u8], word: u64) -> Result<()> {
        if word & LOCK_BIT != 0 {
            return Err(FlockError::RemoteOpFailed("published word is locked"));
        }
        if value.len() > self.layout.val_cap as usize {
            return Err(FlockError::MessageTooLarge {
                need: value.len(),
                capacity: self.layout.val_cap as usize,
            });
        }
        let off = self.off(slot)?;
        let fail = |_| FlockError::RemoteOpFailed("segment write failed");
        // Step 1: lock. Readers that snapshot from here on reject.
        self.mr.write_u64(off, word | LOCK_BIT).map_err(fail)?;
        // Step 2: payload (length, then bytes).
        let mut hdr = [0u8; 8];
        hdr[..4].copy_from_slice(&(value.len() as u32).to_le_bytes());
        self.mr.write(off + 8, &hdr).map_err(fail)?;
        self.mr.write(off + SlotLayout::HEADER, value).map_err(fail)?;
        // Step 3: unlock with the final word.
        self.mr.write_u64(off, word).map_err(fail)?;
        Ok(())
    }
}

/// Counters a [`OneSidedReader`] accumulates; the `Adaptive` read mode
/// keys off the retry rate observable here.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadStats {
    /// Successfully validated slot reads.
    pub reads: u64,
    /// RDMA READ verbs issued (reads + retries).
    pub verbs: u64,
    /// Snapshots rejected as locked/torn and re-issued.
    pub retries: u64,
    /// Reads abandoned after the retry bound.
    pub failures: u64,
}

/// Default bound on re-reads of a locked/torn slot before giving up.
pub const DEFAULT_MAX_RETRIES: u32 = 16;

/// Client-side one-sided reader over a [`SegmentLease`].
///
/// Owns no connection state — the issuing [`FlThread`] is passed per
/// call, so one reader per application thread is the intended shape.
/// The token buffer is reused across calls; with a caller-provided
/// landing buffer the read/validate loop allocates nothing in steady
/// state (enforced by `cargo xtask lint`).
pub struct OneSidedReader {
    lease: SegmentLease,
    layout: SlotLayout,
    max_retries: u32,
    tokens: Vec<MemToken>,
    stats: ReadStats,
}

impl OneSidedReader {
    /// Build a reader over `lease`. Slots must fit one scratch sub-slot
    /// ([`MEM_SUBSLOT_SIZE`] bytes) so a slot read is a single verb.
    pub fn new(lease: SegmentLease) -> Result<OneSidedReader> {
        if lease.stride as usize > MEM_SUBSLOT_SIZE {
            return Err(FlockError::MessageTooLarge {
                need: lease.stride as usize,
                capacity: MEM_SUBSLOT_SIZE,
            });
        }
        if (lease.stride as usize) < SlotLayout::HEADER {
            return Err(FlockError::CorruptMessage("lease stride below header"));
        }
        let layout = SlotLayout::from_lease(&lease);
        Ok(OneSidedReader {
            lease,
            layout,
            max_retries: DEFAULT_MAX_RETRIES,
            tokens: Vec::with_capacity(crate::client::MEM_SUBSLOTS),
            stats: ReadStats::default(),
        })
    }

    /// Override the torn-read retry bound.
    pub fn with_max_retries(mut self, bound: u32) -> OneSidedReader {
        self.max_retries = bound;
        self
    }

    /// The lease this reader holds.
    pub fn lease(&self) -> &SegmentLease {
        &self.lease
    }

    /// The slot layout in force.
    pub fn layout(&self) -> SlotLayout {
        self.layout
    }

    /// Number of slots in the segment.
    pub fn slots(&self) -> u32 {
        self.lease.slots
    }

    /// Counters since the last [`OneSidedReader::take_stats`].
    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    /// Return and reset the counters.
    pub fn take_stats(&mut self) -> ReadStats {
        std::mem::take(&mut self.stats)
    }

    /// Remote address of slot `slot` (self-contained from the lease).
    pub fn slot_addr(&self, slot: u32) -> RemoteAddr {
        RemoteAddr {
            rkey: self.lease.region.rkey,
            addr: self.lease.region.addr + self.layout.slot_off(slot) as u64,
        }
    }

    /// The one-sided fast path: READ one slot into `buf` (≥ stride
    /// bytes), validate the version word, retry on a locked/torn
    /// snapshot up to the bound. On success the value bytes are at
    /// `buf[SlotLayout::HEADER..HEADER + v.len]`.
    ///
    /// Hot-path invariant: no heap allocation in steady state — the
    /// verb goes out via [`FlThread::read_batch`] (direct doorbell, no
    /// TCQ detour) and comes back via [`FlThread::take_deferred`]
    /// (copy-out from scratch, no intermediate `Vec`).
    pub fn read_slot(&mut self, t: &FlThread, slot: u32, buf: &mut [u8]) -> Result<SlotValue> {
        if slot >= self.lease.slots {
            return Err(FlockError::RemoteOpFailed("slot out of range"));
        }
        let stride = self.layout.stride as usize;
        if buf.len() < stride {
            return Err(FlockError::MessageTooLarge {
                need: stride,
                capacity: buf.len(),
            });
        }
        let target = [(self.slot_addr(slot), stride)];
        let mut attempts = 0;
        loop {
            self.stats.verbs += 1;
            self.tokens.clear();
            t.read_batch(&target, &mut self.tokens)?;
            let token = self.tokens[0];
            let n = t.take_deferred(token, &mut buf[..stride])?;
            if let Some(v) = decode_slot(&buf[..n], self.layout.val_cap) {
                self.stats.reads += 1;
                return Ok(v);
            }
            self.stats.retries += 1;
            attempts += 1;
            if attempts > self.max_retries {
                self.stats.failures += 1;
                return Err(FlockError::RemoteOpFailed(
                    "one-sided read exceeded retry bound",
                ));
            }
        }
    }

    /// Doorbell-batched variant: READ up to [`crate::client::MEM_SUBSLOTS`]
    /// slots with one doorbell into `buf` (stride-sized chunk per slot),
    /// validate each, and re-read only the rejected ones. `out` receives
    /// one [`SlotValue`] per requested slot, in order.
    pub fn read_slots(
        &mut self,
        t: &FlThread,
        slots: &[u32],
        buf: &mut [u8],
        out: &mut Vec<SlotValue>,
    ) -> Result<()> {
        let stride = self.layout.stride as usize;
        if slots.len() > crate::client::MEM_SUBSLOTS {
            return Err(FlockError::RemoteOpFailed(
                "slot batch exceeds scratch sub-slots",
            ));
        }
        if buf.len() < stride * slots.len() {
            return Err(FlockError::MessageTooLarge {
                need: stride * slots.len(),
                capacity: buf.len(),
            });
        }
        out.clear();
        let mut targets = [(RemoteAddr { rkey: self.lease.region.rkey, addr: 0 }, 0usize);
            crate::client::MEM_SUBSLOTS];
        for (i, &s) in slots.iter().enumerate() {
            if s >= self.lease.slots {
                return Err(FlockError::RemoteOpFailed("slot out of range"));
            }
            targets[i] = (self.slot_addr(s), stride);
        }
        self.stats.verbs += slots.len() as u64;
        self.tokens.clear();
        t.read_batch(&targets[..slots.len()], &mut self.tokens)?;
        // Copy each completion out, validate, and note the rejects.
        let mut torn = [false; crate::client::MEM_SUBSLOTS];
        let mut any_torn = false;
        for i in 0..slots.len() {
            let token = self.tokens[i];
            let chunk = &mut buf[i * stride..(i + 1) * stride];
            let n = t.take_deferred(token, chunk)?;
            match decode_slot(&chunk[..n], self.layout.val_cap) {
                Some(v) => {
                    self.stats.reads += 1;
                    out.push(v);
                }
                None => {
                    self.stats.retries += 1;
                    torn[i] = true;
                    any_torn = true;
                    out.push(SlotValue { word: LOCK_BIT, len: 0 });
                }
            }
        }
        if any_torn {
            // Second pass: the torn slots re-read individually under the
            // usual retry bound.
            for i in 0..slots.len() {
                if torn[i] {
                    let chunk = &mut buf[i * stride..(i + 1) * stride];
                    out[i] = self.read_slot(t, slots[i], chunk)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_fabric::{Access, MrTable};

    fn writer(val_cap: u32, slots: u32) -> SegmentWriter {
        let layout = SlotLayout::for_value_cap(val_cap);
        let mrs = MrTable::new();
        let mr = mrs.register(layout.stride as usize * slots as usize, Access::REMOTE_ALL);
        SegmentWriter::new(mr, 0, layout, slots).expect("writer")
    }

    #[test]
    fn layout_is_aligned_and_bounded() {
        let l = SlotLayout::for_value_cap(100);
        assert_eq!(l.stride % 8, 0);
        assert!(l.stride as usize >= SlotLayout::HEADER + 100);
        assert_eq!(l.slot_off(3), 3 * l.stride as usize);
    }

    #[test]
    fn publish_then_decode_roundtrip() {
        let w = writer(64, 4);
        let word = w.publish(2, b"hello").expect("publish");
        assert_eq!(word, 1);
        let mut img = vec![0u8; w.layout().stride as usize];
        w.mr.read(w.off(2).unwrap(), &mut img).unwrap();
        let v = decode_slot(&img, 64).expect("valid");
        assert_eq!(v.word, 1);
        assert_eq!(&img[SlotLayout::HEADER..SlotLayout::HEADER + v.len], b"hello");
        // Republish bumps the version.
        assert_eq!(w.publish(2, b"world").unwrap(), 2);
    }

    #[test]
    fn locked_word_is_rejected() {
        let w = writer(64, 1);
        w.publish(0, b"v1").unwrap();
        // Manually lock the word, as a publish-in-flight would.
        let cur = w.mr.read_u64(0).unwrap();
        w.mr.write_u64(0, cur | LOCK_BIT).unwrap();
        let mut img = vec![0u8; w.layout().stride as usize];
        w.mr.read(0, &mut img).unwrap();
        assert!(decode_slot(&img, 64).is_none());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut img = vec![0u8; 32];
        img[8..12].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode_slot(&img, 8).is_none());
    }

    #[test]
    fn publish_with_word_mirrors_versions() {
        let w = writer(16, 2);
        w.publish_with_word(0, b"x", 41).unwrap();
        let mut img = vec![0u8; w.layout().stride as usize];
        w.mr.read(0, &mut img).unwrap();
        assert_eq!(decode_slot(&img, 16).unwrap().word, 41);
        // A locked word is refused outright.
        assert!(w.publish_with_word(0, b"x", LOCK_BIT | 7).is_err());
    }

    #[test]
    fn writer_bounds_are_enforced() {
        let layout = SlotLayout::for_value_cap(32);
        let mrs = MrTable::new();
        let mr = mrs.register(layout.stride as usize, Access::REMOTE_ALL);
        assert!(SegmentWriter::new(Arc::clone(&mr), 0, layout, 2).is_err());
        let w = SegmentWriter::new(mr, 0, layout, 1).unwrap();
        assert!(w.publish(1, b"x").is_err());
        assert!(w.publish(0, &[0u8; 64]).is_err());
    }
}
