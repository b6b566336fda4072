//! Compact bit-packed state encoding.
//!
//! The exploration engine stores every tangible state as a short run of
//! `u64` words instead of an `Arc<[u32]>` token vector: each field of
//! the extended state vector (place token counts, then one phase
//! counter per expanded activity) occupies a fixed bit slice of the
//! packed words. On the consensus models this cuts per-state memory
//! roughly 9× (the n = 3 order-2 state — 403 fields: 289 places and 114
//! phase counters — packs into 22 words, 176 bytes, where a `u32`
//! vector pays 1,612 bytes plus its header and pointer), which is what
//! lets `n = 3` phase-type spaces fit comfortably in RAM. Packed words
//! are also what the concurrent intern table hashes and compares, so
//! the hot lookup path touches 22 words instead of 403 — and, in the
//! external-memory exploration ([`crate::ddd`]), the packed words *are*
//! the sort keys: frontiers are sorted and sort-merged against the
//! on-disk visited runs as fixed-width word tuples, so the canonical
//! `(BFS level, packed key)` order is identical whether dedup happens
//! in the intern table or on disk.
//!
//! # Field widths
//!
//! Phase-counter fields have a statically known range (`0..=P` for a
//! plan with `P` phases) and get exactly the bits they need. Place
//! fields have no a-priori bound — a SAN place can in principle
//! accumulate any token count — so the layout starts every place at
//! [`PLACE_WIDTH_LADDER`]`[0]` bits and the exploration *retries from
//! scratch* with the next wider rung whenever an encode overflows
//! (see [`StateLayout::widen`]). The final widths therefore depend only
//! on the model's reachable token counts, never on thread interleaving,
//! preserving the engine's determinism guarantee. Fields never straddle
//! a word boundary, so encode/decode are a shift and a mask per field.
//!
//! # Patched successor keys
//!
//! A transition changes a handful of the 403 fields, so the exploration
//! never re-encodes a successor: it copies the source's packed key and
//! [patches](StateLayout::patch) only the fields that changed. The
//! patch is checked against the field width and fails exactly where a
//! full [`StateLayout::encode`] of the successor would, so the widening
//! ladder sees the same overflows either way.

/// The place-field width retry ladder (bits). The last rung holds any
/// `u32`, so a retry chain always terminates.
pub(crate) const PLACE_WIDTH_LADDER: [u32; 4] = [4, 8, 16, 32];

/// One field's position inside the packed words.
#[derive(Debug, Clone, Copy)]
struct FieldSpec {
    /// Index of the word holding the field.
    word: usize,
    /// Bit offset inside the word.
    shift: u32,
    /// Field width in bits (1..=32). The field never straddles words.
    width: u32,
}

/// A maximal run of consecutive equal-width fields packed side by side
/// in one word — the unit [`StateLayout::decode`] walks, so its inner
/// loop is one mask and one shift per field.
#[derive(Debug, Clone, Copy)]
struct FieldRun {
    word: usize,
    /// Bit offset of the run's first field.
    shift: u32,
    width: u32,
    /// Index of the run's first field.
    first: usize,
    len: usize,
}

/// The bit layout of one exploration's packed state vectors.
#[derive(Debug, Clone)]
pub struct StateLayout {
    fields: Vec<FieldSpec>,
    /// `fields` grouped into runs, field order.
    runs: Vec<FieldRun>,
    /// Packed words per state.
    words: usize,
    /// Number of leading place fields (the marking prefix).
    places: usize,
    /// Current rung of [`PLACE_WIDTH_LADDER`] used for place fields.
    place_rung: usize,
}

/// Raised by [`StateLayout::encode`] when a field value does not fit
/// its bit width; the exploration reacts by widening the place fields
/// and restarting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackOverflow;

impl StateLayout {
    /// A layout for `places` place fields at the narrowest ladder rung,
    /// plus one phase-counter field per entry of `phase_maxes` (the
    /// largest value the counter can hold, i.e. the plan's phase
    /// count).
    pub(crate) fn new(places: usize, phase_maxes: &[u32]) -> Self {
        Self::with_rung(places, phase_maxes, 0)
    }

    fn with_rung(places: usize, phase_maxes: &[u32], rung: usize) -> Self {
        let place_bits = PLACE_WIDTH_LADDER[rung];
        let widths = std::iter::repeat(place_bits)
            .take(places)
            .chain(phase_maxes.iter().map(|&m| bits_for(m)));
        let mut fields = Vec::with_capacity(places + phase_maxes.len());
        let mut word = 0usize;
        let mut shift = 0u32;
        for width in widths {
            if shift + width > 64 {
                word += 1;
                shift = 0;
            }
            fields.push(FieldSpec { word, shift, width });
            shift += width;
        }
        let words = if fields.is_empty() { 1 } else { word + 1 };
        let mut runs: Vec<FieldRun> = Vec::new();
        for (i, f) in fields.iter().enumerate() {
            match runs.last_mut() {
                Some(r) if r.word == f.word && r.width == f.width => r.len += 1,
                _ => runs.push(FieldRun {
                    word: f.word,
                    shift: f.shift,
                    width: f.width,
                    first: i,
                    len: 1,
                }),
            }
        }
        Self {
            fields,
            runs,
            words,
            places,
            place_rung: rung,
        }
    }

    /// The same layout with place fields one ladder rung wider.
    /// Returns `None` at the top rung (32 bits holds any token count,
    /// so an overflow there is impossible).
    pub(crate) fn widen(&self) -> Option<Self> {
        let rung = self.place_rung + 1;
        if rung >= PLACE_WIDTH_LADDER.len() {
            return None;
        }
        let phase_maxes: Vec<u32> = self.fields[self.places..]
            .iter()
            .map(|f| ((1u64 << f.width) - 1) as u32)
            .collect();
        Some(Self::with_rung(self.places, &phase_maxes, rung))
    }

    /// Packed words per state.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Total fields (places + phase counters).
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Packs `values` (one per field) into `out`, which must hold
    /// exactly [`Self::words`] words.
    ///
    /// This is the hottest few nanoseconds of the exploration engine
    /// (one call per generated transition), so the loop accumulates
    /// each word in a register and folds the per-field overflow checks
    /// into one branchless OR tested at the end.
    pub(crate) fn encode(&self, values: &[u32], out: &mut [u64]) -> Result<(), PackOverflow> {
        debug_assert_eq!(values.len(), self.fields.len());
        debug_assert_eq!(out.len(), self.words);
        out.fill(0);
        let mut word = 0usize;
        let mut acc = 0u64;
        let mut overflow = 0u64;
        for (f, &v) in self.fields.iter().zip(values) {
            let v = u64::from(v);
            overflow |= v >> f.width;
            if f.word != word {
                // The greedy layout never skips a word.
                out[word] = acc;
                word = f.word;
                acc = 0;
            }
            acc |= v << f.shift;
        }
        if !self.fields.is_empty() {
            out[word] = acc;
        }
        if overflow != 0 {
            return Err(PackOverflow);
        }
        Ok(())
    }

    /// Overwrites one field of an already-encoded state in place — how
    /// the exploration builds a successor's key: copy the source key,
    /// then patch only the fields the transition changed. Fails with
    /// [`PackOverflow`] (leaving `words` untouched) exactly when
    /// [`Self::encode`] would reject `value` for this field, so a
    /// patched key and a full encode share one widen-and-retry ladder.
    #[inline]
    pub(crate) fn patch(
        &self,
        words: &mut [u64],
        field: usize,
        value: u32,
    ) -> Result<(), PackOverflow> {
        let f = self.fields[field];
        if u64::from(value) >> f.width != 0 {
            return Err(PackOverflow);
        }
        let mask = ((1u64 << f.width) - 1) << f.shift;
        words[f.word] = (words[f.word] & !mask) | (u64::from(value) << f.shift);
        Ok(())
    }

    /// Reads one field of a packed state — the single-field
    /// counterpart of [`Self::decode`].
    #[inline]
    pub(crate) fn get(&self, words: &[u64], field: usize) -> u32 {
        let f = self.fields[field];
        ((words[f.word] >> f.shift) & ((1u64 << f.width) - 1)) as u32
    }

    /// Unpacks `words` into `out`, which must hold exactly
    /// [`Self::num_fields`] values. Walks the layout run by run: the
    /// run's word rides in a register, masked and shifted down one
    /// field at a time (one decode per expanded state — 403 fields at
    /// n = 3 order 2).
    pub(crate) fn decode(&self, words: &[u64], out: &mut [u32]) {
        debug_assert_eq!(words.len(), self.words);
        debug_assert_eq!(out.len(), self.fields.len());
        for r in &self.runs {
            // Field widths never reach 64, so the mask shift is safe.
            let mask = (1u64 << r.width) - 1;
            let mut cur = words[r.word] >> r.shift;
            for v in &mut out[r.first..r.first + r.len] {
                *v = (cur & mask) as u32;
                cur >>= r.width;
            }
        }
    }

    /// Decodes into a fresh vector.
    pub(crate) fn decode_vec(&self, words: &[u64]) -> Vec<u32> {
        let mut out = vec![0u32; self.fields.len()];
        self.decode(words, &mut out);
        out
    }
}

/// Bits needed to represent any value in `0..=max` (at least 1).
fn bits_for(max: u32) -> u32 {
    (32 - max.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(layout: &StateLayout, values: &[u32]) {
        let mut words = vec![0u64; layout.words()];
        layout.encode(values, &mut words).expect("fits");
        assert_eq!(layout.decode_vec(&words), values);
    }

    /// Round-trip at every field-width boundary of the ladder: the
    /// maximum representable value fits, one past it overflows.
    #[test]
    fn place_width_boundaries_round_trip_and_overflow() {
        for (rung, &bits) in PLACE_WIDTH_LADDER.iter().enumerate() {
            let layout = StateLayout::with_rung(3, &[], rung);
            let max = ((1u64 << bits) - 1) as u32;
            round_trip(&layout, &[max, 0, max]);
            if bits < 32 {
                let mut words = vec![0u64; layout.words()];
                assert_eq!(
                    layout.encode(&[0, max + 1, 0], &mut words),
                    Err(PackOverflow),
                    "{bits}-bit field must reject {}",
                    max + 1
                );
            }
        }
    }

    /// Phase fields get exactly the bits their plan needs, and their
    /// own boundaries hold.
    #[test]
    fn phase_fields_are_exact_width() {
        // Plans with 1, 3, 15, and 16 phases → 1, 2, 4, and 5 bits.
        let layout = StateLayout::new(2, &[1, 3, 15, 16]);
        round_trip(&layout, &[15, 0, 1, 3, 15, 16]);
        let mut words = vec![0u64; layout.words()];
        assert_eq!(
            layout.encode(&[0, 0, 0, 4, 0, 0], &mut words),
            Err(PackOverflow),
            "a 3-phase counter needs rejecting 4"
        );
        // A 16-phase counter gets 5 bits (0..=31): 32 overflows.
        assert_eq!(
            layout.encode(&[0, 0, 0, 0, 0, 32], &mut words),
            Err(PackOverflow)
        );
    }

    /// Widening walks the ladder and tops out at 32 bits.
    #[test]
    fn widen_climbs_the_ladder() {
        let mut layout = StateLayout::new(4, &[7]);
        let mut seen = vec![PLACE_WIDTH_LADDER[0]];
        while let Some(wider) = layout.widen() {
            seen.push(PLACE_WIDTH_LADDER[wider.place_rung]);
            // Phase widths are preserved across widening.
            round_trip(&wider, &[1, 2, 3, 4, 7]);
            layout = wider;
        }
        assert_eq!(seen, PLACE_WIDTH_LADDER);
        round_trip(&layout, &[u32::MAX, 0, u32::MAX, 5, 7]);
    }

    /// Fields never straddle a word boundary: 17 four-bit places fill
    /// 68 bits, so the 17th field starts a second word.
    #[test]
    fn fields_do_not_straddle_words() {
        let layout = StateLayout::new(17, &[]);
        assert_eq!(layout.words(), 2);
        let values: Vec<u32> = (0..17).map(|i| (i % 16) as u32).collect();
        round_trip(&layout, &values);
        // A full state of max values decodes exactly.
        round_trip(&layout, &[15u32; 17]);
    }

    /// The degenerate zero-field layout still occupies one word (so
    /// every state has a non-empty key).
    #[test]
    fn empty_layout_has_one_word() {
        let layout = StateLayout::new(0, &[]);
        assert_eq!(layout.words(), 1);
        assert_eq!(layout.num_fields(), 0);
        let mut words = vec![0u64; 1];
        layout.encode(&[], &mut words).unwrap();
        assert_eq!(words, [0]);
    }

    /// A dense random-ish pattern across three words round-trips.
    #[test]
    fn multi_word_round_trip() {
        let layout = StateLayout::with_rung(9, &[300, 2], 1); // 9×8 + 9 + 2 bits
        assert!(layout.words() >= 2);
        let values = [255, 0, 17, 255, 1, 2, 3, 254, 128, 300, 2];
        round_trip(&layout, &values);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Copying `encode(source)` and patching the fields where the
        /// target differs gives `encode(target)`; a target field over
        /// its width makes the patch fail exactly when `encode` fails;
        /// and `get` agrees with `decode` field by field.
        #[test]
        fn patched_key_equals_full_encode(
            places in 0usize..40,
            phase_maxes in proptest::collection::vec(1u32..40, 0..12),
            rung in 0usize..4,
            raw in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 0u8..4), 52..53),
        ) {
            let layout = StateLayout::with_rung(places, &phase_maxes, rung);
            let max = |i: usize| ((1u64 << layout.fields[i].width) - 1) as u32;
            let n = layout.num_fields();
            // Source values always fit; a target field is kept (0, 3),
            // redrawn within its width (1), or redrawn unmasked (2),
            // which overflows any field narrower than 32 bits.
            let source: Vec<u32> = (0..n).map(|i| raw[i].0 & max(i)).collect();
            let target: Vec<u32> = (0..n)
                .map(|i| match raw[i].2 {
                    1 => raw[i].1 & max(i),
                    2 => raw[i].1,
                    _ => source[i],
                })
                .collect();
            let mut src_key = vec![0u64; layout.words()];
            layout.encode(&source, &mut src_key).expect("source fits");
            for (i, &v) in source.iter().enumerate() {
                prop_assert_eq!(layout.get(&src_key, i), v);
            }
            let mut want = vec![0u64; layout.words()];
            let encoded = layout.encode(&target, &mut want);
            let mut key = src_key.clone();
            let patched = (0..n)
                .filter(|&i| target[i] != source[i])
                .try_for_each(|i| layout.patch(&mut key, i, target[i]));
            prop_assert_eq!(patched, encoded);
            if encoded.is_ok() {
                prop_assert_eq!(&key, &want);
                prop_assert_eq!(layout.decode_vec(&key), target);
            }
        }
    }

    /// A rejected patch leaves the key as it was.
    #[test]
    fn overflowing_patch_leaves_key_untouched() {
        let layout = StateLayout::new(3, &[3]);
        let mut key = vec![0u64; layout.words()];
        layout.encode(&[1, 2, 3, 3], &mut key).unwrap();
        let before = key.clone();
        assert_eq!(layout.patch(&mut key, 1, 16), Err(PackOverflow));
        assert_eq!(layout.patch(&mut key, 3, 4), Err(PackOverflow));
        assert_eq!(key, before);
        layout.patch(&mut key, 3, 0).unwrap();
        assert_eq!(layout.decode_vec(&key), [1, 2, 3, 0]);
    }
}
