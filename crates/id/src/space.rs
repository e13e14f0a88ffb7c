use crate::convert;
use crate::{Id, IdError};

/// A circular identifier space of `b`-bit ids (`1 ≤ b ≤ 128`).
///
/// All ring arithmetic, interval tests, prefix/digit decomposition and the
/// paper's id-derived hop-distance estimates are methods on this type so
/// that the width `b` is threaded through exactly once.
///
/// ```
/// use peercache_id::{Id, IdSpace};
///
/// let ring = IdSpace::new(8).unwrap();
/// // 250 → 4 wraps past zero: clockwise distance 10.
/// assert_eq!(ring.clockwise_distance(Id::new(250), Id::new(4)), 10);
/// // The Chord hop estimate is the position of the leftmost 1 (eq. 6).
/// assert_eq!(ring.chord_hops(Id::new(250), Id::new(4)), 4);
/// // The Pastry estimate counts digits left to fix.
/// assert_eq!(ring.pastry_hops(Id::new(0b1010_0000), Id::new(0b1010_1111), 1).unwrap(), 4);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IdSpace {
    bits: u8,
    mask: u128,
}

impl IdSpace {
    /// Create a `bits`-bit identifier space.
    ///
    /// # Errors
    /// Returns [`IdError::InvalidBits`] unless `1 ≤ bits ≤ 128`.
    pub fn new(bits: u8) -> Result<Self, IdError> {
        if bits == 0 || bits > 128 {
            return Err(IdError::InvalidBits(u16::from(bits)));
        }
        let mask = if bits == 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        };
        Ok(IdSpace { bits, mask })
    }

    /// The identifier space used by the paper's experiments (`b = 32`).
    pub const fn paper() -> Self {
        // `PAPER_ID_BITS` is 32, a statically valid width, so the space can
        // be built directly instead of unwrapping `IdSpace::new`.
        IdSpace {
            bits: crate::PAPER_ID_BITS,
            mask: (1u128 << crate::PAPER_ID_BITS) - 1,
        }
    }

    /// The identifier width `b`.
    #[inline]
    pub const fn bits(self) -> u8 {
        self.bits
    }

    /// Number of distinct identifiers, `2^b`, or `None` if it overflows
    /// `u128` (i.e. `b = 128`).
    #[inline]
    pub const fn size(self) -> Option<u128> {
        if self.bits == 128 {
            None
        } else {
            Some(1u128 << self.bits)
        }
    }

    /// Reduce an arbitrary raw value into this space (keep the low `b` bits).
    #[inline]
    pub const fn normalize(self, value: u128) -> Id {
        Id(value & self.mask)
    }

    /// Whether `id` is a valid identifier of this space.
    #[inline]
    pub const fn contains(self, id: Id) -> bool {
        id.0 & self.mask == id.0
    }

    /// Validate that `id` fits in this space.
    ///
    /// # Errors
    /// Returns [`IdError::OutOfRange`] when `id` has bits above position `b`.
    pub fn check(self, id: Id) -> Result<Id, IdError> {
        if self.contains(id) {
            Ok(id)
        } else {
            Err(IdError::OutOfRange {
                value: id.0,
                bits: self.bits,
            })
        }
    }

    /// `(a + delta) mod 2^b`.
    #[inline]
    pub const fn add(self, a: Id, delta: u128) -> Id {
        Id(a.0.wrapping_add(delta) & self.mask)
    }

    /// `(a − delta) mod 2^b`.
    #[inline]
    pub const fn sub(self, a: Id, delta: u128) -> Id {
        Id(a.0.wrapping_sub(delta) & self.mask)
    }

    /// Clockwise (modular) distance from `a` to `b`: `(b − a) mod 2^b`.
    ///
    /// This is the quantity the Chord distance estimate (paper eq. 6) is
    /// defined over. It is zero iff `a == b` and is *not* symmetric.
    #[inline]
    pub const fn clockwise_distance(self, a: Id, b: Id) -> u128 {
        b.0.wrapping_sub(a.0) & self.mask
    }

    /// Whether `x` lies strictly inside the clockwise open interval
    /// `(a, b)`.
    ///
    /// When `a == b` the interval is the whole ring except `a` itself
    /// (the standard Chord convention).
    #[inline]
    pub fn between_open(self, a: Id, x: Id, b: Id) -> bool {
        let dx = self.clockwise_distance(a, x);
        let db = self.clockwise_distance(a, b);
        if a == b {
            x != a
        } else {
            dx > 0 && dx < db
        }
    }

    /// Whether `x` lies in the clockwise half-open interval `(a, b]`.
    ///
    /// When `a == b` the interval is the whole ring (every `x` qualifies),
    /// matching Chord's `find_successor` convention.
    #[inline]
    pub fn between_open_closed(self, a: Id, x: Id, b: Id) -> bool {
        if a == b {
            return true;
        }
        let dx = self.clockwise_distance(a, x);
        let db = self.clockwise_distance(a, b);
        dx > 0 && dx <= db
    }

    /// Whether `x` lies in the clockwise half-open interval `[a, b)`.
    #[inline]
    pub fn between_closed_open(self, a: Id, x: Id, b: Id) -> bool {
        if a == b {
            return true;
        }
        let dx = self.clockwise_distance(a, x);
        let db = self.clockwise_distance(a, b);
        dx < db
    }

    // ---- prefix / digit decomposition (Pastry) -------------------------

    /// Length (in bits) of the longest common prefix of `a` and `b` within
    /// the `b`-bit representation. Equal ids share all `b` bits.
    #[inline]
    pub fn common_prefix_len(self, a: Id, b: Id) -> u8 {
        if a == b {
            return self.bits;
        }
        let diff = (a.0 ^ b.0) & self.mask;
        // `diff` is nonzero and confined to the low `bits` positions, so its
        // bit length is in `1..=bits` and the shared prefix is the rest.
        let bitlen = convert::u8_from_u32(128 - diff.leading_zeros());
        self.bits - bitlen
    }

    /// The number of whole base-`2^digit_bits` digits in an id of this
    /// space: `⌈b / d⌉`.
    ///
    /// # Errors
    /// Returns [`IdError::InvalidDigitBits`] when `digit_bits` is zero or
    /// exceeds the id width.
    pub fn digit_count(self, digit_bits: u8) -> Result<u8, IdError> {
        if digit_bits == 0 || digit_bits > self.bits {
            return Err(IdError::InvalidDigitBits {
                digit_bits,
                bits: self.bits,
            });
        }
        Ok(self.bits.div_ceil(digit_bits))
    }

    /// The `index`-th base-`2^digit_bits` digit of `id`, counted from the
    /// most-significant end. The final digit may be narrower than
    /// `digit_bits` when `d ∤ b`.
    ///
    /// # Errors
    /// Propagates [`IdError::InvalidDigitBits`]; rejects `digit_bits > 16`
    /// (the digit would not fit the `u16` return type); returns
    /// [`IdError::IndexOutOfRange`] when `index ≥ ⌈b/d⌉`.
    pub fn digit(self, id: Id, index: u8, digit_bits: u8) -> Result<u16, IdError> {
        let count = self.digit_count(digit_bits)?;
        if digit_bits > 16 {
            return Err(IdError::InvalidDigitBits {
                digit_bits,
                bits: self.bits,
            });
        }
        if index >= count {
            return Err(IdError::IndexOutOfRange { index, len: count });
        }
        let hi = self.bits - index * digit_bits; // exclusive top bit position
        let width = digit_bits.min(hi);
        let shift = hi - width;
        let mask = (1u128 << width) - 1;
        // `width ≤ 16` was checked above, so the masked value fits u16.
        Ok(convert::u16_from_u128((id.0 >> shift) & mask))
    }

    /// Length (in whole digits of `digit_bits` bits) of the longest common
    /// digit-aligned prefix of `a` and `b`: `⌊lcp_bits / d⌋` capped to the
    /// digit count.
    ///
    /// # Errors
    /// Propagates [`IdError::InvalidDigitBits`].
    pub fn common_prefix_digits(self, a: Id, b: Id, digit_bits: u8) -> Result<u8, IdError> {
        let count = self.digit_count(digit_bits)?;
        let lcp = self.common_prefix_len(a, b);
        if lcp == self.bits {
            // Equal ids share every digit, including a ragged final digit
            // narrower than `digit_bits`.
            return Ok(count);
        }
        Ok((lcp / digit_bits).min(count))
    }

    /// The ids that qualify for cell (row `index`, column `digit`) of
    /// `owner`'s prefix routing table with `digit_bits`-bit digits —
    /// sharing exactly `index` leading digits with `owner`, digit `index`
    /// equal to `digit` — as the one value range they fill, its lowest
    /// and highest value. `None` for `owner`'s own digit (that column
    /// stays empty), for a digit the row's width cannot hold (a ragged
    /// final digit is narrower), for a row past the id's digits, and for
    /// a digit width [`digit`](Self::digit) rejects.
    ///
    /// ```
    /// use peercache_id::{Id, IdSpace};
    ///
    /// let space = IdSpace::new(8).unwrap();
    /// let owner = Id::new(0b1011_0110);
    /// // Row 2, column 0: ids 10 0x xxxx.
    /// assert_eq!(space.cell_range(owner, 2, 0, 1), Some((0b1000_0000, 0b1001_1111)));
    /// // Column 1 of row 2 is the owner's own digit.
    /// assert_eq!(space.cell_range(owner, 2, 1, 1), None);
    /// ```
    pub fn cell_range(
        self,
        owner: Id,
        index: u8,
        digit: u16,
        digit_bits: u8,
    ) -> Option<(u128, u128)> {
        let b = u32::from(self.bits);
        let ld = u32::from(index) * u32::from(digit_bits);
        if ld >= b {
            return None;
        }
        let w = u32::from(digit_bits).min(b - ld);
        if u32::from(digit) >= (1u32 << w) || self.digit(owner, index, digit_bits).ok()? == digit {
            return None;
        }
        let rem = b - ld - w;
        let prefix = if ld == 0 { 0 } else { owner.0 >> (b - ld) };
        let low = ((prefix << w) | u128::from(digit)) << rem;
        let ones = if rem == 0 { 0 } else { (1u128 << rem) - 1 };
        Some((low, low | ones))
    }

    // ---- hop-distance estimates (the paper's d_uv) ---------------------

    /// Pastry hop-distance estimate between `u` and `v` (paper §IV): the
    /// number of digits that remain to be fixed, `⌈b/d⌉ − ⌊l/d⌋` where `l`
    /// is the common prefix length in bits. With `d = 1` this is the
    /// paper's `b − l`. Zero iff `u == v`.
    ///
    /// # Errors
    /// Propagates [`IdError::InvalidDigitBits`].
    pub fn pastry_hops(self, u: Id, v: Id, digit_bits: u8) -> Result<u32, IdError> {
        let count = u32::from(self.digit_count(digit_bits)?);
        let shared = u32::from(self.common_prefix_digits(u, v, digit_bits)?);
        Ok(count - shared)
    }

    /// Chord hop-distance estimate from `u` to `v` (paper eq. 6): the
    /// position of the leftmost `1` in the clockwise distance
    /// `(v − u) mod 2^b`, i.e. `⌊log₂ dist⌋ + 1`. Zero iff `u == v`.
    ///
    /// This is the steady-state upper bound on the number of hops a Chord
    /// lookup from `u` to `v` takes: each hop fixes at least the current
    /// top bit of the remaining distance. Unlike the Pastry estimate it is
    /// not symmetric.
    #[inline]
    pub fn chord_hops(self, u: Id, v: Id) -> u32 {
        let dist = self.clockwise_distance(u, v);
        if dist == 0 {
            0
        } else {
            128 - dist.leading_zeros()
        }
    }

    /// The maximum possible value of [`IdSpace::chord_hops`], i.e. `b`.
    #[inline]
    pub fn max_chord_hops(self) -> u32 {
        u32::from(self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(bits: u8) -> IdSpace {
        IdSpace::new(bits).unwrap()
    }

    #[test]
    fn cell_ranges_hold_exactly_the_qualifying_ids() {
        // Every row and column of owners spread over an 8-bit space at
        // d = 1–4 (d = 3 leaves a ragged 2-bit final digit), against the
        // definition.
        let s = sp(8);
        for d in 1..=4u8 {
            let rows = s.digit_count(d).unwrap();
            for owner in (0..256u128).step_by(5).chain([255]).map(Id::new) {
                for l in 0..=rows {
                    for c in 0..(1u16 << d) {
                        let qualifying: Vec<u128> = (0..256u128)
                            .filter(|&v| {
                                let v = Id::new(v);
                                l < rows
                                    && s.common_prefix_digits(owner, v, d).unwrap() == l
                                    && s.digit(v, l, d).unwrap() == c
                            })
                            .collect();
                        let range = s.cell_range(owner, l, c, d);
                        match (qualifying.first(), qualifying.last()) {
                            (Some(&lo), Some(&hi)) => {
                                assert_eq!(range, Some((lo, hi)), "owner {owner} d={d} ({l}, {c})");
                                assert_eq!(qualifying.len() as u128, hi - lo + 1, "one run");
                            }
                            _ => assert_eq!(range, None, "owner {owner} d={d} ({l}, {c})"),
                        }
                    }
                }
            }
        }
        assert_eq!(s.cell_range(Id::new(5), 0, 0, 0), None, "zero-width digits");
        assert_eq!(
            sp(128).cell_range(Id::new(0), 0, 1, 1),
            Some((1 << 127, u128::MAX))
        );
    }

    #[test]
    fn rejects_invalid_widths() {
        assert_eq!(IdSpace::new(0).unwrap_err(), IdError::InvalidBits(0));
        assert!(IdSpace::new(1).is_ok());
        assert!(IdSpace::new(128).is_ok());
    }

    #[test]
    fn size_and_mask() {
        assert_eq!(sp(4).size(), Some(16));
        assert_eq!(sp(127).size(), Some(1 << 127));
        assert_eq!(sp(128).size(), None);
    }

    #[test]
    fn normalize_wraps() {
        let s = sp(4);
        assert_eq!(s.normalize(16), Id::new(0));
        assert_eq!(s.normalize(31), Id::new(15));
        assert!(s.contains(Id::new(15)));
        assert!(!s.contains(Id::new(16)));
    }

    #[test]
    fn check_reports_out_of_range() {
        let s = sp(8);
        assert_eq!(s.check(Id::new(255)), Ok(Id::new(255)));
        assert_eq!(
            s.check(Id::new(256)),
            Err(IdError::OutOfRange {
                value: 256,
                bits: 8
            })
        );
    }

    #[test]
    fn add_sub_wrap_on_the_ring() {
        let s = sp(4);
        assert_eq!(s.add(Id::new(15), 1), Id::new(0));
        assert_eq!(s.sub(Id::new(0), 1), Id::new(15));
        assert_eq!(s.add(Id::new(3), 32), Id::new(3));
    }

    #[test]
    fn clockwise_distance_basics() {
        let s = sp(4);
        assert_eq!(s.clockwise_distance(Id::new(3), Id::new(3)), 0);
        assert_eq!(s.clockwise_distance(Id::new(3), Id::new(5)), 2);
        assert_eq!(s.clockwise_distance(Id::new(5), Id::new(3)), 14);
        assert_eq!(s.clockwise_distance(Id::new(15), Id::new(0)), 1);
    }

    #[test]
    fn clockwise_distance_full_width() {
        let s = sp(128);
        assert_eq!(
            s.clockwise_distance(Id::new(u128::MAX), Id::new(0)),
            1,
            "wraps at 2^128"
        );
    }

    #[test]
    fn between_open_interval() {
        let s = sp(4);
        // (3, 7): 4,5,6 inside; 3, 7 outside.
        assert!(s.between_open(Id::new(3), Id::new(5), Id::new(7)));
        assert!(!s.between_open(Id::new(3), Id::new(3), Id::new(7)));
        assert!(!s.between_open(Id::new(3), Id::new(7), Id::new(7)));
        // wrap-around (14, 2): 15, 0, 1 inside.
        assert!(s.between_open(Id::new(14), Id::new(0), Id::new(2)));
        assert!(!s.between_open(Id::new(14), Id::new(2), Id::new(2)));
        // degenerate (a, a): whole ring minus a.
        assert!(s.between_open(Id::new(5), Id::new(6), Id::new(5)));
        assert!(!s.between_open(Id::new(5), Id::new(5), Id::new(5)));
    }

    #[test]
    fn between_half_open_intervals() {
        let s = sp(4);
        assert!(s.between_open_closed(Id::new(3), Id::new(7), Id::new(7)));
        assert!(!s.between_open_closed(Id::new(3), Id::new(3), Id::new(7)));
        assert!(s.between_closed_open(Id::new(3), Id::new(3), Id::new(7)));
        assert!(!s.between_closed_open(Id::new(3), Id::new(7), Id::new(7)));
        // degenerate: full ring.
        assert!(s.between_open_closed(Id::new(5), Id::new(5), Id::new(5)));
        assert!(s.between_closed_open(Id::new(5), Id::new(9), Id::new(5)));
    }

    #[test]
    fn common_prefix_len_examples() {
        let s = sp(4);
        // Paper §IV example: ids 1011 and 1111 share l = 1 bit.
        assert_eq!(s.common_prefix_len(Id::new(0b1011), Id::new(0b1111)), 1);
        assert_eq!(s.common_prefix_len(Id::new(0b1011), Id::new(0b1011)), 4);
        assert_eq!(s.common_prefix_len(Id::new(0b0000), Id::new(0b1000)), 0);
        assert_eq!(s.common_prefix_len(Id::new(0b0010), Id::new(0b0011)), 3);
    }

    #[test]
    fn common_prefix_len_wide_space() {
        let s = sp(128);
        assert_eq!(s.common_prefix_len(Id::new(0), Id::new(1)), 127);
        assert_eq!(s.common_prefix_len(Id::new(0), Id::new(u128::MAX)), 0);
    }

    #[test]
    fn digit_extraction_base4() {
        let s = sp(8);
        let id = Id::new(0b11_01_00_10);
        assert_eq!(s.digit_count(2).unwrap(), 4);
        assert_eq!(s.digit(id, 0, 2).unwrap(), 0b11);
        assert_eq!(s.digit(id, 1, 2).unwrap(), 0b01);
        assert_eq!(s.digit(id, 2, 2).unwrap(), 0b00);
        assert_eq!(s.digit(id, 3, 2).unwrap(), 0b10);
        assert!(matches!(
            s.digit(id, 4, 2),
            Err(IdError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn digit_extraction_ragged_tail() {
        // b = 5, d = 2 → digits of widths 2,2,1.
        let s = sp(5);
        #[allow(clippy::unusual_byte_groupings)] // grouped by digit boundaries (2,2,1)
        let id = Id::new(0b10_11_1);
        assert_eq!(s.digit_count(2).unwrap(), 3);
        assert_eq!(s.digit(id, 0, 2).unwrap(), 0b10);
        assert_eq!(s.digit(id, 1, 2).unwrap(), 0b11);
        assert_eq!(s.digit(id, 2, 2).unwrap(), 0b1);
    }

    #[test]
    fn digit_rejects_bad_widths() {
        let s = sp(8);
        assert!(matches!(
            s.digit_count(0),
            Err(IdError::InvalidDigitBits { .. })
        ));
        assert!(matches!(
            s.digit_count(9),
            Err(IdError::InvalidDigitBits { .. })
        ));
    }

    #[test]
    fn digit_rejects_widths_beyond_u16() {
        // ⌈32/17⌉ = 2 digits is a fine *count*, but a 17-bit digit value
        // cannot be represented in the u16 return type.
        let s = sp(32);
        assert_eq!(s.digit_count(17).unwrap(), 2);
        assert!(matches!(
            s.digit(Id::new(0xffff_ffff), 0, 17),
            Err(IdError::InvalidDigitBits { .. })
        ));
        // 16-bit digits are the widest representable ones.
        assert_eq!(s.digit(Id::new(0xabcd_1234), 0, 16).unwrap(), 0xabcd);
        assert_eq!(s.digit(Id::new(0xabcd_1234), 1, 16).unwrap(), 0x1234);
    }

    #[test]
    fn paper_space_matches_new() {
        assert_eq!(
            IdSpace::paper(),
            IdSpace::new(crate::PAPER_ID_BITS).unwrap()
        );
        // `paper()` is const-constructible.
        const PAPER: IdSpace = IdSpace::paper();
        assert_eq!(PAPER.bits(), 32);
    }

    #[test]
    fn pastry_hops_matches_paper_example() {
        // Paper §IV: distance between 4-bit ids 1011 and 1111 is 3 (l = 1).
        let s = sp(4);
        assert_eq!(
            s.pastry_hops(Id::new(0b1011), Id::new(0b1111), 1).unwrap(),
            3
        );
        assert_eq!(
            s.pastry_hops(Id::new(0b1011), Id::new(0b1011), 1).unwrap(),
            0
        );
        assert_eq!(
            s.pastry_hops(Id::new(0b0000), Id::new(0b1000), 1).unwrap(),
            4
        );
    }

    #[test]
    fn pastry_hops_is_symmetric() {
        let s = sp(16);
        let (a, b) = (Id::new(0xa5a5 & 0xffff), Id::new(0xa5ff));
        assert_eq!(
            s.pastry_hops(a, b, 1).unwrap(),
            s.pastry_hops(b, a, 1).unwrap()
        );
    }

    #[test]
    fn pastry_hops_base16_counts_digits() {
        let s = sp(16);
        let a = Id::new(0xab00);
        let b = Id::new(0xab0f);
        // Shares 3 hex digits, differs in the last → 1 digit to fix.
        assert_eq!(s.pastry_hops(a, b, 4).unwrap(), 1);
        // In base 2 the same pair shares 12 bits → 4 hops.
        assert_eq!(s.pastry_hops(a, b, 1).unwrap(), 4);
    }

    #[test]
    fn chord_hops_is_leftmost_one_position() {
        let s = sp(4);
        let z = Id::ZERO;
        assert_eq!(s.chord_hops(z, z), 0);
        assert_eq!(s.chord_hops(z, Id::new(1)), 1); // 0001
        assert_eq!(s.chord_hops(z, Id::new(2)), 2); // 0010
        assert_eq!(s.chord_hops(z, Id::new(3)), 2); // 0011
        assert_eq!(s.chord_hops(z, Id::new(4)), 3); // 0100
        assert_eq!(s.chord_hops(z, Id::new(5)), 3); // 0101 — leftmost 1 at pos 3
        assert_eq!(s.chord_hops(z, Id::new(8)), 4);
        assert_eq!(s.chord_hops(z, Id::new(15)), 4);
    }

    #[test]
    fn chord_hops_is_asymmetric() {
        let s = sp(4);
        assert_eq!(s.chord_hops(Id::new(1), Id::new(2)), 1);
        assert_eq!(s.chord_hops(Id::new(2), Id::new(1)), 4); // distance 15
    }

    #[test]
    fn chord_hops_bounded_by_bits() {
        let s = sp(9);
        for v in 1..512u128 {
            let h = s.chord_hops(Id::ZERO, Id::new(v));
            assert!(h >= 1 && h <= s.max_chord_hops());
        }
    }
}
