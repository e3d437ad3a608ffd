//! The element trait for distributed arrays.

/// Types that can be stored in a [`crate::DistArray`] and shipped between
/// simulated processors.
///
/// `BYTES` is used for message-size accounting in the cost model; the
/// byte-level encoding itself (little-endian) is only exercised by the
/// thread-backed SPMD paths, since the master-managed simulation moves
/// values directly.
pub trait Element: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Number of bytes one element occupies on the wire.
    const BYTES: usize;

    /// Appends the little-endian encoding of the value to `out`.
    fn write_bytes(&self, out: &mut Vec<u8>);

    /// Decodes a value from exactly [`Element::BYTES`] bytes.
    fn read_bytes(bytes: &[u8]) -> Self;

    /// The value's stored bit pattern widened to 64 bits — the unit the
    /// wire-frame checksum folds over.  Values that compare equal must
    /// produce equal bits, and distinct bit patterns must produce
    /// distinct `to_bits64` results (within the low `BYTES · 8` bits).
    fn to_bits64(&self) -> u64;

    /// Reconstructs a value from [`Element::to_bits64`] output (only the
    /// low `BYTES · 8` bits are significant).
    fn from_bits64(bits: u64) -> Self;

    /// The value with stored bit `bit % (BYTES · 8)` flipped — guaranteed
    /// to differ bitwise from `self`, which is what makes injected wire
    /// corruption always detectable by the frame checksum.
    fn flip_bit(self, bit: u32) -> Self {
        let width = (Self::BYTES * 8) as u32;
        Self::from_bits64(self.to_bits64() ^ (1u64 << (bit % width)))
    }
}

macro_rules! impl_element_num {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(
            impl Element for $t {
                const BYTES: usize = $n;

                fn write_bytes(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }

                fn read_bytes(bytes: &[u8]) -> Self {
                    <$t>::from_le_bytes(bytes[..$n].try_into().expect("enough bytes"))
                }

                #[inline]
                fn to_bits64(&self) -> u64 {
                    let mut bits = [0u8; 8];
                    bits[..$n].copy_from_slice(&self.to_le_bytes());
                    u64::from_le_bytes(bits)
                }

                #[inline]
                fn from_bits64(bits: u64) -> Self {
                    <$t>::from_le_bytes(bits.to_le_bytes()[..$n].try_into().expect("enough bytes"))
                }
            }
        )*
    };
}

impl_element_num!(
    f64 => 8,
    f32 => 4,
    i64 => 8,
    i32 => 4,
    u64 => 8,
    u32 => 4,
    u8 => 1,
);

impl Element for bool {
    const BYTES: usize = 1;

    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn read_bytes(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }

    #[inline]
    fn to_bits64(&self) -> u64 {
        u64::from(*self)
    }

    #[inline]
    fn from_bits64(bits: u64) -> Self {
        bits & 1 != 0
    }

    /// All stored bit patterns of a `bool` map to the two values, so the
    /// only flip that is guaranteed to change the *value* (not just an
    /// ignored padding bit) is logical negation.
    fn flip_bit(self, _bit: u32) -> Self {
        !self
    }
}

/// Encodes a slice of elements to a byte buffer.
pub fn encode_slice<T: Element>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * T::BYTES);
    for v in values {
        v.write_bytes(&mut out);
    }
    out
}

/// Decodes a byte buffer produced by [`encode_slice`].
pub fn decode_slice<T: Element>(bytes: &[u8]) -> Vec<T> {
    bytes.chunks_exact(T::BYTES).map(T::read_bytes).collect()
}

/// Checksum of a packed wire buffer: the xor of every element's stored bit
/// pattern, with the length mixed in through an odd multiplier and one
/// bijective multiplicative finisher.  The accumulation is GF(2)-linear in
/// the payload bits — flipping any single bit flips exactly one bit of the
/// accumulator, so injected single-bit corruption can never pass
/// validation — and because the wire buffer is contiguous, the xor is one
/// sequential sweep at cache speed, which is what keeps framing inside the
/// e10 bench's 5% overhead guard.  Checkpoint segments carry the same sum.
pub fn wire_checksum<T: Element>(wire: &[T]) -> u64 {
    WireSum::of(wire).finish()
}

/// The running form of [`wire_checksum`]: the xor payload sum is
/// order-free, so a message can be summed slice by slice — straight from
/// the scattered runs it is copied from or lands in — and
/// [`WireSum::finish`] equals `wire_checksum` of the concatenation bit for
/// bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WireSum {
    xor: u64,
    len: u64,
}

impl WireSum {
    /// The sum of `values` alone.
    pub(crate) fn of<T: Element>(values: &[T]) -> Self {
        Self::default().add(values)
    }

    /// Folds `values` into the sum.
    pub(crate) fn add<T: Element>(mut self, values: &[T]) -> Self {
        // Eight independent lanes: the loop carries no serial dependency
        // and vectorises.
        let mut lanes = [0u64; 8];
        let mut chunks = values.chunks_exact(8);
        for chunk in &mut chunks {
            for (lane, v) in lanes.iter_mut().zip(chunk) {
                *lane ^= v.to_bits64();
            }
        }
        self.xor ^= lanes.into_iter().fold(0u64, |h, l| h ^ l);
        for v in chunks.remainder() {
            self.xor ^= v.to_bits64();
        }
        self.len += values.len() as u64;
        self
    }

    /// Elements summed so far.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The checksum of everything summed so far.
    pub(crate) fn finish(&self) -> u64 {
        (self.xor ^ 0xcbf2_9ce4_8422_2325u64 ^ self.len.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0x100_0000_01b3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_round_trips() {
        fn check<T: Element>(values: &[T]) {
            let encoded = encode_slice(values);
            assert_eq!(encoded.len(), values.len() * T::BYTES);
            assert_eq!(decode_slice::<T>(&encoded), values);
        }
        check(&[1.5f64, -2.0, 0.0]);
        check(&[1.5f32, -2.0]);
        check(&[-7i64, 9]);
        check(&[-7i32, 9]);
        check(&[7u64, 9]);
        check(&[7u32, 9]);
        check(&[0u8, 255]);
        check(&[true, false, true]);
    }

    #[test]
    fn bit_flips_always_change_the_value() {
        fn check<T: Element>(values: &[T]) {
            let width = (T::BYTES * 8) as u32;
            for &v in values {
                assert_eq!(T::from_bits64(v.to_bits64()), v);
                for bit in 0..width {
                    let flipped = v.flip_bit(bit);
                    assert_ne!(
                        flipped.to_bits64(),
                        v.to_bits64(),
                        "{v:?} bit {bit} must change the stored pattern"
                    );
                }
            }
        }
        check(&[0.0f64, 1.5, -2.0, f64::MAX]);
        check(&[0.0f32, 1.5, -2.0]);
        check(&[0i64, -7, i64::MAX]);
        check(&[0i32, -7]);
        check(&[0u64, 7, u64::MAX]);
        check(&[0u32, 7]);
        check(&[0u8, 255]);
        check(&[true, false]);
    }

    #[test]
    fn wire_sum_over_slices_equals_the_whole_buffer_checksum() {
        // splitmix64: deterministic buffers and cut points.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for trial in 0..300 {
            let len = (next() % 70) as usize;
            let wire: Vec<f64> = (0..len).map(|_| f64::from_bits(next())).collect();
            // Sorted cut points, repeats allowed: empty slices included.
            let mut cuts: Vec<usize> = (0..next() % 6)
                .map(|_| (next() % (len as u64 + 1)) as usize)
                .collect();
            cuts.push(0);
            cuts.push(len);
            cuts.sort_unstable();
            let slices: Vec<&[f64]> = cuts.windows(2).map(|w| &wire[w[0]..w[1]]).collect();
            let sum = slices.iter().fold(WireSum::default(), |s, sl| s.add(sl));
            assert_eq!(sum.finish(), wire_checksum(&wire), "trial {trial}");
            assert_eq!(sum.len(), len as u64);
            if len == 0 {
                continue;
            }
            // A single-bit flip anywhere changes the slice-by-slice sum.
            let e = (next() % len as u64) as usize;
            let mut flipped = wire.clone();
            flipped[e] = flipped[e].flip_bit((next() % 64) as u32);
            let sum_flipped = cuts
                .windows(2)
                .fold(WireSum::default(), |s, w| s.add(&flipped[w[0]..w[1]]));
            assert_ne!(sum_flipped.finish(), sum.finish(), "trial {trial} flip {e}");
        }
    }

    #[test]
    fn sizes_match_wire_format() {
        assert_eq!(<f64 as Element>::BYTES, 8);
        assert_eq!(<f32 as Element>::BYTES, 4);
        assert_eq!(<u8 as Element>::BYTES, 1);
        assert_eq!(<bool as Element>::BYTES, 1);
    }
}
