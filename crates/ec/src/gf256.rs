//! Arithmetic over GF(2⁸) with the RAID-6 field polynomial 0x11D.
//!
//! This is the same field as `linux/lib/raid6` and Intel ISA-L: generator
//! `g = 2`, reduction polynomial `x⁸ + x⁴ + x³ + x² + 1`. Addition and
//! subtraction are both XOR — the associativity/commutativity dRAID's
//! distributed parity reduction relies on (§5 of the paper).

/// The field's reduction polynomial (without the x⁸ term).
pub const POLY: u16 = 0x11D;

/// Number of non-zero field elements (order of the multiplicative group).
pub const GROUP_ORDER: usize = 255;

const fn build_tables() -> ([u8; 256], [u8; 256]) {
    let mut exp = [0u8; 256];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    exp[255] = exp[0]; // wrap so exp[(a+b) mod 255] lookups can skip one branch
    (exp, log)
}

const TABLES: ([u8; 256], [u8; 256]) = build_tables();
/// `EXP[i] = g^i` for `i in 0..=255` (index 255 wraps to `g^0`).
pub const EXP: [u8; 256] = TABLES.0;
/// `LOG[x] = log_g(x)` for non-zero `x`; `LOG[0]` is unused and zero.
pub const LOG: [u8; 256] = TABLES.1;

/// Addition in GF(2⁸) — XOR.
#[inline]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// `g^i` for arbitrary exponent (reduced mod 255).
#[inline]
pub fn exp(i: usize) -> u8 {
    EXP[i % GROUP_ORDER]
}

/// Discrete logarithm of a non-zero element.
///
/// # Panics
///
/// Panics if `x == 0` (zero has no logarithm).
#[inline]
pub fn log(x: u8) -> u8 {
    assert!(x != 0, "log(0) is undefined in GF(256)");
    LOG[x as usize]
}

/// Multiplication in GF(2⁸).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        let i = LOG[a as usize] as usize + LOG[b as usize] as usize;
        EXP[if i >= GROUP_ORDER { i - GROUP_ORDER } else { i }]
    }
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics if `x == 0`.
#[inline]
pub fn inv(x: u8) -> u8 {
    assert!(x != 0, "0 has no inverse in GF(256)");
    EXP[GROUP_ORDER - LOG[x as usize] as usize]
}

/// Builds the 256-entry product table `t[x] = c·x` for a fixed coefficient —
/// the scalar analogue of ISA-L's per-coefficient tables. One table build
/// (255 multiplies) amortizes over a whole chunk, leaving a single
/// branch-free lookup per byte.
fn product_table(c: u8) -> [u8; 256] {
    let mut table = [0u8; 256];
    let lc = LOG[c as usize] as usize;
    for x in 1..256usize {
        let i = lc + LOG[x] as usize;
        table[x] = EXP[if i >= GROUP_ORDER { i - GROUP_ORDER } else { i }];
    }
    table
}

/// The seed's byte-at-a-time multiply-accumulate, `acc[i] ^= c·src[i]`,
/// kept as the scalar reference: differential tests check the
/// [`crate::kernels`] against it bit-for-bit, and the kernel benchmarks
/// report speedup relative to it.
///
/// Unlike the kernels, whose tables are cached per process, it rebuilds its
/// 256-entry product table on every call, exactly as the seed
/// implementation did.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc_ref(acc: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(acc.len(), src.len(), "buffer length mismatch");
    match c {
        0 => {}
        1 => {
            for (a, &s) in acc.iter_mut().zip(src) {
                *a ^= s;
            }
        }
        _ => {
            let table = product_table(c);
            for (a, &s) in acc.iter_mut().zip(src) {
                *a ^= table[s as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        assert_eq!(EXP[0], 1);
        assert_eq!(EXP[1], 2);
        // g^8 must equal POLY without the top bit: 0x1D.
        assert_eq!(EXP[8], 0x1D);
        for x in 1..=255u8 {
            assert_eq!(exp(LOG[x as usize] as usize), x);
        }
    }

    #[test]
    fn mul_matches_schoolbook() {
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut r = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    r ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (POLY & 0xFF) as u8;
                }
                b >>= 1;
            }
            r
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn field_axioms() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a * a^-1 = 1 for a={a}");
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
        }
        // Distributivity spot check across the whole field.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let c = 0xA7;
                assert_eq!(mul(c, add(a, b)), add(mul(c, a), mul(c, b)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn inv_zero_panics() {
        inv(0);
    }
}
