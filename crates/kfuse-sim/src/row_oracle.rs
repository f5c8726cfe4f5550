//! Op-level oracle for the tape interior's row passes in [`crate::tile`].
//!
//! A kernel body is evaluated at two levels: the interpreter applies each
//! op to one scalar (`BinOp::apply` / `UnOp::apply`), the fast executor
//! applies it to a whole register row. Each test here checks that every
//! arm of one row pass is bit-equal to the interpreter's op on every pair
//! of special values plus a random sweep of the full bit space.

mod tests {
    use crate::tile::{bin_rows_scalar, muladd_rows_scalar, select_rows_scalar, un_rows_scalar};
    use kfuse_ir::{BinOp, UnOp};

    /// Special f32 bit patterns: signed zeros, infinities, quiet and
    /// signaling NaNs with distinct payloads, subnormals, and boundary
    /// magnitudes.
    fn specials() -> Vec<f32> {
        [
            0x0000_0000u32, // +0
            0x8000_0000,    // -0
            0x7F80_0000,    // +inf
            0xFF80_0000,    // -inf
            0x7FC0_0000,    // canonical qNaN
            0xFFC0_1234,    // negative qNaN, payload
            0x7F80_1234,    // sNaN, payload
            0xFF80_0001,    // negative sNaN
            0x0000_0001,    // smallest subnormal
            0x8000_0001,    // negative subnormal
            0x007F_FFFF,    // largest subnormal
            0x3F80_0000,    // 1.0
            0xBF80_0000,    // -1.0
            0x7F7F_FFFF,    // f32::MAX
            0x3EAA_AAAB,    // ~1/3
            0x4049_0FDB,    // π
        ]
        .iter()
        .map(|&b| f32::from_bits(b))
        .collect()
    }

    /// Deterministic xorshift over the full bit space.
    fn pseudo_random(n: usize, mut state: u64) -> Vec<f32> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f32::from_bits(state as u32)
            })
            .collect()
    }

    /// Operand rows `(a, b, c)`: `a × b` covers every pair of specials,
    /// followed by a random sweep; `c` is random throughout.
    fn operands() -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let s = specials();
        let mut a: Vec<f32> = s.iter().flat_map(|&x| s.iter().map(move |_| x)).collect();
        let mut b: Vec<f32> = s.iter().flat_map(|_| s.iter().copied()).collect();
        a.extend(pseudo_random(1003, 0x1234_5678_9ABC_DEF0));
        b.extend(pseudo_random(1003, 0x0FED_CBA9_8765_4321));
        let c = pseudo_random(a.len(), 0x0BAD_C0DE_1234_5678);
        // Launder through black_box: without it LLVM may const-fold the
        // oracle over these compile-time-known values, and folded float
        // ops canonicalize NaN payloads where the runtime ops don't.
        std::hint::black_box((a, b, c))
    }

    /// Asserts `got` is bit-equal to `want` lane by lane. Where two NaN
    /// operands meet in one operation (`nan_pair(k)`), which payload
    /// propagates is not fixed even between two scalar compilations (LLVM
    /// may commute `fadd`/`fmul`), so only NaN-ness is compared there.
    fn assert_lanes(what: &str, want: &[f32], got: &[f32], nan_pair: impl Fn(usize) -> bool) {
        for k in 0..want.len() {
            if nan_pair(k) && want[k].is_nan() {
                assert!(
                    got[k].is_nan(),
                    "{what}: lane {k}: non-NaN from NaN operands"
                );
                continue;
            }
            assert_eq!(
                want[k].to_bits(),
                got[k].to_bits(),
                "{what}: lane {k}: {:e} vs interpreter {:e}",
                got[k],
                want[k],
            );
        }
    }

    #[test]
    fn binary_ops_bit_identical_across_levels() {
        let (a, b, _) = operands();
        let mut got = vec![0.0f32; a.len()];
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Min,
            BinOp::Max,
            BinOp::Pow,
            BinOp::Lt,
            BinOp::Gt,
        ] {
            let want: Vec<f32> = (0..a.len()).map(|k| op.apply(a[k], b[k])).collect();
            bin_rows_scalar(op, &a, &b, &mut got);
            assert_lanes(&format!("{op:?}"), &want, &got, |k| {
                a[k].is_nan() && b[k].is_nan()
            });
        }
    }

    #[test]
    fn unary_ops_bit_identical_across_levels() {
        let (a, _, _) = operands();
        let mut got = vec![0.0f32; a.len()];
        for op in [
            UnOp::Neg,
            UnOp::Abs,
            UnOp::Sqrt,
            UnOp::Exp,
            UnOp::Log,
            UnOp::Sin,
            UnOp::Cos,
            UnOp::Rsqrt,
            UnOp::Floor,
        ] {
            let want: Vec<f32> = a.iter().map(|&x| op.apply(x)).collect();
            un_rows_scalar(op, &a, &mut got);
            assert_lanes(&format!("{op:?}"), &want, &got, |_| false);
        }
    }

    /// `MulAdd(a, b, c)` is the peephole for `Add(a, Mul(b, c))`.
    #[test]
    fn muladd_bit_identical_across_levels() {
        let (a, b, c) = operands();
        let want: Vec<f32> = (0..a.len())
            .map(|k| BinOp::Add.apply(a[k], BinOp::Mul.apply(b[k], c[k])))
            .collect();
        let mut got = vec![0.0f32; a.len()];
        muladd_rows_scalar(&a, &b, &c, &mut got);
        assert_lanes("MulAdd", &want, &got, |k| {
            (b[k].is_nan() && c[k].is_nan()) || (a[k].is_nan() && (b[k] * c[k]).is_nan())
        });
    }

    /// `Select(c, t, f)` is `c > 0 ? t : f`; a NaN condition selects `f`.
    #[test]
    fn select_bit_identical_across_levels() {
        let (a, b, c) = operands();
        let want: Vec<f32> = (0..a.len())
            .map(|k| if a[k] > 0.0 { b[k] } else { c[k] })
            .collect();
        let mut got = vec![0.0f32; a.len()];
        select_rows_scalar(&a, &b, &c, &mut got);
        assert_lanes("Select", &want, &got, |_| false);
    }
}
