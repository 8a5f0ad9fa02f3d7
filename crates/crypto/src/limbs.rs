//! Stack-allocated fixed-width big integers and Montgomery kernels.
//!
//! [`crate::bigint::BigUint`] stores limbs in a `Vec<u64>`, so every ring
//! operation allocates — at E10 scale the evidence hot loop spends more time
//! in the allocator than in arithmetic. This module provides the fixed-width
//! counterpart in the `bigint_impl!` style of arkworks: a const-generic
//! [`FixedUint<N>`] (`[u64; N]`, little-endian) with carry-chain add/sub,
//! schoolbook widening multiply and big-endian byte conversion, plus
//! [`FixedMontgomeryCtx<N>`], a Montgomery context whose scratch state is
//! stack arrays and scalar spill limbs — **zero heap allocations per modular
//! multiply or squaring**.
//!
//! The context offers two products: [`FixedMontgomeryCtx::mul`] (CIOS) and
//! the dedicated squaring kernel [`FixedMontgomeryCtx::sqr`], which forms
//! each off-diagonal partial product once, doubles, adds the diagonal and
//! then Montgomery-reduces the double-width square (≈ 1.5·N² limb
//! multiplies instead of 2·N²). Building a context is limb-only as well:
//! `R mod n` comes from modular doubling and `R² mod n` from a short
//! Montgomery power of two, so no long division is needed.
//!
//! [`crate::rsa`] precomputes one context per RSA key (for `n`, and for the
//! CRT primes `p`, `q`) when the key is built, and then runs sign, verify,
//! encrypt and decrypt from bytes to bytes on these kernels. [`BigUint::mod_pow`]
//! also dispatches odd moduli of up to 4 / 8 / 16 / 32 limbs here, building
//! a context per call, and falls back to the `Vec`-backed path beyond that.
//!
//! Exponentiation is left-to-right sliding-window with precomputed odd
//! powers: ~`bit_len` squarings plus ~`bit_len / (w+1)` multiplies instead
//! of the per-bit multiply of the classic path. The window width is a pure
//! function of the exponent's bit length (see [`window_bits`]), so the
//! operation sequence — and therefore any timing-visible behaviour in the
//! deterministic simulation — depends only on `(bit_len(exp), exp bits)`,
//! never on heap layout or platform.
//!
//! This file is the allocation-free hot path: the ALLOC-HOT lint roots every
//! function here and fails CI on any heap construction it can reach.
//! Conversions to and from heap-backed [`BigUint`] go through
//! [`BigUint::from_limb_slice`], which lives (and allocates) on the `bigint`
//! side of the boundary.

use crate::bigint::BigUint;

/// A fixed-width unsigned integer of `N` 64-bit limbs, little-endian.
///
/// Unlike [`BigUint`] there is no canonical-form invariant: high limbs may
/// be zero. Values are compared over the full width.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FixedUint<const N: usize> {
    limbs: [u64; N],
}

impl<const N: usize> FixedUint<N> {
    /// The value zero.
    pub const fn zero() -> Self {
        FixedUint { limbs: [0; N] }
    }

    /// The value one.
    pub fn one() -> Self {
        let mut limbs = [0u64; N];
        if let Some(lo) = limbs.first_mut() {
            *lo = 1;
        }
        FixedUint { limbs }
    }

    /// Builds from a heap-backed integer; `None` if it needs more than `N`
    /// limbs.
    pub fn from_biguint(v: &BigUint) -> Option<Self> {
        let src = v.limbs();
        if src.len() > N {
            return None;
        }
        let mut limbs = [0u64; N];
        limbs[..src.len()].copy_from_slice(src);
        Some(FixedUint { limbs })
    }

    /// Converts into the heap-backed representation (normalising high
    /// zero limbs).
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_limb_slice(&self.limbs)
    }

    /// Parses a big-endian byte string of any length; `None` if the value
    /// needs more than `N` limbs (leading zero bytes are ignored).
    pub fn from_be_bytes(bytes: &[u8]) -> Option<Self> {
        let mut limbs = [0u64; N];
        for (i, chunk) in bytes.rchunks(8).enumerate() {
            let v = chunk.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
            if v != 0 {
                *limbs.get_mut(i)? = v;
            }
        }
        Some(FixedUint { limbs })
    }

    /// Writes the value big-endian into all of `out`, left-padded with
    /// zeros. Returns `false` (leaving `out` holding the low bytes) if the
    /// value needs more than `out.len()` bytes.
    pub fn write_be_bytes(&self, out: &mut [u8]) -> bool {
        for (i, o) in out.iter_mut().rev().enumerate() {
            *o = self.limbs.get(i / 8).map_or(0, |l| (l >> (8 * (i % 8))) as u8);
        }
        self.bit_len() <= 8 * out.len()
    }

    /// Borrows the little-endian limbs.
    pub fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// True iff every limb is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        limbs_bit_len(&self.limbs)
    }

    /// Splits into `(low H limbs, next H limbs)`. Lossless when `N ≤ 2H`;
    /// the RSA engine uses it with `N = 2H` to cut a modulus-width value
    /// into CRT-half-width pieces.
    pub fn split<const H: usize>(&self) -> (FixedUint<H>, FixedUint<H>) {
        debug_assert!(N <= 2 * H);
        let mut lo = [0u64; H];
        let mut hi = [0u64; H];
        for (d, &s) in lo.iter_mut().zip(&self.limbs) {
            *d = s;
        }
        for (d, &s) in hi.iter_mut().zip(self.limbs.iter().skip(H)) {
            *d = s;
        }
        (FixedUint { limbs: lo }, FixedUint { limbs: hi })
    }

    /// Joins `lo + hi·2^(64H)`, the inverse of [`Self::split`]. Lossless
    /// when `2H ≤ N`.
    pub fn from_halves<const H: usize>(lo: &FixedUint<H>, hi: &FixedUint<H>) -> Self {
        debug_assert!(2 * H <= N);
        let mut limbs = [0u64; N];
        for (d, &s) in limbs.iter_mut().zip(lo.limbs.iter().chain(&hi.limbs)) {
            *d = s;
        }
        FixedUint { limbs }
    }

    /// Carry-chain addition; returns `(sum mod 2^(64N), carry_out)`.
    pub fn add_carry(&self, other: &Self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for ((o, &a), &b) in out.iter_mut().zip(&self.limbs).zip(&other.limbs) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *o = s2;
            carry = c1 as u64 + c2 as u64;
        }
        (FixedUint { limbs: out }, carry)
    }

    /// Borrow-chain subtraction; returns `(diff mod 2^(64N), borrow_out)`.
    pub fn sub_borrow(&self, other: &Self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        for ((o, &a), &b) in out.iter_mut().zip(&self.limbs).zip(&other.limbs) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = b1 as u64 + b2 as u64;
        }
        (FixedUint { limbs: out }, borrow)
    }

    /// Schoolbook widening multiplication; returns `(low N limbs, high N
    /// limbs)` of the 2N-limb product. Stack-only.
    pub fn mul_wide(&self, other: &Self) -> (Self, Self) {
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let pos = i + j;
                let cell = if pos < N { &mut lo[pos] } else { &mut hi[pos - N] };
                let t = *cell as u128 + (a as u128) * (b as u128) + carry;
                *cell = t as u64;
                carry = t >> 64;
            }
            let mut pos = i + N;
            while carry != 0 && pos < 2 * N {
                let cell = if pos < N { &mut lo[pos] } else { &mut hi[pos - N] };
                let t = *cell as u128 + carry;
                *cell = t as u64;
                carry = t >> 64;
                pos += 1;
            }
        }
        (FixedUint { limbs: lo }, FixedUint { limbs: hi })
    }
}

/// Significant bits of a little-endian limb slice (0 for zero).
fn limbs_bit_len(limbs: &[u64]) -> usize {
    match limbs.iter().rposition(|&l| l != 0) {
        Some(i) => 64 * i + 64 - limbs.get(i).map_or(64, |l| l.leading_zeros() as usize),
        None => 0,
    }
}

/// Bit `i` of a little-endian limb slice (false beyond its end).
fn limbs_bit(limbs: &[u64], i: usize) -> bool {
    limbs.get(i / 64).is_some_and(|l| (l >> (i % 64)) & 1 == 1)
}

/// Sliding-window width as a pure function of the exponent bit length.
///
/// Deterministic by construction: two exponents of equal bit length use the
/// same width, so the squaring/multiply schedule depends only on the
/// exponent's bits — never on the value of the base or on heap state.
pub fn window_bits(exp_bits: usize) -> usize {
    match exp_bits {
        0..=23 => 2,
        24..=79 => 3,
        80..=239 => 4,
        _ => 5,
    }
}

/// Largest precomputed-odd-powers table any window width needs
/// (`2^(5-1)` entries for w = 5).
const MAX_TABLE: usize = 16;

/// One step of a sliding-window exponentiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// Start the accumulator at the precomputed odd power `base^(2k+1)`
    /// (the first window).
    Load(usize),
    /// Square the accumulator.
    Sqr,
    /// Multiply the accumulator by the precomputed odd power
    /// `base^(2k+1)`.
    Mul(usize),
}

/// The left-to-right sliding-window schedule of an exponent, as a stream
/// of [`Step`]s.
///
/// The first window loads its odd power into the accumulator; after that,
/// runs of zero bits cost one squaring each and each window ending in a
/// set bit costs `width` squarings plus one multiply by an odd power. The
/// sequence is a pure function of the exponent's bits (with the width
/// from [`window_bits`]), never of the base. A zero exponent has no steps.
#[derive(Clone, Debug)]
struct Schedule<'a> {
    exp: &'a [u64],
    /// Window width.
    w: usize,
    /// Exclusive upper cursor: exponent bits `[0, i)` remain.
    i: usize,
    /// Squarings still owed by the current window.
    sqr_left: usize,
    /// The current window's multiply, once its squarings are done.
    mul_next: Option<usize>,
    /// No window emitted yet: the next window is a [`Step::Load`].
    fresh: bool,
}

impl<'a> Schedule<'a> {
    /// The schedule of a little-endian limb exponent.
    fn new(exp: &'a [u64]) -> Self {
        let bits = limbs_bit_len(exp);
        Schedule { exp, w: window_bits(bits), i: bits, sqr_left: 0, mul_next: None, fresh: true }
    }
}

impl Iterator for Schedule<'_> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        if self.sqr_left > 0 {
            self.sqr_left -= 1;
            return Some(Step::Sqr);
        }
        if let Some(k) = self.mul_next.take() {
            return Some(Step::Mul(k));
        }
        let i = self.i;
        if i == 0 {
            return None;
        }
        if !limbs_bit(self.exp, i - 1) {
            self.i -= 1;
            return Some(Step::Sqr);
        }
        // Window [j, i): at most `w` bits, ending (at j) in a set bit so
        // the window value is odd and lives in the table.
        let mut j = i.saturating_sub(self.w);
        while !limbs_bit(self.exp, j) {
            j += 1;
        }
        let mut val = 0usize;
        for b in (j..i).rev() {
            val = (val << 1) | limbs_bit(self.exp, b) as usize;
        }
        self.i = j;
        if self.fresh {
            self.fresh = false;
            return Some(Step::Load((val - 1) / 2));
        }
        self.sqr_left = i - j - 1;
        self.mul_next = Some((val - 1) / 2);
        Some(Step::Sqr)
    }
}

/// Montgomery arithmetic context over a fixed width.
///
/// `R = 2^(64·N)`. The modulus must be odd, greater than one and fit in `N`
/// limbs. Construction and every product are limb-only: no heap traffic.
/// Contexts are plain `Copy` data, so a key can own one per modulus and
/// clone it freely.
#[derive(Clone, Copy)]
pub struct FixedMontgomeryCtx<const N: usize> {
    /// The modulus.
    n: FixedUint<N>,
    /// Low limb of the modulus, hoisted out of the reduction loop.
    n0: u64,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R mod n` — the value one in Montgomery form.
    r1: FixedUint<N>,
    /// `R² mod n` — the to-Montgomery conversion factor.
    r2: FixedUint<N>,
    /// `R³ mod n` — lifts the high half of a double-width value into
    /// Montgomery form (see [`Self::to_mont_wide`]).
    r3: FixedUint<N>,
}

impl<const N: usize> FixedMontgomeryCtx<N> {
    /// Builds a context for an odd `modulus > 1` of at most `N` limbs;
    /// `None` if the modulus is even, trivial or too wide.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        Self::from_modulus(&FixedUint::from_biguint(modulus)?)
    }

    /// [`Self::new`] for a modulus already in limbs.
    pub fn from_modulus(n: &FixedUint<N>) -> Option<Self> {
        let n0 = n.limbs.first().copied()?;
        let bits = n.bit_len();
        if n0 & 1 == 0 || bits < 2 {
            return None;
        }
        // Newton iteration for n0^{-1} mod 2^64 (odd n0 ⇒ invertible).
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let zero = FixedUint::zero();
        let ctx = FixedMontgomeryCtx {
            n: *n,
            n0,
            n_prime: inv.wrapping_neg(),
            r1: zero,
            r2: zero,
            r3: zero,
        };
        Some(ctx.with_constants(bits))
    }

    /// Fills in `R mod n`, `R² mod n` and `R³ mod n` for a modulus of
    /// `bits` significant bits, without long division.
    fn with_constants(mut self, bits: usize) -> Self {
        // R mod n: 2^(bits-1) < n (n is odd, so not a power of two), then
        // double up to 2^(64N). One doubling when the top bit is set.
        let mut r1 = FixedUint::zero();
        if let Some(l) = r1.limbs.get_mut((bits - 1) / 64) {
            *l = 1 << ((bits - 1) % 64);
        }
        for _ in bits - 1..64 * N {
            r1 = self.double_mod(&r1);
        }
        self.r1 = r1;
        // 2R mod n is 2 in Montgomery form; raising it to 64N gives
        // 2^(64N) = R in Montgomery form, i.e. R² mod n.
        self.r2 = self.pow_mont(&self.double_mod(&r1), &[64 * N as u64]);
        self.r3 = self.mul(&self.r2, &self.r2);
        self
    }

    /// The modulus.
    pub fn modulus(&self) -> &FixedUint<N> {
        &self.n
    }

    /// The value one in Montgomery form (`R mod n`).
    pub fn one(&self) -> FixedUint<N> {
        self.r1
    }

    /// `2a mod n` for `a < n`.
    fn double_mod(&self, a: &FixedUint<N>) -> FixedUint<N> {
        let (d, carry) = a.add_carry(a);
        self.reduce_once(d, carry)
    }

    /// `(a + b) mod n` for `a, b < n`.
    fn add_mod(&self, a: &FixedUint<N>, b: &FixedUint<N>) -> FixedUint<N> {
        let (s, carry) = a.add_carry(b);
        self.reduce_once(s, carry)
    }

    /// `(a − b) mod n` for `a, b < n`.
    pub fn sub_mod(&self, a: &FixedUint<N>, b: &FixedUint<N>) -> FixedUint<N> {
        let (d, borrow) = a.sub_borrow(b);
        if borrow != 0 {
            d.add_carry(&self.n).0
        } else {
            d
        }
    }

    /// Maps `carry·R + v` (known `< 2n`) into `[0, n)` with one
    /// conditional subtraction, selected without a branch (in an
    /// exponentiation chain the branch is unpredictable). A set carry is
    /// cancelled exactly by the subtraction borrow.
    fn reduce_once(&self, v: FixedUint<N>, carry: u64) -> FixedUint<N> {
        let (d, borrow) = v.sub_borrow(&self.n);
        debug_assert!(carry <= borrow);
        // Keep `v` only when the subtraction borrowed and no carry was set.
        std::hint::select_unpredictable(borrow > carry, v, d)
    }

    /// Montgomery product `a·b·R^{-1} mod n`.
    ///
    /// Requires `a·b < R·n` (e.g. both operands in Montgomery form, or any
    /// `a < R` with `b < n`); the result is fully reduced. CIOS with the
    /// two spill limbs (`t[N]`, `t[N+1]`) kept in scalars: no heap
    /// traffic, no bounds checks beyond the const-width arrays.
    pub fn mul(&self, a: &FixedUint<N>, b: &FixedUint<N>) -> FixedUint<N> {
        let n = &self.n.limbs;
        let mut t = [0u64; N];
        let mut t_n = 0u64; // t[N]
        let mut t_n1 = 0u64; // t[N+1]
        for &ai in a.limbs.iter() {
            // t += ai · b
            let mut carry = 0u128;
            for (tj, &bj) in t.iter_mut().zip(&b.limbs) {
                let s = *tj as u128 + (ai as u128) * (bj as u128) + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t_n as u128 + carry;
            t_n = s as u64;
            t_n1 = (s >> 64) as u64;

            // m = t[0]·n' mod 2^64; t = (t + m·n) / 2^64
            let t0 = t.first().copied().unwrap_or(0);
            let m = t0.wrapping_mul(self.n_prime);
            let s = t0 as u128 + (m as u128) * (self.n0 as u128);
            let mut carry = s >> 64;
            for j in 1..N {
                let s = t[j] as u128 + (m as u128) * (n[j] as u128) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t_n as u128 + carry;
            t[N - 1] = s as u64;
            carry = s >> 64;
            let s = t_n1 as u128 + carry;
            t_n = s as u64;
            t_n1 = (s >> 64) as u64;
        }
        debug_assert_eq!(t_n1, 0);
        // t < 2n: one conditional subtraction completes the reduction.
        self.reduce_once(FixedUint { limbs: t }, t_n)
    }

    /// Montgomery square `a²·R^{-1} mod n` for `a < n`; equal to
    /// `self.mul(a, a)`, with fewer limb multiplies.
    ///
    /// Separated operand scanning: the double-width square is formed with
    /// each off-diagonal product `a_i·a_j` (`i < j`) computed once and
    /// doubled by a one-bit shift, the diagonal `a_i²` added, and the
    /// result reduced word by word. The 2N-limb buffer is two stack arrays
    /// viewed as one slice.
    pub fn sqr(&self, a: &FixedUint<N>) -> FixedUint<N> {
        let mut wide = [[0u64; N]; 2];
        let t = wide.as_flattened_mut();
        // Off-diagonal products, each once: row i adds a_i·a_j (j > i) at
        // limbs i+j, its carry lands on the still-empty limb i+N.
        for (i, &ai) in a.limbs.iter().enumerate() {
            let mut carry = 0u128;
            if let Some(row) = t.get_mut(2 * i + 1..i + N) {
                for (tk, &aj) in row.iter_mut().zip(a.limbs.iter().skip(i + 1)) {
                    let s = *tk as u128 + (ai as u128) * (aj as u128) + carry;
                    *tk = s as u64;
                    carry = s >> 64;
                }
            }
            if let Some(tk) = t.get_mut(i + N) {
                *tk = carry as u64;
            }
        }
        // Double (the off-diagonal sum is below 2^(128N-1): no bit falls
        // out), adding the diagonal squares a_i² at limbs 2i, 2i+1.
        let mut shifted_out = 0u64;
        let mut carry = 0u128;
        for (pair, &ai) in t.chunks_exact_mut(2).zip(&a.limbs) {
            let sq = (ai as u128) * (ai as u128);
            if let [lo, hi] = pair {
                let (l, h) = (*lo, *hi);
                let s = (((l << 1) | shifted_out) as u128) + (sq as u64 as u128) + carry;
                *lo = s as u64;
                let s = (((h << 1) | (l >> 63)) as u128) + (sq >> 64) + (s >> 64);
                *hi = s as u64;
                carry = s >> 64;
                shifted_out = h >> 63;
            }
        }
        // Montgomery reduction of the 2N-limb square: each step clears the
        // lowest live limb; `spill` carries overflow out of limb i+N.
        let n = &self.n.limbs;
        let mut spill = 0u64;
        for i in 0..N {
            let Some(window) = t.get_mut(i..i + N + 1) else { break };
            let Some((top, low)) = window.split_last_mut() else { break };
            let m = low.first().map_or(0, |&t0| t0.wrapping_mul(self.n_prime)) as u128;
            let mut carry = 0u128;
            for (tk, &nk) in low.iter_mut().zip(n) {
                let s = *tk as u128 + m * (nk as u128) + carry;
                *tk = s as u64;
                carry = s >> 64;
            }
            let s = *top as u128 + carry + spill as u128;
            *top = s as u64;
            spill = (s >> 64) as u64;
        }
        let [_, high] = wide;
        // a < n ⇒ the reduced value is below 2n.
        self.reduce_once(FixedUint { limbs: high }, spill)
    }

    /// Converts into Montgomery form: `a·R mod n`, for any `a < R`.
    pub fn to_mont(&self, a: &FixedUint<N>) -> FixedUint<N> {
        self.mul(a, &self.r2)
    }

    /// Converts the double-width value `hi·R + lo` (any `lo, hi < R`)
    /// straight into Montgomery form: `lo·R + hi·R² mod n`. This is how a
    /// modulus-width RSA input enters a CRT half without a long division.
    pub fn to_mont_wide(&self, lo: &FixedUint<N>, hi: &FixedUint<N>) -> FixedUint<N> {
        self.add_mod(&self.mul(lo, &self.r2), &self.mul(hi, &self.r3))
    }

    /// Converts out of Montgomery form: `a·R^{-1} mod n`.
    pub fn from_mont(&self, a: &FixedUint<N>) -> FixedUint<N> {
        self.mul(a, &FixedUint::one())
    }

    /// Sliding-window exponentiation on a Montgomery-form base (`< n`)
    /// with a little-endian limb exponent; the result stays in Montgomery
    /// form.
    ///
    /// Runs the sliding-window schedule of `exp`: every chain squaring on
    /// [`Self::sqr`], one multiply per window by a precomputed odd power
    /// from a stack table (≤ 16 entries).
    pub fn pow_mont(&self, base_mont: &FixedUint<N>, exp: &[u64]) -> FixedUint<N> {
        let mut chain = PowChain::new(self, base_mont, exp);
        while chain.pow_step() {}
        chain.acc
    }

    /// Two independent [`Self::pow_mont`]s — `self` on `(base, exp)` and
    /// `other` on `(other_base, other_exp)` — run in lockstep, one step of
    /// each per round. At small widths a Montgomery product is bound by
    /// its carry-chain latency rather than by multiplier throughput, so
    /// issuing two independent chains side by side lets the CPU overlap
    /// them; the RSA engine runs its two CRT halves this way. Each chain
    /// keeps its own schedule, so the results equal two separate calls.
    pub fn pow_mont_pair(
        &self,
        base: &FixedUint<N>,
        exp: &[u64],
        other: &Self,
        other_base: &FixedUint<N>,
        other_exp: &[u64],
    ) -> (FixedUint<N>, FixedUint<N>) {
        let mut a = PowChain::new(self, base, exp);
        let mut b = PowChain::new(other, other_base, other_exp);
        loop {
            let more_a = a.pow_step();
            let more_b = b.pow_step();
            if !more_a && !more_b {
                return (a.acc, b.acc);
            }
        }
    }

    /// Full modular exponentiation `base^exp mod n` in the normal domain,
    /// for any `base < R` and a little-endian limb exponent.
    pub fn pow(&self, base: &FixedUint<N>, exp: &[u64]) -> FixedUint<N> {
        if limbs_bit_len(exp) == 0 {
            return FixedUint::one();
        }
        let base_mont = self.to_mont(base);
        let acc = self.pow_mont(&base_mont, exp);
        self.from_mont(&acc)
    }
}

/// One exponentiation in progress: the accumulator, the exponent's
/// [`Schedule`] and the table of odd powers `base^(2i+1)` (Montgomery
/// form), filled on first use — a short exponent such as `e = 65537` never
/// needs more than `base` itself.
struct PowChain<'a, const N: usize> {
    ctx: &'a FixedMontgomeryCtx<N>,
    acc: FixedUint<N>,
    steps: Schedule<'a>,
    table: [FixedUint<N>; MAX_TABLE],
    /// Table entries computed so far (entry 0 is the base).
    built: usize,
    /// `base²`, the table stride, once `built > 1`.
    base_sq: FixedUint<N>,
}

impl<'a, const N: usize> PowChain<'a, N> {
    fn new(ctx: &'a FixedMontgomeryCtx<N>, base_mont: &FixedUint<N>, exp: &'a [u64]) -> Self {
        PowChain {
            ctx,
            acc: ctx.r1,
            steps: Schedule::new(exp),
            table: [*base_mont; MAX_TABLE],
            built: 1,
            base_sq: *base_mont,
        }
    }

    /// Applies the next schedule step; false once the schedule is done.
    #[inline]
    fn pow_step(&mut self) -> bool {
        let ctx = self.ctx;
        match self.steps.next() {
            None => false,
            Some(Step::Sqr) => {
                self.acc = ctx.sqr(&self.acc);
                true
            }
            Some(Step::Load(k)) => {
                self.acc = *self.odd_power(k);
                true
            }
            Some(Step::Mul(k)) => {
                let acc = self.acc;
                self.acc = ctx.mul(&acc, self.odd_power(k));
                true
            }
        }
    }

    /// `base^(2k+1)`, computing the table up to it on first use.
    #[inline]
    fn odd_power(&mut self, k: usize) -> &FixedUint<N> {
        let k = k % MAX_TABLE;
        if self.built <= k {
            self.extend_table(k);
        }
        &self.table[k]
    }

    /// Computes the odd powers up to `table[k]`.
    #[cold]
    #[inline(never)]
    fn extend_table(&mut self, k: usize) {
        let ctx = self.ctx;
        while self.built <= k {
            if self.built == 1 {
                self.base_sq = ctx.sqr(&self.table[self.built - 1]);
            }
            self.table[self.built] = ctx.mul(&self.table[self.built - 1], &self.base_sq);
            self.built += 1;
        }
    }
}

/// `base^exp mod modulus` through the `N`-limb fixed kernel, or `None` when
/// the modulus does not qualify (even, trivial, or wider than `N` limbs).
///
/// This is the dispatch target of [`BigUint::mod_pow`].
pub fn mod_pow_fixed<const N: usize>(
    base: &BigUint,
    exp: &BigUint,
    modulus: &BigUint,
) -> Option<BigUint> {
    let ctx = FixedMontgomeryCtx::<N>::new(modulus)?;
    let reduced = base.rem(modulus);
    let b = FixedUint::from_biguint(&reduced)?;
    Some(ctx.pow(&b, exp.limbs()).to_biguint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn fixed_roundtrip_and_width_limit() {
        let v = BigUint::from_bytes_be(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5]);
        let f = FixedUint::<4>::from_biguint(&v).unwrap();
        assert_eq!(f.to_biguint(), v);
        let wide = BigUint::one().shl(64 * 4);
        assert!(FixedUint::<4>::from_biguint(&wide).is_none());
        assert!(FixedUint::<5>::from_biguint(&wide).is_some());
    }

    #[test]
    fn add_carry_chain() {
        let max =
            FixedUint::<2>::from_biguint(&BigUint::from_limb_slice(&[u64::MAX, u64::MAX])).unwrap();
        let one = FixedUint::<2>::one();
        let (sum, carry) = max.add_carry(&one);
        assert!(sum.is_zero());
        assert_eq!(carry, 1);
        let (diff, borrow) = sum.sub_borrow(&one);
        assert_eq!(borrow, 1);
        assert_eq!(diff, max);
    }

    #[test]
    fn mul_wide_matches_biguint() {
        let a = BigUint::from_limb_slice(&[u64::MAX, 12345, 7]);
        let b = BigUint::from_limb_slice(&[99, u64::MAX - 3, 1]);
        let fa = FixedUint::<3>::from_biguint(&a).unwrap();
        let fb = FixedUint::<3>::from_biguint(&b).unwrap();
        let (lo, hi) = fa.mul_wide(&fb);
        let combined = hi.to_biguint().shl(64 * 3).add(&lo.to_biguint());
        assert_eq!(combined, a.mul(&b));
    }

    #[test]
    fn montgomery_mul_matches_mul_mod() {
        let m = big(1_000_003);
        let ctx = FixedMontgomeryCtx::<2>::new(&m).unwrap();
        for (x, y) in [(2u64, 3u64), (999_999, 999_999), (123_456, 654_321)] {
            let fx = ctx.to_mont(&FixedUint::from_biguint(&big(x)).unwrap());
            let fy = ctx.to_mont(&FixedUint::from_biguint(&big(y)).unwrap());
            let got = ctx.from_mont(&ctx.mul(&fx, &fy)).to_biguint();
            assert_eq!(got, big(x).mul_mod(&big(y), &m), "{x}·{y} mod 1000003");
        }
    }

    #[test]
    fn pow_matches_vec_path() {
        let m = big(1_000_003);
        let ctx = FixedMontgomeryCtx::<2>::new(&m).unwrap();
        for (b, e) in [(4u64, 13u64), (2, 1000), (999_999, 65537)] {
            let fb = FixedUint::from_biguint(&big(b)).unwrap();
            let got = ctx.pow(&fb, big(e).limbs()).to_biguint();
            assert_eq!(got, big(b).mod_pow_classic(&big(e), &m), "{b}^{e}");
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let m = big(97);
        let ctx = FixedMontgomeryCtx::<1>::new(&m).unwrap();
        let fb = FixedUint::from_biguint(&big(5)).unwrap();
        assert!(ctx.pow(&fb, &[]).to_biguint().is_one());
    }

    #[test]
    fn ctx_rejects_even_trivial_and_oversized() {
        assert!(FixedMontgomeryCtx::<2>::new(&big(16)).is_none());
        assert!(FixedMontgomeryCtx::<2>::new(&BigUint::one()).is_none());
        assert!(FixedMontgomeryCtx::<2>::new(&BigUint::zero()).is_none());
        let wide = BigUint::one().shl(130).add(&BigUint::one());
        assert!(FixedMontgomeryCtx::<2>::new(&wide).is_none());
        assert!(FixedMontgomeryCtx::<3>::new(&wide).is_some());
    }

    #[test]
    fn mod_pow_fixed_dispatch_agrees_with_classic() {
        // 2^61-1 is prime: Fermat gives a^(p-1) = 1.
        let p = big(2_305_843_009_213_693_951);
        let a = big(123_456_789);
        let e = p.sub(&BigUint::one());
        let got = mod_pow_fixed::<1>(&a, &e, &p).unwrap();
        assert!(got.is_one());
        assert_eq!(
            mod_pow_fixed::<4>(&a, &big(65537), &p).unwrap(),
            a.mod_pow_classic(&big(65537), &p)
        );
    }

    /// A random odd modulus with its top bit set, `N` limbs wide.
    fn odd_full_width<const N: usize>(rng: &mut crate::rng::ChaChaRng) -> FixedUint<N> {
        let mut bytes = rng.gen_bytes(8 * N);
        if let Some(b) = bytes.first_mut() {
            *b |= 0x80;
        }
        if let Some(b) = bytes.last_mut() {
            *b |= 1;
        }
        FixedUint::from_be_bytes(&bytes).unwrap()
    }

    fn sqr_matches_mul<const N: usize>(rng: &mut crate::rng::ChaChaRng) {
        let ctx = FixedMontgomeryCtx::from_modulus(&odd_full_width::<N>(rng)).unwrap();
        for _ in 0..50 {
            let a = ctx.to_mont(&FixedUint::from_be_bytes(&rng.gen_bytes(8 * N)).unwrap());
            assert_eq!(ctx.sqr(&a), ctx.mul(&a, &a), "N = {N}");
        }
        // Extremes: zero, one and n − 1.
        let n_minus_1 = ctx.modulus().sub_borrow(&FixedUint::one()).0;
        for a in [FixedUint::zero(), ctx.one(), n_minus_1] {
            assert_eq!(ctx.sqr(&a), ctx.mul(&a, &a), "N = {N}");
        }
    }

    #[test]
    fn squaring_kernel_matches_the_general_product() {
        let mut rng = crate::rng::ChaChaRng::seed_from_u64(0x5a);
        sqr_matches_mul::<1>(&mut rng);
        sqr_matches_mul::<2>(&mut rng);
        sqr_matches_mul::<3>(&mut rng);
        sqr_matches_mul::<4>(&mut rng);
        sqr_matches_mul::<8>(&mut rng);
        sqr_matches_mul::<16>(&mut rng);
        sqr_matches_mul::<32>(&mut rng);
    }

    #[test]
    fn limb_built_constants_match_long_division() {
        let mut rng = crate::rng::ChaChaRng::seed_from_u64(0x5b);
        for _ in 0..20 {
            // Moduli of every bit length up to the width, top bit set or not.
            let bits = 2 + (rng.next_u64() % 255) as usize;
            let m = BigUint::from_bytes_be(&rng.gen_bytes(32)).rem(&BigUint::one().shl(bits));
            let m = m.add(&BigUint::one().shl(bits - 1));
            let m = if m.is_even() { m.add(&BigUint::one()) } else { m };
            let ctx = FixedMontgomeryCtx::<4>::new(&m).unwrap();
            let r = BigUint::one().shl(256);
            assert_eq!(ctx.r1.to_biguint(), r.rem(&m));
            assert_eq!(ctx.r2.to_biguint(), r.mul(&r).rem(&m));
            assert_eq!(ctx.r3.to_biguint(), r.mul(&r).mul(&r).rem(&m));
        }
    }

    #[test]
    fn double_width_values_enter_montgomery_form_directly() {
        let mut rng = crate::rng::ChaChaRng::seed_from_u64(0x5c);
        let n = odd_full_width::<4>(&mut rng);
        let ctx = FixedMontgomeryCtx::from_modulus(&n).unwrap();
        for _ in 0..20 {
            let wide = FixedUint::<8>::from_be_bytes(&rng.gen_bytes(64)).unwrap();
            let (lo, hi) = wide.split::<4>();
            assert_eq!(FixedUint::<8>::from_halves(&lo, &hi), wide);
            let lifted = ctx.from_mont(&ctx.to_mont_wide(&lo, &hi));
            assert_eq!(lifted.to_biguint(), wide.to_biguint().rem(&n.to_biguint()));
        }
    }

    #[test]
    fn big_endian_bytes_roundtrip_and_width_checks() {
        let v = FixedUint::<2>::from_be_bytes(&[0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        assert_eq!(v.to_biguint(), BigUint::from_bytes_be(&[1, 2, 3, 4, 5, 6, 7, 8, 9]));
        let mut out = [0xffu8; 12];
        assert!(v.write_be_bytes(&mut out));
        assert_eq!(out, [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // Too short a buffer reports the overflow; too wide an input is None.
        assert!(!v.write_be_bytes(&mut [0u8; 8]));
        assert!(FixedUint::<1>::from_be_bytes(&[1, 0, 0, 0, 0, 0, 0, 0, 0]).is_none());
        assert!(FixedUint::<1>::from_be_bytes(&[0, 0xff, 0, 0, 0, 0, 0, 0, 0]).is_some());
    }

    #[test]
    fn schedule_of_f4_is_sixteen_squarings_and_one_multiply() {
        let steps: Vec<Step> = Schedule::new(&[65537]).collect();
        let mut expected = vec![Step::Load(0)];
        expected.extend([Step::Sqr; 16]);
        expected.push(Step::Mul(0));
        assert_eq!(steps, expected);
        assert!(Schedule::new(&[]).next().is_none());
        // One squaring per exponent bit below the first window: an 89-bit
        // exponent (4-bit windows) whose top bits 1001 form that window.
        let exp = [0x9e37_79b9_7f4a_7c15u64, 0x0123_4567];
        let sqrs = Schedule::new(&exp).filter(|s| *s == Step::Sqr).count();
        assert_eq!(limbs_bit_len(&exp), 89);
        assert_eq!(sqrs, 89 - 4);
    }

    #[test]
    fn lockstep_pair_equals_two_separate_powers() {
        let mut rng = crate::rng::ChaChaRng::seed_from_u64(0x5d);
        let p = FixedMontgomeryCtx::from_modulus(&odd_full_width::<4>(&mut rng)).unwrap();
        let q = FixedMontgomeryCtx::from_modulus(&odd_full_width::<4>(&mut rng)).unwrap();
        for exp_bytes in [1usize, 3, 17, 32] {
            let x = p.to_mont(&FixedUint::from_be_bytes(&rng.gen_bytes(32)).unwrap());
            let y = q.to_mont(&FixedUint::from_be_bytes(&rng.gen_bytes(32)).unwrap());
            let ex = FixedUint::<4>::from_be_bytes(&rng.gen_bytes(exp_bytes)).unwrap();
            let ey = FixedUint::<4>::from_be_bytes(&rng.gen_bytes(32)).unwrap();
            let (a, b) = p.pow_mont_pair(&x, ex.limbs(), &q, &y, ey.limbs());
            assert_eq!(a, p.pow_mont(&x, ex.limbs()));
            assert_eq!(b, q.pow_mont(&y, ey.limbs()));
        }
    }

    #[test]
    fn window_bits_are_deterministic_in_bit_len() {
        assert_eq!(window_bits(17), 2); // e = 65537
        assert_eq!(window_bits(64), 3);
        assert_eq!(window_bits(239), 4);
        assert_eq!(window_bits(512), 5);
        assert_eq!(window_bits(2048), 5);
        // Table never exceeds the stack buffer.
        assert!(1usize << (window_bits(usize::MAX) - 1) <= MAX_TABLE);
    }
}
