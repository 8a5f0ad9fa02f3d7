//! RSA: key generation, PKCS#1 v1.5 signatures and encryption.
//!
//! The TPNR evidence of paper §4.1 is
//! `Encrypt_pk(recipient){ Sign_sk(sender)(H(data)), Sign_sk(sender)(plaintext) }`:
//! signatures give non-repudiation (only the holder of the private key could
//! have produced them) and the public-key envelope gives confidentiality of
//! the evidence in transit. PKCS#1 v1.5 is the scheme SSL/TLS of the paper's
//! era actually used.
//!
//! Implementation notes: every key carries a fixed-limb engine, built
//! once in [`RsaPublicKey::from_components`] / [`RsaKeyPair::from_primes`]
//! at the narrowest of the 4/8/16/32-limb widths that holds `n` (256- to
//! 2048-bit moduli). A public key keeps a [`FixedMontgomeryCtx`] for `n`; a
//! private key also keeps contexts for `p` and `q` (half width), `dp`/`dq`
//! as limbs and `qinv` in Montgomery form. Sign, verify, encrypt, decrypt
//! and the batch verifier then run from bytes to bytes on stack limbs: the
//! input is parsed once, reduced straight into each CRT half's Montgomery
//! form, exponentiated with the squaring kernel, and recombined
//! (`m2 + (qinv·(m1−m2) mod p)·q`) with a Montgomery multiply and one
//! widening multiply — no `BigUint`, no limb-buffer allocation. Keys outside
//! those widths (wider than 2048 bits, or with CRT primes too unbalanced
//! for the half width) keep the [`BigUint::mod_pow`] path, with identical
//! results. This is a faithful, test-vectored implementation but is **not**
//! hardened against local side channels — see README "Security status".

use crate::bigint::BigUint;
use crate::error::CryptoError;
use crate::hash::HashAlg;
use crate::limbs::{FixedMontgomeryCtx, FixedUint};
use crate::prime::gen_prime;
use crate::rng::ChaChaRng;
use std::cmp::Ordering;

/// Standard RSA public exponent (F4).
pub const E: u64 = 65537;

/// An RSA public key `(n, e)`.
///
/// Equality and `Debug` cover `(n, e)` only; the precomputed engine is a
/// function of them.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    engine: PublicEngine,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPublicKey").field("n", &self.n).field("e", &self.e).finish()
    }
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    /// The private exponent: the CRT parameters replace it outside tests.
    #[cfg(test)]
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    engine: PrivateEngine,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey").field("bits", &self.public.bits()).finish_non_exhaustive()
    }
}

/// A public/private key pair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// The public half, freely distributable.
    pub public: RsaPublicKey,
    /// The private half.
    pub private: RsaPrivateKey,
}

/// The fixed-limb engine of a public key: a Montgomery context for `n` at
/// the narrowest width that holds it, built once with the key. Contexts
/// up to 512-bit moduli sit inline; wider ones are boxed so every key
/// stays small to move.
#[derive(Clone)]
enum PublicEngine {
    L4(FixedMontgomeryCtx<4>),
    L8(FixedMontgomeryCtx<8>),
    L16(Box<FixedMontgomeryCtx<16>>),
    L32(Box<FixedMontgomeryCtx<32>>),
    /// Even, trivial or wider than 32 limbs: [`BigUint::mod_pow`].
    Generic,
}

impl PublicEngine {
    fn new(n: &BigUint) -> Self {
        let built = match n.limbs().len() {
            0..=4 => FixedMontgomeryCtx::new(n).map(Self::L4),
            5..=8 => FixedMontgomeryCtx::new(n).map(Self::L8),
            9..=16 => FixedMontgomeryCtx::new(n).map(|c| Self::L16(Box::new(c))),
            17..=32 => FixedMontgomeryCtx::new(n).map(|c| Self::L32(Box::new(c))),
            _ => None,
        };
        built.unwrap_or(Self::Generic)
    }

    /// `x^e mod n` from big-endian `x` into big-endian `out`. `None` on the
    /// generic path; otherwise whether the input and result fit.
    fn pow_be(&self, x: &[u8], e: &[u64], out: &mut [u8]) -> Option<bool> {
        fn run<const N: usize>(
            ctx: &FixedMontgomeryCtx<N>,
            x: &[u8],
            e: &[u64],
            out: &mut [u8],
        ) -> bool {
            FixedUint::<N>::from_be_bytes(x).is_some_and(|x| ctx.pow(&x, e).write_be_bytes(out))
        }
        Some(match self {
            Self::L4(ctx) => run(ctx, x, e, out),
            Self::L8(ctx) => run(ctx, x, e, out),
            Self::L16(ctx) => run(ctx, x, e, out),
            Self::L32(ctx) => run(ctx, x, e, out),
            Self::Generic => return None,
        })
    }

    /// The randomized aggregate check of [`RsaPublicKey::verify_batch`];
    /// `None` on the generic path.
    fn batch_check(
        &self,
        e: &[u64],
        items: &[BatchItem<'_>],
        ems: &[Vec<u8>],
        rs: &[u32],
    ) -> Option<bool> {
        match self {
            Self::L4(ctx) => batch_check_fixed(ctx, e, items, ems, rs),
            Self::L8(ctx) => batch_check_fixed(ctx, e, items, ems, rs),
            Self::L16(ctx) => batch_check_fixed(ctx, e, items, ems, rs),
            Self::L32(ctx) => batch_check_fixed(ctx, e, items, ems, rs),
            Self::Generic => None,
        }
    }
}

/// One randomized aggregate check on the key's `N`-limb context:
/// `(Π s_i^{r_i})^e == Π em_i^{r_i} (mod n)`. `None` if an input does not
/// fit the width.
fn batch_check_fixed<const N: usize>(
    ctx: &FixedMontgomeryCtx<N>,
    e: &[u64],
    items: &[BatchItem<'_>],
    ems: &[Vec<u8>],
    rs: &[u32],
) -> Option<bool> {
    let mut sig_m = Vec::with_capacity(items.len());
    for it in items {
        sig_m.push(ctx.to_mont(&FixedUint::from_be_bytes(it.signature)?));
    }
    let mut em_m = Vec::with_capacity(ems.len());
    for em in ems {
        em_m.push(ctx.to_mont(&FixedUint::from_be_bytes(em)?));
    }
    // Straus interleaving: one shared 32-step squaring chain drives both
    // products; each item contributes at the 4 set bits of its exponent.
    let mut acc_a = ctx.one();
    let mut acc_b = ctx.one();
    for bit in (0..SPARSE_EXP_BITS).rev() {
        acc_a = ctx.sqr(&acc_a);
        acc_b = ctx.sqr(&acc_b);
        for ((&r, s), em) in rs.iter().zip(&sig_m).zip(&em_m) {
            if r & (1u32 << bit) != 0 {
                acc_a = ctx.mul(&acc_a, s);
                acc_b = ctx.mul(&acc_b, em);
            }
        }
    }
    // Montgomery forms are canonical (< n), so comparing them directly
    // is comparing the underlying values.
    let lhs = ctx.pow_mont(&acc_a, e);
    Some(lhs == acc_b)
}

/// The fixed-limb CRT engine of a private key whose modulus fits `N = 2H`
/// limbs and whose primes fit `H`: Montgomery contexts for `p` and `q`, the
/// CRT exponents as limbs and `qinv` in Montgomery form for `p`. Holds
/// private key material, so it has no `Debug`; it is only reachable
/// through [`RsaPrivateKey`]'s redacting one.
#[derive(Clone)]
struct CrtEngine<const N: usize, const H: usize> {
    p: FixedMontgomeryCtx<H>,
    q: FixedMontgomeryCtx<H>,
    dp: FixedUint<H>,
    dq: FixedUint<H>,
    /// `qinv·R mod p`, so one Montgomery multiply applies `qinv`.
    qinv: FixedUint<H>,
}

impl<const N: usize, const H: usize> CrtEngine<N, H> {
    fn new(p: &BigUint, q: &BigUint, dp: &BigUint, dq: &BigUint, qinv: &BigUint) -> Option<Self> {
        let p_ctx = FixedMontgomeryCtx::<H>::new(p)?;
        Some(CrtEngine {
            q: FixedMontgomeryCtx::new(q)?,
            dp: FixedUint::from_biguint(dp)?,
            dq: FixedUint::from_biguint(dq)?,
            qinv: p_ctx.to_mont(&FixedUint::from_biguint(qinv)?),
            p: p_ctx,
        })
    }

    /// `x^d mod n` for any `x < 2^(64N)` (Garner's CRT recombination; the
    /// key builder guarantees `q < p`).
    fn apply(&self, x: &FixedUint<N>) -> FixedUint<N> {
        let (lo, hi) = x.split::<H>();
        let (p, q) = (&self.p, &self.q);
        let (m1, m2) = p.pow_mont_pair(
            &p.to_mont_wide(&lo, &hi),
            self.dp.limbs(),
            q,
            &q.to_mont_wide(&lo, &hi),
            self.dq.limbs(),
        );
        let (m1, m2) = (p.from_mont(&m1), q.from_mont(&m2));
        // h = qinv·(m1 − m2) mod p, with m2 < q < p already reduced mod p.
        let h = p.mul(&p.sub_mod(&m1, &m2), &self.qinv);
        // s = m2 + h·q < q + (p − 1)·q = n: no carry out of N limbs.
        let (hq_lo, hq_hi) = h.mul_wide(q.modulus());
        let hq = FixedUint::<N>::from_halves(&hq_lo, &hq_hi);
        hq.add_carry(&FixedUint::from_halves(&m2, &FixedUint::zero())).0
    }

    fn apply_be(&self, x: &[u8], out: &mut [u8]) -> bool {
        FixedUint::<N>::from_be_bytes(x).is_some_and(|x| self.apply(&x).write_be_bytes(out))
    }
}

/// The fixed-limb engine of a private key, at the width pair matching its
/// public key's modulus (boxed above 512 bits, as for [`PublicEngine`]).
#[derive(Clone)]
enum PrivateEngine {
    L4(CrtEngine<4, 2>),
    L8(CrtEngine<8, 4>),
    L16(Box<CrtEngine<16, 8>>),
    L32(Box<CrtEngine<32, 16>>),
    /// No fixed width fits: the `BigUint` CRT of `raw_decrypt`.
    Generic,
}

impl PrivateEngine {
    fn new(
        n: &BigUint,
        p: &BigUint,
        q: &BigUint,
        dp: &BigUint,
        dq: &BigUint,
        qinv: &BigUint,
    ) -> Self {
        let built = match n.limbs().len() {
            0..=4 => CrtEngine::new(p, q, dp, dq, qinv).map(Self::L4),
            5..=8 => CrtEngine::new(p, q, dp, dq, qinv).map(Self::L8),
            9..=16 => CrtEngine::new(p, q, dp, dq, qinv).map(|c| Self::L16(Box::new(c))),
            17..=32 => CrtEngine::new(p, q, dp, dq, qinv).map(|c| Self::L32(Box::new(c))),
            _ => None,
        };
        built.unwrap_or(Self::Generic)
    }

    /// `x^d mod n` from big-endian `x` into big-endian `out`. `None` on the
    /// generic path; otherwise whether the input and result fit.
    fn apply_be(&self, x: &[u8], out: &mut [u8]) -> Option<bool> {
        Some(match self {
            Self::L4(crt) => crt.apply_be(x, out),
            Self::L8(crt) => crt.apply_be(x, out),
            Self::L16(crt) => crt.apply_be(x, out),
            Self::L32(crt) => crt.apply_be(x, out),
            Self::Generic => return None,
        })
    }
}

/// Compares a big-endian byte string with a little-endian limb slice
/// without building either as an integer.
fn cmp_be_limbs(x: &[u8], limbs: &[u64]) -> Ordering {
    for i in (0..x.len().max(8 * limbs.len())).rev() {
        let xb = x.len().checked_sub(i + 1).and_then(|j| x.get(j)).copied().unwrap_or(0);
        let lb = limbs.get(i / 8).map_or(0, |l| (l >> (8 * (i % 8))) as u8);
        match xb.cmp(&lb) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

/// Writes `v` big-endian into all of `out`; false if it does not fit.
fn write_padded(v: &BigUint, out: &mut [u8]) -> bool {
    match v.to_bytes_be_padded(out.len()) {
        Some(bytes) => {
            out.copy_from_slice(&bytes);
            true
        }
        None => false,
    }
}

impl RsaPublicKey {
    fn new(n: BigUint, e: BigUint) -> Self {
        let engine = PublicEngine::new(&n);
        RsaPublicKey { n, e, engine }
    }

    /// Constructs from raw components (big-endian byte strings) and builds
    /// the key's fixed-limb engine.
    pub fn from_components(n: &[u8], e: &[u8]) -> Self {
        Self::new(BigUint::from_bytes_be(n), BigUint::from_bytes_be(e))
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Modulus size in bytes (k in PKCS#1 terms).
    pub fn size(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Big-endian modulus bytes.
    pub fn n_bytes(&self) -> Vec<u8> {
        self.n.to_bytes_be()
    }

    /// Big-endian exponent bytes.
    pub fn e_bytes(&self) -> Vec<u8> {
        self.e.to_bytes_be()
    }

    /// A stable fingerprint of the key (SHA-256 of `len(n) ‖ n ‖ e`),
    /// used as a principal identifier in the protocol layer.
    pub fn fingerprint(&self) -> [u8; 32] {
        use crate::hash::Digest as _;
        let mut h = crate::sha2::Sha256::default();
        let n = self.n_bytes();
        h.update(&(n.len() as u64).to_be_bytes());
        h.update(&n);
        h.update(&self.e_bytes());
        let v = h.finalize();
        let mut out = [0u8; 32];
        out.copy_from_slice(&v);
        out
    }

    /// `x^e mod n` from big-endian `x` into big-endian `out` (zero-padded);
    /// false if the result does not fit `out`.
    fn raw_public(&self, x: &[u8], out: &mut [u8]) -> bool {
        if let Some(fits) = self.engine.pow_be(x, self.e.limbs(), out) {
            return fits;
        }
        write_padded(&BigUint::from_bytes_be(x).mod_pow(&self.e, &self.n), out)
    }

    /// PKCS#1 v1.5 signature verification over `message` hashed with `alg`.
    pub fn verify(
        &self,
        alg: HashAlg,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        self.verify_prehashed(alg, &alg.hash(message), signature)
    }

    /// Verification when the caller already hashed the message.
    pub fn verify_prehashed(
        &self,
        alg: HashAlg,
        digest: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let k = self.size();
        if signature.len() != k {
            return Err(CryptoError::InvalidLength);
        }
        if digest.len() != alg.output_len() {
            return Err(CryptoError::InvalidLength);
        }
        if cmp_be_limbs(signature, self.n.limbs()) != Ordering::Less {
            return Err(CryptoError::BadSignature);
        }
        let mut em = vec![0u8; k];
        if !self.raw_public(signature, &mut em) {
            return Err(CryptoError::BadSignature);
        }
        let expected = emsa_pkcs1_v15(alg, digest, k)?;
        if crate::ct::eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// PKCS#1 v1.5 (type 2) encryption of a short message.
    ///
    /// Maximum plaintext length is `k - 11` bytes; longer payloads go
    /// through the hybrid [`crate::envelope`].
    pub fn encrypt(&self, rng: &mut ChaChaRng, msg: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.size();
        if msg.len() + 11 > k {
            return Err(CryptoError::MessageTooLong);
        }
        // EM = 0x00 || 0x02 || PS (nonzero random) || 0x00 || M
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        for _ in 0..k - msg.len() - 3 {
            loop {
                let b = random_byte(rng);
                if b != 0 {
                    em.push(b);
                    break;
                }
            }
        }
        em.push(0x00);
        em.extend_from_slice(msg);
        let mut c = vec![0u8; k];
        // c < n < 2^(8k) by construction; a failure here is a library bug,
        // surfaced as a typed error rather than a panic (NO-PANIC-PATH).
        if self.raw_public(&em, &mut c) {
            Ok(c)
        } else {
            Err(CryptoError::Internal("ciphertext exceeds modulus width"))
        }
    }

    /// Verification through the pre-fixed-limb `Vec`-backed per-bit
    /// Montgomery path. Kept as the differential-testing and benchmarking
    /// baseline (experiment E12); byte-for-byte the same accept/reject
    /// behaviour as [`RsaPublicKey::verify_prehashed`], only slower.
    pub fn verify_prehashed_reference(
        &self,
        alg: HashAlg,
        digest: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let k = self.size();
        if signature.len() != k {
            return Err(CryptoError::InvalidLength);
        }
        if digest.len() != alg.output_len() {
            return Err(CryptoError::InvalidLength);
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_big(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::BadSignature);
        }
        let em = s.mod_pow_classic(&self.e, &self.n);
        let em_bytes = em.to_bytes_be_padded(k).ok_or(CryptoError::BadSignature)?;
        let expected = emsa_pkcs1_v15(alg, digest, k)?;
        if crate::ct::eq(&em_bytes, &expected) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Verifies `items.len()` (digest, signature) pairs under this key in
    /// one randomized-linear-combination pass.
    ///
    /// Instead of `n` independent exponentiations the batch draws sparse
    /// random exponents `r_i` (4 set bits out of 32, ≈15 bits of entropy
    /// each) from `rng` and checks
    ///
    /// ```text
    ///   (Π s_i^{r_i})^e  ==  Π em_i^{r_i}   (mod n)
    /// ```
    ///
    /// with both products sharing one interleaved (Straus) squaring chain,
    /// so the amortized cost per item is a handful of Montgomery multiplies
    /// instead of a full `s^e`. If every signature is valid the identity
    /// holds exactly; a batch containing any forgery fails with probability
    /// ≥ 1 − 2⁻¹⁵ per draw, and on failure the batch **falls back to the
    /// serial per-item verify**, so the attributed index and error are
    /// exactly what a serial loop would have produced. Structural defects
    /// (bad lengths, out-of-range signatures) skip the aggregate pass and go
    /// straight to the serial loop for the same reason.
    ///
    /// The exponents must be unpredictable to whoever produced the
    /// signatures: callers pass their own seeded [`ChaChaRng`] (in the
    /// deterministic simulation, the verifying actor's RNG — replays stay
    /// bit-identical). See DESIGN.md §4.13 for the soundness argument and
    /// the `s → n−s` caveat inherited from small-exponent batch tests.
    pub fn verify_batch(
        &self,
        items: &[BatchItem<'_>],
        rng: &mut ChaChaRng,
    ) -> Result<(), BatchVerifyError> {
        if items.len() < BATCH_MIN {
            return self.verify_all_serial(items);
        }
        let k = self.size();
        let mut ems = Vec::with_capacity(items.len());
        for it in items {
            if it.signature.len() != k
                || it.digest.len() != it.alg.output_len()
                || cmp_be_limbs(it.signature, self.n.limbs()) != Ordering::Less
            {
                return self.verify_all_serial(items);
            }
            let Ok(em) = emsa_pkcs1_v15(it.alg, it.digest, k) else {
                return self.verify_all_serial(items);
            };
            ems.push(em);
        }
        let rs: Vec<u32> = items.iter().map(|_| sparse_exponent(rng)).collect();
        match self.engine.batch_check(self.e.limbs(), items, &ems, &rs) {
            Some(true) => Ok(()),
            // Aggregate failed (some item is bad) or the modulus does not
            // fit a fixed kernel: serial attribution either way.
            Some(false) | None => self.verify_all_serial(items),
        }
    }

    /// The serial fallback: per-item [`Self::verify_prehashed`] in batch
    /// order, attributing the first failure.
    fn verify_all_serial(&self, items: &[BatchItem<'_>]) -> Result<(), BatchVerifyError> {
        for (index, it) in items.iter().enumerate() {
            if let Err(error) = self.verify_prehashed(it.alg, it.digest, it.signature) {
                return Err(BatchVerifyError { index, error });
            }
        }
        Ok(())
    }
}

/// Minimum batch size below which [`RsaPublicKey::verify_batch`] just runs
/// the serial loop (the aggregate's fixed costs dominate tiny batches).
const BATCH_MIN: usize = 4;

/// Bit width of the sparse batch exponents.
const SPARSE_EXP_BITS: u32 = 32;

/// Set bits per sparse batch exponent (entropy ≈ log₂ C(32,4) ≈ 15.1 bits).
const SPARSE_EXP_WEIGHT: u32 = 4;

/// Draws a sparse random exponent: exactly [`SPARSE_EXP_WEIGHT`] distinct
/// set bits among [`SPARSE_EXP_BITS`] positions. 256 is a multiple of 32,
/// so the byte-modulo position draw is exactly uniform.
fn sparse_exponent(rng: &mut ChaChaRng) -> u32 {
    let mut r = 0u32;
    while r.count_ones() < SPARSE_EXP_WEIGHT {
        let pos = u32::from(random_byte(rng)) % SPARSE_EXP_BITS;
        r |= 1u32 << pos;
    }
    r
}

/// One byte from `rng`, drawing exactly what `gen_bytes(1)` would, without
/// a heap buffer.
fn random_byte(rng: &mut ChaChaRng) -> u8 {
    let mut byte = [0u8];
    rng.fill_bytes(&mut byte);
    let [b] = byte;
    b
}

/// One (digest, signature) pair for [`RsaPublicKey::verify_batch`].
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// Hash algorithm the digest was produced with.
    pub alg: HashAlg,
    /// The already-computed message digest.
    pub digest: &'a [u8],
    /// The PKCS#1 v1.5 signature to check.
    pub signature: &'a [u8],
}

/// A batch verification failure attributed to one item, with the exact
/// error the serial per-item verify produced for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchVerifyError {
    /// Index of the first failing item in batch order.
    pub index: usize,
    /// That item's serial verification error.
    pub error: CryptoError,
}

impl std::fmt::Display for BatchVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch item {} failed: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchVerifyError {}

impl RsaPrivateKey {
    /// The matching public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw private-key operation without the CRT (`c^d mod n`); used to
    /// cross-check the CRT path in tests.
    #[cfg(test)]
    fn raw_decrypt_no_crt(&self, c: &BigUint) -> BigUint {
        c.mod_pow(&self.d, &self.public.n)
    }

    /// Raw private-key operation using the CRT on `BigUint`: the path of
    /// keys without a fixed-limb engine.
    fn raw_decrypt(&self, c: &BigUint) -> BigUint {
        // m1 = c^dp mod p; m2 = c^dq mod q; h = qinv (m1 - m2) mod p
        let m1 = c.rem(&self.p).mod_pow(&self.dp, &self.p);
        let m2 = c.rem(&self.q).mod_pow(&self.dq, &self.q);
        let h = m1.sub_mod(&m2.rem(&self.p), &self.p).mul_mod(&self.qinv, &self.p);
        m2.add(&h.mul(&self.q))
    }

    /// `x^d mod n` (CRT) from big-endian `x` into big-endian `out`
    /// (zero-padded); false if the result does not fit `out`.
    fn raw_private(&self, x: &[u8], out: &mut [u8]) -> bool {
        if let Some(fits) = self.engine.apply_be(x, out) {
            return fits;
        }
        write_padded(&self.raw_decrypt(&BigUint::from_bytes_be(x)), out)
    }

    /// PKCS#1 v1.5 signature over `message` hashed with `alg`.
    pub fn sign(&self, alg: HashAlg, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.sign_prehashed(alg, &alg.hash(message))
    }

    /// Signing when the caller already hashed the message.
    pub fn sign_prehashed(&self, alg: HashAlg, digest: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if digest.len() != alg.output_len() {
            return Err(CryptoError::InvalidLength);
        }
        let k = self.public.size();
        let em = emsa_pkcs1_v15(alg, digest, k)?;
        let mut sig = vec![0u8; k];
        // s < n < 2^(8k) by construction; a failure here is a library bug,
        // surfaced as a typed error rather than a panic (NO-PANIC-PATH).
        if self.raw_private(&em, &mut sig) {
            Ok(sig)
        } else {
            Err(CryptoError::Internal("signature exceeds modulus width"))
        }
    }

    /// Signing through the pre-fixed-limb `Vec`-backed per-bit Montgomery
    /// path. Kept as the differential-testing and benchmarking baseline
    /// (experiment E12): the proptests assert it produces **byte-identical**
    /// signatures to [`Self::sign_prehashed`].
    pub fn sign_prehashed_reference(
        &self,
        alg: HashAlg,
        digest: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if digest.len() != alg.output_len() {
            return Err(CryptoError::InvalidLength);
        }
        let k = self.public.size();
        let em = emsa_pkcs1_v15(alg, digest, k)?;
        let m = BigUint::from_bytes_be(&em);
        // CRT recombination identical to raw_decrypt, with both halves on
        // the classic per-bit Vec path.
        let m1 = m.rem(&self.p).mod_pow_classic(&self.dp, &self.p);
        let m2 = m.rem(&self.q).mod_pow_classic(&self.dq, &self.q);
        let h = m1.sub_mod(&m2.rem(&self.p), &self.p).mul_mod(&self.qinv, &self.p);
        let s = m2.add(&h.mul(&self.q));
        s.to_bytes_be_padded(k).ok_or(CryptoError::Internal("signature exceeds modulus width"))
    }

    /// PKCS#1 v1.5 (type 2) decryption.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.size();
        if ciphertext.len() != k || k < 11 {
            return Err(CryptoError::InvalidLength);
        }
        if cmp_be_limbs(ciphertext, self.public.n.limbs()) != Ordering::Less {
            return Err(CryptoError::InvalidLength);
        }
        let mut em = vec![0u8; k];
        if !self.raw_private(ciphertext, &mut em) {
            return Err(CryptoError::InvalidPadding);
        }
        // EM = 0x00 || 0x02 || PS || 0x00 || M with |PS| >= 8.
        let [0x00, 0x02, body @ ..] = em.as_slice() else {
            return Err(CryptoError::InvalidPadding);
        };
        let sep = body.iter().position(|&b| b == 0).ok_or(CryptoError::InvalidPadding)?;
        if sep < 8 {
            return Err(CryptoError::InvalidPadding);
        }
        Ok(body[sep + 1..].to_vec())
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of `bits` bits.
    ///
    /// `bits` must be even and ≥ 512. 1024 matches the paper's era; tests use
    /// 512 or the fixed test keys for speed.
    pub fn generate(bits: usize, rng: &mut ChaChaRng) -> Self {
        assert!(bits >= 512 && bits.is_multiple_of(2), "unsupported RSA size {bits}");
        let e = BigUint::from_u64(E);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            if let Some(kp) = Self::from_primes(p, q) {
                if kp.public.bits() == bits {
                    debug_assert_eq!(kp.public.e, e);
                    return kp;
                }
            }
        }
    }

    /// Builds a key pair from two primes; returns `None` if `e` is not
    /// invertible mod φ(n) (caller retries with fresh primes).
    pub fn from_primes(p: BigUint, q: BigUint) -> Option<Self> {
        let one = BigUint::one();
        let n = p.mul(&q);
        let phi = p.sub(&one).mul(&q.sub(&one));
        let e = BigUint::from_u64(E);
        let d = e.mod_inverse(&phi)?;
        let dp = d.rem(&p.sub(&one));
        let dq = d.rem(&q.sub(&one));
        let qinv = q.mod_inverse(&p)?;
        // Keep p > q so CRT recombination in raw_decrypt stays simple.
        let (p, q, dp, dq, qinv) = if p.cmp_big(&q) == Ordering::Less {
            let qinv2 = p.mod_inverse(&q)?;
            (q.clone(), p, dq, dp, qinv2)
        } else {
            (p, q, dp, dq, qinv)
        };
        let engine = PrivateEngine::new(&n, &p, &q, &dp, &dq, &qinv);
        let public = RsaPublicKey::new(n, e);
        Some(RsaKeyPair {
            public: public.clone(),
            private: RsaPrivateKey {
                public,
                #[cfg(test)]
                d,
                p,
                q,
                dp,
                dq,
                qinv,
                engine,
            },
        })
    }

    /// A deterministic 512-bit key pair derived from `seed`, for tests and
    /// simulations. **Never** use outside tests.
    pub fn insecure_test_key(seed: u64) -> Self {
        let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x7057_4e52_6b65_7973); // "pTNRkeys"
        Self::generate(512, &mut rng)
    }
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 0x01 FF..FF 0x00 DigestInfo(hash)`.
///
/// DigestInfo prefixes are the standard DER encodings from RFC 8017 §9.2.
fn emsa_pkcs1_v15(alg: HashAlg, digest: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let prefix: &[u8] = match alg {
        HashAlg::Md5 => &[
            0x30, 0x20, 0x30, 0x0c, 0x06, 0x08, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x02, 0x05,
            0x05, 0x00, 0x04, 0x10,
        ],
        HashAlg::Sha1 => &[
            0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
            0x14,
        ],
        HashAlg::Sha256 => &[
            0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
            0x01, 0x05, 0x00, 0x04, 0x20,
        ],
        HashAlg::Sha512 => &[
            0x30, 0x51, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
            0x03, 0x05, 0x00, 0x04, 0x40,
        ],
    };
    let t_len = prefix.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(digest);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_key() -> RsaKeyPair {
        RsaKeyPair::insecure_test_key(1)
    }

    #[test]
    fn keygen_produces_working_pair() {
        let kp = test_key();
        assert_eq!(kp.public.bits(), 512);
        assert_eq!(kp.public, *kp.private.public());
    }

    #[test]
    fn sign_verify_roundtrip_all_algs() {
        let kp = test_key();
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
            let sig = kp.private.sign(alg, b"the financial data").unwrap();
            kp.public.verify(alg, b"the financial data", &sig).unwrap();
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha256, b"original").unwrap();
        assert_eq!(
            kp.public.verify(HashAlg::Sha256, b"tampered", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = test_key();
        let mut sig = kp.private.sign(HashAlg::Sha256, b"m").unwrap();
        sig[10] ^= 0x40;
        assert_eq!(kp.public.verify(HashAlg::Sha256, b"m", &sig), Err(CryptoError::BadSignature));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = RsaKeyPair::insecure_test_key(1);
        let kp2 = RsaKeyPair::insecure_test_key(2);
        let sig = kp1.private.sign(HashAlg::Sha256, b"m").unwrap();
        assert!(kp2.public.verify(HashAlg::Sha256, b"m", &sig).is_err());
    }

    #[test]
    fn wrong_hash_alg_rejected() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha256, b"m").unwrap();
        assert!(kp.public.verify(HashAlg::Md5, b"m", &sig).is_err());
    }

    #[test]
    fn signature_length_enforced() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha256, b"m").unwrap();
        assert_eq!(
            kp.public.verify(HashAlg::Sha256, b"m", &sig[..sig.len() - 1]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(9);
        for msg in [&b""[..], b"x", b"a 32-byte session key goes here!"] {
            let ct = kp.public.encrypt(&mut rng, msg).unwrap();
            assert_eq!(ct.len(), kp.public.size());
            assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(10);
        let a = kp.public.encrypt(&mut rng, b"same").unwrap();
        let b = kp.public.encrypt(&mut rng, b"same").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn oversized_plaintext_rejected() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(11);
        let too_long = vec![0u8; kp.public.size() - 10];
        assert_eq!(kp.public.encrypt(&mut rng, &too_long), Err(CryptoError::MessageTooLong));
    }

    #[test]
    fn corrupted_ciphertext_rejected() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(12);
        let mut ct = kp.public.encrypt(&mut rng, b"secret").unwrap();
        ct[0] ^= 1;
        // Either padding failure or a garbage plaintext — it must not be the
        // original. (PKCS#1 v1.5 decryption can't authenticate.)
        if let Ok(pt) = kp.private.decrypt(&ct) {
            assert_ne!(pt, b"secret")
        }
    }

    #[test]
    fn fingerprint_stable_and_distinct() {
        let kp1 = RsaKeyPair::insecure_test_key(1);
        let kp2 = RsaKeyPair::insecure_test_key(2);
        assert_eq!(kp1.public.fingerprint(), kp1.public.fingerprint());
        assert_ne!(kp1.public.fingerprint(), kp2.public.fingerprint());
    }

    #[test]
    fn components_roundtrip() {
        let kp = test_key();
        let pk = RsaPublicKey::from_components(&kp.public.n_bytes(), &kp.public.e_bytes());
        assert_eq!(pk, kp.public);
    }

    #[test]
    fn debug_does_not_leak_private_key() {
        let kp = test_key();
        let s = format!("{:?}", kp.private);
        assert!(!s.contains(&crate::encoding::hex_encode(&kp.private.d.to_bytes_be())));
        assert!(s.contains("bits"));
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let kp = test_key();
        for v in [2u64, 12345, 0xffff_ffff] {
            let c = BigUint::from_u64(v);
            assert_eq!(kp.private.raw_decrypt(&c), kp.private.raw_decrypt_no_crt(&c));
            assert_eq!(engine_private(&kp.private, &c), kp.private.raw_decrypt_no_crt(&c));
        }
    }

    // ------------------------------------------------ fixed-limb engine

    /// Deterministic keys at the three production widths, built once.
    fn sized_key(bits: usize) -> &'static RsaKeyPair {
        use std::sync::OnceLock;
        static KEYS: OnceLock<Vec<RsaKeyPair>> = OnceLock::new();
        let keys = KEYS.get_or_init(|| {
            [512usize, 1024, 2048]
                .iter()
                .map(|&b| RsaKeyPair::generate(b, &mut ChaChaRng::seed_from_u64(0xe9 ^ b as u64)))
                .collect()
        });
        let i = [512, 1024, 2048].iter().position(|&b| b == bits).unwrap();
        &keys[i]
    }

    fn has_fixed_engine(kp: &RsaKeyPair) -> bool {
        !matches!(kp.public.engine, PublicEngine::Generic)
            && !matches!(kp.private.engine, PrivateEngine::Generic)
    }

    /// `x^d mod n` through the key's private path (engine or fallback),
    /// for any `x < 2^(8k)`.
    fn engine_private(sk: &RsaPrivateKey, x: &BigUint) -> BigUint {
        let k = sk.public.size();
        let mut out = vec![0u8; k];
        assert!(sk.raw_private(&x.to_bytes_be_padded(k).unwrap(), &mut out));
        BigUint::from_bytes_be(&out)
    }

    /// `x^e mod n` through the key's public path (engine or fallback).
    fn engine_public(pk: &RsaPublicKey, x: &BigUint) -> BigUint {
        let k = pk.size();
        let mut out = vec![0u8; k];
        assert!(pk.raw_public(&x.to_bytes_be_padded(k).unwrap(), &mut out));
        BigUint::from_bytes_be(&out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn engine_matches_reference_paths_at_every_width(
            width in 0usize..3,
            msg in proptest::prelude::any::<u64>(),
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..256),
            flip in proptest::prelude::any::<u16>(),
        ) {
            let kp = sized_key([512, 1024, 2048][width]);
            proptest::prop_assert!(has_fixed_engine(kp));
            let digest = HashAlg::Sha256.hash(&msg.to_be_bytes());
            let fast = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
            let slow = kp.private.sign_prehashed_reference(HashAlg::Sha256, &digest).unwrap();
            proptest::prop_assert_eq!(&fast, &slow);
            proptest::prop_assert!(kp.public.verify_prehashed(HashAlg::Sha256, &digest, &fast).is_ok());
            proptest::prop_assert!(
                kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &fast).is_ok()
            );
            let mut bad = fast.clone();
            let at = usize::from(flip) % bad.len();
            bad[at] ^= 1 << (flip % 8);
            proptest::prop_assert_eq!(
                kp.public.verify_prehashed(HashAlg::Sha256, &digest, &bad),
                kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &bad)
            );
            proptest::prop_assert!(kp.public.verify_prehashed(HashAlg::Sha256, &digest, &bad).is_err());
            // The raw CRT on an arbitrary input below n equals c^d mod n.
            let x = BigUint::from_bytes_be(&raw).rem(&kp.public.n);
            proptest::prop_assert_eq!(
                engine_private(&kp.private, &x),
                kp.private.raw_decrypt_no_crt(&x)
            );
        }
    }

    #[test]
    fn engine_edge_inputs_match_plain_exponentiation() {
        for bits in [512, 1024, 2048] {
            let kp = sized_key(bits);
            let sk = &kp.private;
            let n = &kp.public.n;
            let one = BigUint::one();
            let all_ones = BigUint::one().shl(8 * kp.public.size()).sub(&one);
            let inputs = [
                BigUint::zero(),
                one.clone(),
                n.sub(&one),
                sk.p.clone(),
                sk.p.add(&one),
                sk.q.clone(),
                sk.q.sub(&one),
                sk.p.mul(&BigUint::from_u64(3)),
                // At or above n: the raw operation reduces, as mod_pow does.
                n.clone(),
                all_ones.clone(),
            ];
            for x in &inputs {
                assert_eq!(
                    engine_private(sk, x),
                    sk.raw_decrypt_no_crt(x),
                    "{bits}-bit x^d, x={x:?}"
                );
                assert_eq!(
                    engine_public(&kp.public, x),
                    x.mod_pow(&kp.public.e, n),
                    "{bits}-bit x^e"
                );
            }
            // Signatures and ciphertexts at or above n are rejected by both
            // verification paths and by decrypt, before any exponentiation.
            let digest = HashAlg::Sha256.hash(b"edge");
            let k = kp.public.size();
            for big in [n, &all_ones] {
                let bytes = big.to_bytes_be_padded(k).unwrap();
                assert_eq!(
                    kp.public.verify_prehashed(HashAlg::Sha256, &digest, &bytes),
                    Err(CryptoError::BadSignature)
                );
                assert_eq!(
                    kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &bytes),
                    Err(CryptoError::BadSignature)
                );
                assert_eq!(sk.decrypt(&bytes), Err(CryptoError::InvalidLength));
            }
        }
    }

    #[test]
    fn from_components_builds_the_engine_for_any_exponent() {
        let kp = sized_key(1024);
        let n = kp.public.n_bytes();
        // Same (n, e): same key, same accept/reject behaviour.
        let pk = RsaPublicKey::from_components(&n, &kp.public.e_bytes());
        assert!(!matches!(pk.engine, PublicEngine::Generic));
        let digest = HashAlg::Sha1.hash(b"components");
        let sig = kp.private.sign_prehashed(HashAlg::Sha1, &digest).unwrap();
        pk.verify_prehashed(HashAlg::Sha1, &digest, &sig).unwrap();
        // Non-F4 exponents: e = 3, and the private exponent d itself (so
        // the public path computes the un-CRT'd private operation).
        let x = BigUint::from_bytes_be(&digest);
        let e3 = RsaPublicKey::from_components(&n, &[3]);
        assert_eq!(engine_public(&e3, &x), x.mod_pow(&BigUint::from_u64(3), &kp.public.n));
        let ed = RsaPublicKey::from_components(&n, &kp.private.d.to_bytes_be());
        assert_eq!(engine_public(&ed, &x), kp.private.raw_decrypt_no_crt(&x));
        assert_eq!(engine_public(&ed, &x), engine_private(&kp.private, &x));
        // e = 0 maps everything to one, as BigUint::mod_pow does.
        let e0 = RsaPublicKey::from_components(&n, &[]);
        assert!(engine_public(&e0, &x).is_one());
    }

    #[test]
    fn keys_no_fixed_width_holds_take_the_generic_path() {
        // Unbalanced primes: n fits 4 limbs but p needs 3, more than the
        // 2-limb CRT half, so the private side falls back to BigUint.
        let p = BigUint::from_bytes_be(&[
            0xc5, 0x0d, 0x2f, 0x7e, 0x46, 0x1f, 0x8a, 0x3b, 0x91, 0x62, 0x5c, 0x08, 0x1d, 0xe7,
            0x33, 0x4b, 0xa9, 0x70, 0x2e, 0x15,
        ]);
        let p = (0u64..)
            .map(|i| p.add(&BigUint::from_u64(2 * i)))
            .find(|c| crate::prime::is_probable_prime(c, 20, &mut ChaChaRng::seed_from_u64(1)));
        let q = BigUint::from_u64(4_294_967_291); // largest 32-bit prime
        let kp = RsaKeyPair::from_primes(p.unwrap(), q).unwrap();
        assert!(matches!(kp.public.engine, PublicEngine::L4(_)));
        assert!(matches!(kp.private.engine, PrivateEngine::Generic));
        for v in [0u64, 1, 7, 0xdead_beef] {
            let x = BigUint::from_u64(v);
            assert_eq!(engine_private(&kp.private, &x), kp.private.raw_decrypt_no_crt(&x));
        }
        let mut rng = ChaChaRng::seed_from_u64(5);
        let ct = kp.public.encrypt(&mut rng, b"hi").unwrap();
        assert_eq!(kp.private.decrypt(&ct).unwrap(), b"hi");
        // An even modulus has no Montgomery form at all: public fallback.
        let even = RsaPublicKey::from_components(&[0x12, 0x34, 0x56], &[3]);
        assert!(matches!(even.engine, PublicEngine::Generic));
        let x = BigUint::from_u64(0x0abc);
        assert_eq!(engine_public(&even, &x), x.mod_pow(&BigUint::from_u64(3), &even.n));
    }

    #[test]
    fn wider_than_2048_bits_signs_on_the_generic_path() {
        let kp = RsaKeyPair::generate(2112, &mut ChaChaRng::seed_from_u64(2112));
        assert!(matches!(kp.public.engine, PublicEngine::Generic));
        assert!(matches!(kp.private.engine, PrivateEngine::Generic));
        let digest = HashAlg::Sha256.hash(b"wide");
        let sig = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
        assert_eq!(sig, kp.private.sign_prehashed_reference(HashAlg::Sha256, &digest).unwrap());
        kp.public.verify_prehashed(HashAlg::Sha256, &digest, &sig).unwrap();
    }

    #[test]
    fn clone_eq_and_debug_cover_n_and_e_only() {
        let kp = test_key();
        let pk = kp.public.clone();
        assert_eq!(pk, kp.public);
        assert_eq!(
            format!("{pk:?}"),
            format!("RsaPublicKey {{ n: {:?}, e: {:?} }}", kp.public.n, kp.public.e)
        );
        let other = RsaKeyPair::insecure_test_key(2);
        assert_ne!(kp.public, other.public);
        // Same n, different e: different keys.
        let e3 = RsaPublicKey::from_components(&kp.public.n_bytes(), &[3]);
        assert_ne!(e3, kp.public);
        // A cloned private key signs identically and still redacts.
        let sk = kp.private.clone();
        let digest = HashAlg::Sha256.hash(b"clone");
        assert_eq!(
            sk.sign_prehashed(HashAlg::Sha256, &digest).unwrap(),
            kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap()
        );
        let shown = format!("{sk:?}");
        assert_eq!(shown, "RsaPrivateKey { bits: 512, .. }");
    }

    #[test]
    fn fixed_width_operations_allocate_no_limb_buffers() {
        use crate::bigint::limb_allocs;
        for bits in [512, 2048] {
            let kp = sized_key(bits);
            let digest = HashAlg::Sha256.hash(b"allocs");
            let mut rng = ChaChaRng::seed_from_u64(6);
            limb_allocs::reset();
            let sig = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
            assert_eq!(limb_allocs::count(), 0, "{bits}-bit sign");
            kp.public.verify_prehashed(HashAlg::Sha256, &digest, &sig).unwrap();
            let ct = kp.public.encrypt(&mut rng, b"session key").unwrap();
            kp.private.decrypt(&ct).unwrap();
            assert_eq!(limb_allocs::count(), 0, "{bits}-bit verify/encrypt/decrypt");
        }
    }

    #[test]
    fn reference_paths_match_fast_paths() {
        let kp = test_key();
        let digest = HashAlg::Sha256.hash(b"differential");
        let fast = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
        let slow = kp.private.sign_prehashed_reference(HashAlg::Sha256, &digest).unwrap();
        assert_eq!(fast, slow, "old and new exponentiation paths must agree byte-for-byte");
        kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &fast).unwrap();
        let mut bad = fast.clone();
        bad[7] ^= 1;
        assert_eq!(
            kp.public.verify_prehashed_reference(HashAlg::Sha256, &digest, &bad),
            Err(CryptoError::BadSignature)
        );
    }

    fn batch_of(kp: &RsaKeyPair, msgs: &[Vec<u8>]) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let digests: Vec<Vec<u8>> = msgs.iter().map(|m| HashAlg::Sha256.hash(m)).collect();
        let sigs: Vec<Vec<u8>> = digests
            .iter()
            .map(|d| kp.private.sign_prehashed(HashAlg::Sha256, d).unwrap())
            .collect();
        (digests, sigs)
    }

    #[test]
    fn batch_verify_accepts_valid_batch() {
        let kp = test_key();
        let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 20]).collect();
        let (digests, sigs) = batch_of(&kp, &msgs);
        let items: Vec<BatchItem<'_>> = digests
            .iter()
            .zip(&sigs)
            .map(|(d, s)| BatchItem { alg: HashAlg::Sha256, digest: d, signature: s })
            .collect();
        let mut rng = ChaChaRng::seed_from_u64(42);
        kp.public.verify_batch(&items, &mut rng).unwrap();
    }

    #[test]
    fn batch_verify_attributes_tampered_signature() {
        let kp = test_key();
        let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 20]).collect();
        let (digests, mut sigs) = batch_of(&kp, &msgs);
        sigs[11][5] ^= 0x20;
        let items: Vec<BatchItem<'_>> = digests
            .iter()
            .zip(&sigs)
            .map(|(d, s)| BatchItem { alg: HashAlg::Sha256, digest: d, signature: s })
            .collect();
        let mut rng = ChaChaRng::seed_from_u64(43);
        let err = kp.public.verify_batch(&items, &mut rng).unwrap_err();
        assert_eq!(err.index, 11);
        assert_eq!(err.error, CryptoError::BadSignature);
    }

    #[test]
    fn batch_verify_structural_defect_matches_serial_order() {
        // Item 2 is a semantic forgery, item 5 has a bad length. A serial
        // loop reports item 2 first; the batch must do the same.
        let kp = test_key();
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 9]).collect();
        let (digests, mut sigs) = batch_of(&kp, &msgs);
        sigs[2][0] ^= 1;
        sigs[5].pop();
        let items: Vec<BatchItem<'_>> = digests
            .iter()
            .zip(&sigs)
            .map(|(d, s)| BatchItem { alg: HashAlg::Sha256, digest: d, signature: s })
            .collect();
        let mut rng = ChaChaRng::seed_from_u64(44);
        let err = kp.public.verify_batch(&items, &mut rng).unwrap_err();
        assert_eq!(err.index, 2);
    }

    #[test]
    fn batch_verify_small_batches_and_empty() {
        let kp = test_key();
        let mut rng = ChaChaRng::seed_from_u64(45);
        kp.public.verify_batch(&[], &mut rng).unwrap();
        let digest = HashAlg::Sha256.hash(b"solo");
        let sig = kp.private.sign_prehashed(HashAlg::Sha256, &digest).unwrap();
        let item = BatchItem { alg: HashAlg::Sha256, digest: &digest, signature: &sig };
        kp.public.verify_batch(&[item], &mut rng).unwrap();
        let bad = BatchItem { alg: HashAlg::Md5, digest: &digest, signature: &sig };
        assert!(kp.public.verify_batch(&[bad], &mut rng).is_err());
    }

    #[test]
    fn batch_verify_mixed_algs() {
        let kp = test_key();
        let mut items_data: Vec<(HashAlg, Vec<u8>, Vec<u8>)> = Vec::new();
        for (i, alg) in
            [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256].iter().cycle().take(12).enumerate()
        {
            let digest = alg.hash(&[i as u8; 33]);
            let sig = kp.private.sign_prehashed(*alg, &digest).unwrap();
            items_data.push((*alg, digest, sig));
        }
        let items: Vec<BatchItem<'_>> = items_data
            .iter()
            .map(|(alg, d, s)| BatchItem { alg: *alg, digest: d, signature: s })
            .collect();
        let mut rng = ChaChaRng::seed_from_u64(46);
        kp.public.verify_batch(&items, &mut rng).unwrap();
    }

    #[test]
    fn sparse_exponents_have_fixed_weight() {
        let mut rng = ChaChaRng::seed_from_u64(47);
        for _ in 0..200 {
            let r = sparse_exponent(&mut rng);
            assert_eq!(r.count_ones(), SPARSE_EXP_WEIGHT);
        }
    }

    #[test]
    fn larger_keygen_1024() {
        let mut rng = ChaChaRng::seed_from_u64(77);
        let kp = RsaKeyPair::generate(1024, &mut rng);
        assert_eq!(kp.public.bits(), 1024);
        let sig = kp.private.sign(HashAlg::Sha256, b"big").unwrap();
        kp.public.verify(HashAlg::Sha256, b"big", &sig).unwrap();
    }
}
