//! Vectorized key kernels: the data-parallel inner loops of the columnar
//! sort-merge core, behind one runtime-dispatched entry point per loop
//! shape.
//!
//! # What lives here
//!
//! Every hot inner loop of [`crate::rel`] (and the lineage provenance
//! join) that streams over whole columns or packed-key buffers is
//! extracted into a *kernel*:
//!
//! * [`pack_keys`] / [`pack_rekey`] — build the `(u128, u32)` packed-key
//!   buffer ([`Key`]) by streaming whole columns, width-specialized for
//!   1–4 key columns (no per-row iteration over a column *list*);
//! * [`run_end`] — run-boundary detection: find the end of a run of
//!   equal packed keys, comparing 1–2 keys per vector compare;
//! * [`gather_u32`] — apply a row permutation to a `Vid` column
//!   (the payload gather of a permutation sort);
//! * [`gallop_ge`] — galloping (exponential + binary) advance to the
//!   first key ≥ a target, the blocked skip of the merge-join loop;
//! * [`fold_or`] / [`fold_max`] — the independent-OR score fold
//!   `1 − ∏(1 − pᵢ)` (and the max fold) over one run of rows.
//!
//! # Dispatch
//!
//! Three code paths exist for each kernel: a chunked, autovectorization-
//! friendly **scalar** form (every target), and `std::arch` **SSE2** /
//! **AVX2** forms on `x86_64` (SSE2 is part of the x86_64 baseline ABI;
//! AVX2 is used only when `is_x86_feature_detected!` confirms it). The
//! decision is made **once per process** and cached in an atomic; the
//! environment variable `LAPUSH_KERNELS=scalar|sse2|avx2` overrides it
//! (unsupported requests clamp down to the best available path, with a
//! one-time stderr note). [`force`] / [`reset`] are in-process hooks for
//! the equivalence tests and benches.
//!
//! # Determinism
//!
//! Every kernel produces **byte-identical** output on every path. The
//! integer kernels (pack, run detection, gather, gallop) are exact by
//! construction. The floating-point folds are *chunked but
//! order-preserving*: lanes only gather operands, and the actual
//! multiply/compare chain is applied in strict serial association order
//! — the same order the scalar loop uses — so the result bits never
//! depend on the path. This is cross-gated in CI exactly like
//! threads=1 vs threads=4: the forced-`scalar` bench leg must produce
//! bit-identical checksums to the native-dispatch leg.

use lapush_storage::Vid;
use std::sync::atomic::{AtomicU8, Ordering};

/// One `(packed key, row index)` sort entry.
///
/// `#[repr(C)]` pins the layout (`k` at byte 0, `row` at byte 16) so the
/// SIMD paths can address fields of a `&[Key]` directly; the derived
/// ordering is lexicographic `(k, row)` — a total order, which is what
/// makes every sort in [`crate::rel`] thread-count-independent.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Up to four vid columns packed 32 bits each, first column most
    /// significant (shared encoding: [`lapush_storage::pack_vids`]).
    pub k: u128,
    /// Row index the key was packed from.
    pub row: u32,
}

/// The instruction-set path the kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Chunked scalar loops (every target; written to autovectorize).
    Scalar,
    /// `std::arch` SSE2 (x86_64 baseline — always available there).
    Sse2,
    /// `std::arch` AVX2 (runtime-detected).
    Avx2,
}

impl KernelPath {
    /// Stable lowercase name (`scalar` / `sse2` / `avx2`) — the value
    /// `LAPUSH_KERNELS` accepts, the `kernels.path` STATS line, and the
    /// `kernels_path` bench report parameter.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Sse2 => "sse2",
            KernelPath::Avx2 => "avx2",
        }
    }
}

/// Cached dispatch decision: 0 = unresolved, else `KernelPath` + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn decode(v: u8) -> KernelPath {
    match v {
        1 => KernelPath::Scalar,
        2 => KernelPath::Sse2,
        _ => KernelPath::Avx2,
    }
}

/// The kernel path this process runs on. Resolved once (environment
/// override, then feature detection) and cached; every kernel call
/// dispatches on this value.
pub fn active() -> KernelPath {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let p = resolve();
            ACTIVE.store(p as u8 + 1, Ordering::Relaxed);
            p
        }
        v => decode(v),
    }
}

/// Force the kernel path for the rest of the process — the in-process
/// form of `LAPUSH_KERNELS`, used by the equivalence tests and the
/// interleaved bench comparisons. Forcing a path the hardware cannot run
/// clamps down exactly like the environment override.
pub fn force(path: KernelPath) {
    let clamped = clamp_to_supported(path);
    ACTIVE.store(clamped as u8 + 1, Ordering::Relaxed);
}

/// Drop a [`force`] override: the next [`active`] call re-resolves from
/// the environment and feature detection.
pub fn reset() {
    ACTIVE.store(0, Ordering::Relaxed);
}

/// What `LAPUSH_KERNELS` asked for: one of the path names, or `auto`
/// when unset (or unrecognized). Recorded in every bench report so
/// baselines stay machine-portable — the *resolved* path is reported
/// separately (`kernels_path`, `kernels.path`).
pub fn requested_mode() -> &'static str {
    match std::env::var("LAPUSH_KERNELS") {
        Ok(v) if v == "scalar" => "scalar",
        Ok(v) if v == "sse2" => "sse2",
        Ok(v) if v == "avx2" => "avx2",
        _ => "auto",
    }
}

/// Paths this machine can actually run, weakest first ([`KernelPath::Scalar`]
/// always; the test matrix and benches iterate exactly this list).
pub fn supported_paths() -> Vec<KernelPath> {
    let mut paths = vec![KernelPath::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        paths.push(KernelPath::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            paths.push(KernelPath::Avx2);
        }
    }
    paths
}

fn clamp_to_supported(want: KernelPath) -> KernelPath {
    #[cfg(target_arch = "x86_64")]
    {
        match want {
            KernelPath::Avx2 if !std::arch::is_x86_feature_detected!("avx2") => KernelPath::Sse2,
            other => other,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = want;
        KernelPath::Scalar
    }
}

fn resolve() -> KernelPath {
    let requested = match std::env::var("LAPUSH_KERNELS") {
        Ok(v) if v == "scalar" => Some(KernelPath::Scalar),
        Ok(v) if v == "sse2" => Some(KernelPath::Sse2),
        Ok(v) if v == "avx2" => Some(KernelPath::Avx2),
        Ok(v) if !v.is_empty() => {
            eprintln!(
                "lapush: ignoring unrecognized LAPUSH_KERNELS value `{v}` (want scalar|sse2|avx2)"
            );
            None
        }
        _ => None,
    };
    let auto = {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelPath::Avx2
            } else {
                KernelPath::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            KernelPath::Scalar
        }
    };
    match requested {
        Some(want) => {
            let got = clamp_to_supported(want);
            if got != want {
                eprintln!(
                    "lapush: LAPUSH_KERNELS={} not supported on this machine; using {}",
                    want.name(),
                    got.name()
                );
            }
            got
        }
        None => auto,
    }
}

// ---------------------------------------------------------------------------
// pack: build packed-key buffers by streaming whole columns
// ---------------------------------------------------------------------------

/// Pack the key columns of rows `lo..hi` into `out` (`out.len() ==
/// hi - lo`): `out[i] = (packed key of row lo + i, lo + i)`. `cols` are
/// the **already-sliced** key columns for this packing depth — at most
/// four (wider keys recurse; see `crate::rel`). Zero columns pack to
/// key 0 (the Boolean-projection case).
///
/// The scalar form is the optimization here: one loop per key *width*,
/// streaming each column as a bounds-check-free slice, instead of the
/// old per-row walk over a column list. Store-bound on every path, so
/// SSE2/AVX2 share it.
pub fn pack_keys(cols: &[&[Vid]], lo: u32, hi: u32, out: &mut [Key]) {
    debug_assert!(cols.len() <= 4, "a u128 key holds at most four vids");
    debug_assert_eq!(out.len(), (hi - lo) as usize);
    let (l, h) = (lo as usize, hi as usize);
    match cols {
        [] => {
            for (slot, row) in out.iter_mut().zip(lo..hi) {
                *slot = Key { k: 0, row };
            }
        }
        [c0] => {
            for ((slot, &a), row) in out.iter_mut().zip(&c0[l..h]).zip(lo..) {
                *slot = Key { k: a as u128, row };
            }
        }
        [c0, c1] => {
            for (((slot, &a), &b), row) in out.iter_mut().zip(&c0[l..h]).zip(&c1[l..h]).zip(lo..) {
                *slot = Key {
                    k: ((a as u128) << 32) | b as u128,
                    row,
                };
            }
        }
        [c0, c1, c2] => {
            for ((((slot, &a), &b), &c), row) in out
                .iter_mut()
                .zip(&c0[l..h])
                .zip(&c1[l..h])
                .zip(&c2[l..h])
                .zip(lo..)
            {
                *slot = Key {
                    k: ((a as u128) << 64) | ((b as u128) << 32) | c as u128,
                    row,
                };
            }
        }
        [c0, c1, c2, c3] => {
            for (((((slot, &a), &b), &c), &d), row) in out
                .iter_mut()
                .zip(&c0[l..h])
                .zip(&c1[l..h])
                .zip(&c2[l..h])
                .zip(&c3[l..h])
                .zip(lo..)
            {
                *slot = Key {
                    k: ((a as u128) << 96) | ((b as u128) << 64) | ((c as u128) << 32) | d as u128,
                    row,
                };
            }
        }
        _ => unreachable!("pack_keys called with more than four columns"),
    }
}

/// Re-pack existing sort entries at a deeper key offset: for each entry
/// of `src` (in order), append `(pack of src[i].row over cols, src[i].row)`
/// to `out`. `cols` are the already-sliced columns of the deeper level,
/// at most four. This is the tie-resolution kernel: the rows are a
/// permutation, so the column reads are gathers, but the key composition
/// is the same width-specialized shift/or chain as [`pack_keys`].
pub fn pack_rekey(cols: &[&[Vid]], src: &[Key], out: &mut Vec<Key>) {
    debug_assert!(cols.len() <= 4, "a u128 key holds at most four vids");
    out.clear();
    out.reserve(src.len());
    match cols {
        [] => out.extend(src.iter().map(|e| Key { k: 0, row: e.row })),
        [c0] => out.extend(src.iter().map(|e| Key {
            k: c0[e.row as usize] as u128,
            row: e.row,
        })),
        [c0, c1] => out.extend(src.iter().map(|e| {
            let r = e.row as usize;
            Key {
                k: ((c0[r] as u128) << 32) | c1[r] as u128,
                row: e.row,
            }
        })),
        [c0, c1, c2] => out.extend(src.iter().map(|e| {
            let r = e.row as usize;
            Key {
                k: ((c0[r] as u128) << 64) | ((c1[r] as u128) << 32) | c2[r] as u128,
                row: e.row,
            }
        })),
        [c0, c1, c2, c3] => out.extend(src.iter().map(|e| {
            let r = e.row as usize;
            Key {
                k: ((c0[r] as u128) << 96)
                    | ((c1[r] as u128) << 64)
                    | ((c2[r] as u128) << 32)
                    | c3[r] as u128,
                row: e.row,
            }
        })),
        _ => unreachable!("pack_rekey called with more than four columns"),
    }
}

// ---------------------------------------------------------------------------
// run detection
// ---------------------------------------------------------------------------

/// End of the run of entries whose packed key equals `keys[start].k`:
/// the smallest `end > start` with `keys[end].k != keys[start].k` (or
/// `keys.len()`). Returns `start` when `start >= keys.len()`.
///
/// Replaces the scalar `keys_eq` pair walk of grouped projections,
/// duplicate elimination, and merge-join block enumeration. Callers with
/// keys wider than four columns must additionally split the returned run
/// on the unpacked tail columns (see `crate::rel`).
#[inline]
pub fn run_end(keys: &[Key], start: usize) -> usize {
    let n = keys.len();
    if start >= n {
        return n;
    }
    // Inline fast path: after joins most keys are near-unique, so short
    // runs dominate; answer them with a few inline compares instead of a
    // dispatch + call. Every path returns the same boundary, so this only
    // moves the scalar/SIMD cutover to where vector setup can amortize.
    let base = keys[start].k;
    let mut i = start + 1;
    while i < n && i < start + 4 {
        if keys[i].k != base {
            return i;
        }
        i += 1;
    }
    if i >= n {
        return n;
    }
    match active() {
        KernelPath::Scalar => run_end_scalar(keys, start),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => x86::run_end_sse2(keys, start),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only reports Avx2 after `is_x86_feature_detected!`.
        KernelPath::Avx2 => unsafe { x86::run_end_avx2(keys, start) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => run_end_scalar(keys, start),
    }
}

fn run_end_scalar(keys: &[Key], start: usize) -> usize {
    let base = keys[start].k;
    keys[start + 1..]
        .iter()
        .position(|e| e.k != base)
        .map_or(keys.len(), |p| start + 1 + p)
}

// ---------------------------------------------------------------------------
// gather
// ---------------------------------------------------------------------------

/// Apply a row permutation/selection to one column: `out[i] =
/// src[idx[i]]`. `out` is cleared and refilled. Panics when an index is
/// out of bounds (checked up front on the SIMD paths, per element on the
/// scalar path).
pub fn gather_u32(src: &[Vid], idx: &[u32], out: &mut Vec<Vid>) {
    out.clear();
    out.resize(idx.len(), 0);
    match active() {
        KernelPath::Scalar => gather_scalar(src, idx, out),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => gather_scalar(src, idx, out),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => {
            let max = idx.iter().copied().max().unwrap_or(0);
            assert!(
                idx.is_empty() || (max as usize) < src.len(),
                "gather index {max} out of bounds for column of {}",
                src.len()
            );
            if src.len() <= i32::MAX as usize {
                // SAFETY: avx2 confirmed by `active()`; all indices
                // bounds-checked above and representable as i32.
                unsafe { x86::gather_avx2(src, idx, out) }
            } else {
                gather_scalar(src, idx, out);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => gather_scalar(src, idx, out),
    }
}

fn gather_scalar(src: &[Vid], idx: &[u32], out: &mut [Vid]) {
    for (slot, &r) in out.iter_mut().zip(idx) {
        *slot = src[r as usize];
    }
}

// ---------------------------------------------------------------------------
// galloping advance
// ---------------------------------------------------------------------------

/// First index `>= start` whose packed key is `>= target`, assuming
/// `keys` is sorted by `k`: the blocked/galloping skip of the merge-join
/// outer loop. Exponential probe doubles the step until it overshoots,
/// then a binary search pins the boundary — `O(log gap)` instead of one
/// comparison per skipped key. Purely algorithmic: every path runs the
/// same code, and the result equals the linear scan's by sortedness.
#[inline]
pub fn gallop_ge(keys: &[Key], start: usize, target: u128) -> usize {
    gallop_ge_by(keys.len(), start, target, |i| keys[i].k)
}

/// [`gallop_ge`] over any sorted sequence of `n` packed keys read through
/// `key_at` — the engine's joins gallop over key orders whose packed keys
/// are computed on demand instead of stored.
#[inline]
pub(crate) fn gallop_ge_by(
    n: usize,
    start: usize,
    target: u128,
    key_at: impl Fn(usize) -> u128,
) -> usize {
    if start >= n || key_at(start) >= target {
        return start;
    }
    // Invariant: key_at(lo) < target; hi is the first candidate bound.
    let mut lo = start;
    let mut step = 1usize;
    let mut hi = loop {
        let probe = lo + step;
        if probe >= n {
            break n;
        }
        if key_at(probe) >= target {
            break probe;
        }
        lo = probe;
        step <<= 1;
    };
    // Binary search in (lo, hi]: smallest index with key >= target.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if key_at(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

// ---------------------------------------------------------------------------
// score folds
// ---------------------------------------------------------------------------

/// Independent-OR fold over one run: `1 − ∏ᵢ (1 − scores[keys[i].row])`,
/// multiplied **in entry order** (strict serial association — the float
/// result is bit-identical on every path; lanes only gather operands).
#[inline]
pub fn fold_or(scores: &[f64], keys: &[Key]) -> f64 {
    // Inline fast path for the short runs that dominate grouped
    // projections. Every body below multiplies the identical
    // left-associated chain `((1·(1−p₀))·(1−p₁))·…`, so this plain serial
    // loop is bit-identical to the chunked scalar and SIMD paths; the
    // SIMD fold only pays off once its score gathers amortize.
    if keys.len() < 32 {
        let mut not_any = 1.0f64;
        for e in keys {
            not_any *= 1.0 - scores[e.row as usize];
        }
        return 1.0 - not_any;
    }
    let not_any = match active() {
        KernelPath::Scalar => fold_nor_scalar(scores, keys),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Sse2 => fold_nor_scalar(scores, keys),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => {
            if scores.len() <= i32::MAX as usize {
                // SAFETY: avx2 confirmed by `active()`; indices are
                // bounds-checked inside before the unchecked gather.
                unsafe { x86::fold_nor_avx2(scores, keys) }
            } else {
                fold_nor_scalar(scores, keys)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => fold_nor_scalar(scores, keys),
    };
    1.0 - not_any
}

/// `∏ (1 − p)` in strict entry order, chunked by four to keep the loop
/// body branch-light (the multiply chain itself stays serial — float
/// multiplication is not reassociated).
fn fold_nor_scalar(scores: &[f64], keys: &[Key]) -> f64 {
    let mut not_any = 1.0f64;
    let mut chunks = keys.chunks_exact(4);
    for c in &mut chunks {
        let (a, b) = (scores[c[0].row as usize], scores[c[1].row as usize]);
        let (d, e) = (scores[c[2].row as usize], scores[c[3].row as usize]);
        // Strict serial association: (((x·a)·b)·d)·e, same as one-by-one.
        not_any = not_any * (1.0 - a) * (1.0 - b) * (1.0 - d) * (1.0 - e);
    }
    for e in chunks.remainder() {
        not_any *= 1.0 - scores[e.row as usize];
    }
    not_any
}

/// Max-score fold over one run: `maxᵢ scores[keys[i].row]`
/// (`NEG_INFINITY` for an empty run). Max is order-independent, so every
/// path trivially agrees bit-for-bit (scores are probabilities — no NaN
/// on this path, and equal values are interchangeable).
#[inline]
pub fn fold_max(scores: &[f64], keys: &[Key]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for e in keys {
        best = best.max(scores[e.row as usize]);
    }
    best
}

// ---------------------------------------------------------------------------
// x86_64 std::arch paths
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Key;
    use lapush_storage::Vid;
    use std::arch::x86_64::*;

    /// Byte offset of `Key.k` is 0 and the struct is 32 bytes
    /// (`#[repr(C)]`, u128 alignment 16): assert it once at compile time
    /// so the pointer arithmetic below can never silently drift.
    const _: () = assert!(std::mem::size_of::<Key>() == 32);
    const _: () = assert!(std::mem::align_of::<Key>() == 16);

    /// SSE2 run detection: one 16-byte compare per key. SSE2 is part of
    /// the x86_64 baseline, so this needs no feature detection — the
    /// `unsafe` blocks are raw-pointer loads at layout-asserted offsets.
    pub(super) fn run_end_sse2(keys: &[Key], start: usize) -> usize {
        let n = keys.len();
        // SAFETY: in-bounds reads of the `k` field (offset 0) of `Key`
        // entries; `loadu` has no alignment requirement.
        unsafe {
            let base = _mm_loadu_si128(keys.as_ptr().add(start) as *const __m128i);
            let mut i = start + 1;
            while i < n {
                let cur = _mm_loadu_si128(keys.as_ptr().add(i) as *const __m128i);
                let eq = _mm_cmpeq_epi32(base, cur);
                if _mm_movemask_epi8(eq) != 0xFFFF {
                    return i;
                }
                i += 1;
            }
        }
        n
    }

    /// AVX2 run detection: two 16-byte keys per 32-byte compare.
    ///
    /// # Safety
    /// Caller must guarantee the `avx2` target feature is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_end_avx2(keys: &[Key], start: usize) -> usize {
        let n = keys.len();
        let base128 = _mm_loadu_si128(keys.as_ptr().add(start) as *const __m128i);
        let base = _mm256_broadcastsi128_si256(base128);
        let mut i = start + 1;
        while i + 1 < n {
            // Two consecutive keys (stride 32 bytes) into one ymm.
            let lo = _mm_loadu_si128(keys.as_ptr().add(i) as *const __m128i);
            let hi = _mm_loadu_si128(keys.as_ptr().add(i + 1) as *const __m128i);
            let pair = _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
            let eq = _mm256_cmpeq_epi32(base, pair);
            let mask = _mm256_movemask_epi8(eq) as u32;
            if mask & 0xFFFF != 0xFFFF {
                return i;
            }
            if mask >> 16 != 0xFFFF {
                return i + 1;
            }
            i += 2;
        }
        if i < n {
            let cur = _mm_loadu_si128(keys.as_ptr().add(i) as *const __m128i);
            if _mm_movemask_epi8(_mm_cmpeq_epi32(base128, cur)) != 0xFFFF {
                return i;
            }
            i += 1;
        }
        i
    }

    /// AVX2 gather: eight `vpgatherdd` lanes per iteration.
    ///
    /// # Safety
    /// Caller must guarantee `avx2`, every `idx` in bounds for `src`,
    /// and `src.len() <= i32::MAX` (gather indices are signed 32-bit).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_avx2(src: &[Vid], idx: &[u32], out: &mut [Vid]) {
        debug_assert_eq!(idx.len(), out.len());
        let chunks = idx.len() / 8;
        let base = src.as_ptr() as *const i32;
        for c in 0..chunks {
            let iv = _mm256_loadu_si256(idx.as_ptr().add(c * 8) as *const __m256i);
            let got = _mm256_i32gather_epi32::<4>(base, iv);
            _mm256_storeu_si256(out.as_mut_ptr().add(c * 8) as *mut __m256i, got);
        }
        for i in chunks * 8..idx.len() {
            // Tail: indices were bounds-checked by the caller.
            *out.get_unchecked_mut(i) = *src.get_unchecked(*idx.get_unchecked(i) as usize);
        }
    }

    /// AVX2 independent-OR fold: gather four scores per `vgatherdpd`,
    /// multiply them into the accumulator **in entry order** — the
    /// product chain is the same serial association as the scalar loop,
    /// so the bits agree.
    ///
    /// # Safety
    /// Caller must guarantee `avx2` and `scores.len() <= i32::MAX`;
    /// row indices are bounds-checked here before the unchecked gather.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_nor_avx2(scores: &[f64], keys: &[Key]) -> f64 {
        let n = scores.len();
        let mut not_any = 1.0f64;
        let mut chunks = keys.chunks_exact(4);
        let base = scores.as_ptr();
        let ones = _mm256_set1_pd(1.0);
        let mut buf = [0.0f64; 4];
        for c in &mut chunks {
            let (r0, r1) = (c[0].row as usize, c[1].row as usize);
            let (r2, r3) = (c[2].row as usize, c[3].row as usize);
            assert!(
                r0 < n && r1 < n && r2 < n && r3 < n,
                "fold row out of bounds"
            );
            let iv = _mm_set_epi32(r3 as i32, r2 as i32, r1 as i32, r0 as i32);
            let got = _mm256_i32gather_pd::<8>(base, iv);
            let compl = _mm256_sub_pd(ones, got);
            _mm256_storeu_pd(buf.as_mut_ptr(), compl);
            // Strict serial association, matching the scalar chain.
            not_any = not_any * buf[0] * buf[1] * buf[2] * buf[3];
        }
        for e in chunks.remainder() {
            not_any *= 1.0 - scores[e.row as usize];
        }
        not_any
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`force`]/[`reset`] act on the process-global dispatch; tests that
    /// use them serialize on this lock so a concurrent test thread cannot
    /// observe (or clobber) a half-finished path sweep.
    static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn forced() -> std::sync::MutexGuard<'static, ()> {
        FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn keys_of(ks: &[u128]) -> Vec<Key> {
        ks.iter()
            .enumerate()
            .map(|(i, &k)| Key { k, row: i as u32 })
            .collect()
    }

    #[test]
    fn key_orders_like_tuple() {
        let a = Key { k: 1, row: 5 };
        let b = Key { k: 1, row: 6 };
        let c = Key { k: 2, row: 0 };
        assert!(a < b && b < c);
        let mut v = vec![c, b, a];
        v.sort_unstable();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn pack_widths_match_pack_vids() {
        let c0: Vec<Vid> = vec![7, 1, 9];
        let c1: Vec<Vid> = vec![4, 4, 2];
        let c2: Vec<Vid> = vec![0, 3, 8];
        let c3: Vec<Vid> = vec![5, 5, 5];
        let all: Vec<&[Vid]> = vec![&c0, &c1, &c2, &c3];
        for w in 0..=4usize {
            let cols = &all[..w];
            let mut out = vec![Key { k: 0, row: 0 }; 3];
            pack_keys(cols, 0, 3, &mut out);
            for (i, e) in out.iter().enumerate() {
                let want = lapush_storage::pack_vids(cols.iter().map(|c| c[i]));
                assert_eq!(e.k, want, "width {w} row {i}");
                assert_eq!(e.row, i as u32);
            }
            // pack_rekey over the identity permutation agrees.
            let mut re = Vec::new();
            pack_rekey(cols, &out, &mut re);
            assert_eq!(re, out, "width {w}");
        }
    }

    #[test]
    fn pack_subrange_offsets_rows() {
        let c0: Vec<Vid> = (0..10).collect();
        let cols: Vec<&[Vid]> = vec![&c0];
        let mut out = vec![Key { k: 0, row: 0 }; 4];
        pack_keys(&cols, 3, 7, &mut out);
        assert_eq!(out[0], Key { k: 3, row: 3 });
        assert_eq!(out[3], Key { k: 6, row: 6 });
    }

    #[test]
    fn run_end_matches_reference_on_every_path() {
        let _g = forced();
        let ks = keys_of(&[1, 1, 1, 2, 2, 3, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8]);
        for path in supported_paths() {
            force(path);
            assert_eq!(run_end(&ks, 0), 3, "{path:?}");
            assert_eq!(run_end(&ks, 3), 5, "{path:?}");
            assert_eq!(run_end(&ks, 5), 6, "{path:?}");
            assert_eq!(run_end(&ks, 6), 15, "{path:?}");
            assert_eq!(run_end(&ks, 15), 16, "{path:?}");
            assert_eq!(run_end(&ks, 16), 16, "{path:?}");
        }
        reset();
    }

    #[test]
    fn run_end_distinguishes_high_bits() {
        let _g = forced();
        // Keys that agree on the low 64 bits only: the 128-bit compare
        // must not truncate.
        let ks = keys_of(&[5, 5 | (1u128 << 100), 5]);
        for path in supported_paths() {
            force(path);
            assert_eq!(run_end(&ks, 0), 1, "{path:?}");
        }
        reset();
    }

    #[test]
    fn gather_matches_scalar_on_every_path() {
        let _g = forced();
        let src: Vec<Vid> = (0..1000).map(|i| (i * 7919) as Vid).collect();
        let idx: Vec<u32> = (0..999).map(|i| (i * 31 % 1000) as u32).collect();
        let mut want = Vec::new();
        gather_scalar(&src, &idx, {
            want.resize(idx.len(), 0);
            &mut want
        });
        for path in supported_paths() {
            force(path);
            let mut got = Vec::new();
            gather_u32(&src, &idx, &mut got);
            assert_eq!(got, want, "{path:?}");
        }
        reset();
    }

    #[test]
    fn gallop_finds_lower_bound() {
        let ks = keys_of(&[1, 3, 3, 3, 9, 9, 14, 20, 20, 20, 20, 31]);
        for target in 0..35u128 {
            let want = ks.iter().position(|e| e.k >= target).unwrap_or(ks.len());
            for start in 0..=want {
                assert_eq!(gallop_ge(&ks, start, target), want, "target {target}");
            }
        }
        assert_eq!(gallop_ge(&ks, 12, 0), 12);
    }

    #[test]
    fn folds_bit_identical_across_paths() {
        let _g = forced();
        let scores: Vec<f64> = (0..517).map(|i| (i % 97) as f64 / 97.0).collect();
        let keys: Vec<Key> = (0..517u32)
            .map(|i| Key {
                k: 0,
                row: (i * 13) % 517,
            })
            .collect();
        force(KernelPath::Scalar);
        let want_or = fold_or(&scores, &keys);
        let want_max = fold_max(&scores, &keys);
        for path in supported_paths() {
            force(path);
            assert_eq!(
                fold_or(&scores, &keys).to_bits(),
                want_or.to_bits(),
                "{path:?}"
            );
            assert_eq!(
                fold_max(&scores, &keys).to_bits(),
                want_max.to_bits(),
                "{path:?}"
            );
            assert_eq!(fold_or(&scores, &[]), 0.0, "{path:?}: empty run");
        }
        reset();
    }

    #[test]
    fn force_and_reset_round_trip() {
        let _g = forced();
        force(KernelPath::Scalar);
        assert_eq!(active(), KernelPath::Scalar);
        reset();
        // After reset, resolution runs again and lands on a supported path.
        assert!(supported_paths().contains(&active()));
    }

    #[test]
    fn requested_mode_defaults_to_auto() {
        // The test environment does not set LAPUSH_KERNELS; CI legs that
        // do exercise the named values end to end.
        assert!(["auto", "scalar", "sse2", "avx2"].contains(&requested_mode()));
    }
}
