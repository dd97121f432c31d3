//! Explicitly vectorized variants of the hot sweep kernels, behind the
//! `simd` cargo feature, with runtime CPU-feature dispatch.
//!
//! ## The two-tier equivalence contract (ARCHITECTURE invariant 18)
//!
//! The scalar kernels in [`crate::blocked`], [`crate::flows`],
//! [`crate::marginals`], [`crate::gamma`], and [`crate::step`] stay
//! untouched and remain the **bit-exact reference**: the default build
//! compiles no SIMD code at all, and even a `--features simd` build
//! runs scalar unless [`GradientConfig::simd`](crate::GradientConfig)
//! opts into [`SimdPolicy::Auto`].
//!
//! The vectorized kernels split into two classes:
//!
//! * **Bit-identical lanes** — the tag sweep, the flow sweep, and the
//!   scoped usage-totals reduction vectorize only element-wise products
//!   and comparisons (every lane performs exactly the scalar kernel's
//!   IEEE operations on exactly the scalar operands, and all
//!   scatter-style read-modify-writes stay scalar and in scalar order),
//!   so their outputs equal the scalar kernels bit-for-bit.
//! * **Tolerance-tier lanes** — the marginal sweep's per-router
//!   accumulation and the Γ row's marginal fill use FMA and a
//!   reassociated (4-lane horizontal) sum, which changes rounding *by
//!   design*. These agree with the scalar reference only within
//!   tolerance; `tests/simd_equivalence.rs` pins trajectory-level
//!   agreement (per-iteration utility, flows, Γ statistics, identical
//!   convergence verdicts), and the numerical watchdog
//!   ([`crate::health`]) is the runtime safety net.
//!
//! Dispatch is resolved per step from [`SimdPolicy`] via
//! `is_x86_feature_detected!` (AVX2+FMA → SSE2 → scalar); non-x86
//! targets and non-`simd` builds always resolve to scalar. The SSE2
//! tier has no gather instructions, so only the two arithmetic-dense
//! kernels (marginal accumulation, Γ fill) get 2-lane variants there;
//! the rest fall back to scalar.
//!
//! Gather indices come from the live-arc lists (`EdgeId` /
//! `NodeId` are `repr(transparent)` over `u32`) and from the
//! [`ActiveSet`](crate::active::ActiveSet)'s cached per-edge head
//! (target-node) array, which avoids re-gathering through the graph's
//! `(tail, head)` pair layout.

#![allow(unsafe_code)] // target_feature kernels + id-slice reinterpretation

use crate::cost::CostModel;
use crate::flows::UsageView;
use spn_graph::EdgeId;
use spn_model::CommodityId;
use spn_transform::ExtendedNetwork;

/// How the algorithm picks its sweep kernels
/// ([`GradientConfig::simd`](crate::GradientConfig)).
///
/// The default is [`SimdPolicy::Scalar`] even when the crate is built
/// with `--features simd`: bit-exact reproducibility (and every bitwise
/// equivalence test in the suite) is the baseline contract, and the
/// relaxed-tolerance kernels are a per-run opt-in. Forcing `Scalar` on
/// a `simd` build is also the supported A/B lever — it must be (and is
/// pinned) bit-identical to the default build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimdPolicy {
    /// Always run the scalar reference kernels (bit-exact; default).
    #[default]
    Scalar,
    /// Use the fastest vectorized kernels the CPU supports (AVX2+FMA →
    /// SSE2 → scalar). A no-op without the `simd` cargo feature.
    Auto,
}

/// The kernel set a step actually runs with, resolved from
/// [`SimdPolicy`] and the host CPU once per step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
pub(crate) enum SimdBackend {
    /// The scalar reference kernels.
    Scalar,
    /// 2-lane SSE2 variants of the arithmetic-dense kernels (no
    /// gathers, no FMA); everything else scalar.
    Sse2,
    /// 4-lane AVX2 gathers + FMA for every vectorized kernel.
    Avx2Fma,
}

/// Resolves the backend the current host runs [`SimdPolicy::Auto`]
/// with. Always [`SimdBackend::Scalar`] without the `simd` feature or
/// off x86-64.
pub(crate) fn detect() -> SimdBackend {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdBackend::Avx2Fma;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return SimdBackend::Sse2;
        }
    }
    SimdBackend::Scalar
}

/// Resolves a configured policy against the host CPU.
pub(crate) fn resolve(policy: SimdPolicy) -> SimdBackend {
    match policy {
        SimdPolicy::Scalar => SimdBackend::Scalar,
        SimdPolicy::Auto => detect(),
    }
}

/// The kernel tier [`SimdPolicy::Auto`] resolves to on this host, as a
/// stable string (`"avx2+fma"`, `"sse2"`, or `"scalar"`) — recorded by
/// the bench harness next to simd measurements.
#[must_use]
pub fn detected_kernel() -> &'static str {
    match detect() {
        SimdBackend::Scalar => "scalar",
        SimdBackend::Sse2 => "sse2",
        SimdBackend::Avx2Fma => "avx2+fma",
    }
}

/// `&[EdgeId]` as raw `u32` indices.
///
/// Sound because `EdgeId` is `repr(transparent)` over `u32` (a layout
/// guarantee documented on the type itself).
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
fn edge_ids(arcs: &[EdgeId]) -> &[u32] {
    // SAFETY: EdgeId is repr(transparent) over u32; len and alignment
    // are therefore identical.
    unsafe { std::slice::from_raw_parts(arcs.as_ptr().cast::<u32>(), arcs.len()) }
}

/// [`crate::marginals::marginal_sweep_active`] dispatched by backend.
/// `heads[l]` is edge `l`'s target-node index. Scalar and SSE2/AVX2
/// differ within tolerance (FMA + reassociated row sums).
#[allow(clippy::too_many_arguments)] // a commodity's full sweep context
pub(crate) fn marginal_sweep_active(
    backend: SimdBackend,
    ext: &ExtendedNetwork,
    cost: &CostModel,
    phi: &[f64],
    usage: UsageView<'_>,
    j: CommodityId,
    d: &mut [f64],
    arc_len: &[u32],
    arcs: &[EdgeId],
    live: usize,
    heads: &[u32],
) {
    match backend {
        SimdBackend::Scalar => {
            let _ = heads;
            crate::marginals::marginal_sweep_active(
                ext, cost, phi, usage, j, d, arc_len, arcs, live,
            );
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdBackend::Sse2 => unsafe {
            // SAFETY: SSE2 is guaranteed by the resolved backend.
            x86::marginal_sweep_sse2(ext, cost, phi, usage, j, d, arc_len, arcs, live, heads);
        },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdBackend::Avx2Fma => unsafe {
            // SAFETY: AVX2+FMA are guaranteed by the resolved backend.
            x86::marginal_sweep_avx2(ext, cost, phi, usage, j, d, arc_len, arcs, live, heads);
        },
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        _ => {
            crate::marginals::marginal_sweep_active(
                ext, cost, phi, usage, j, d, arc_len, arcs, live,
            );
        }
    }
}

/// [`crate::blocked::tag_sweep_active`] dispatched by backend. The
/// AVX2 lane evaluates each arc's exact scalar condition expressions
/// per lane (no FMA, no reassociation), so its tag rows are
/// **bit-identical** to the scalar sweep for every backend.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
pub(crate) fn tag_sweep_active(
    backend: SimdBackend,
    ext: &ExtendedNetwork,
    cost: &CostModel,
    phi: &[f64],
    t_row: &[f64],
    usage: UsageView<'_>,
    d_row: &[f64],
    eta: f64,
    traffic_floor: f64,
    j: CommodityId,
    tagged: &mut [bool],
    arc_len: &[u32],
    arcs: &[EdgeId],
    live: usize,
    heads: &[u32],
) {
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdBackend::Avx2Fma => unsafe {
            // SAFETY: AVX2 is guaranteed by the resolved backend.
            x86::tag_sweep_avx2(
                ext,
                cost,
                phi,
                t_row,
                usage,
                d_row,
                eta,
                traffic_floor,
                j,
                tagged,
                arc_len,
                arcs,
                live,
                heads,
            );
        },
        _ => {
            let _ = heads;
            crate::blocked::tag_sweep_active(
                ext,
                cost,
                phi,
                t_row,
                usage,
                d_row,
                eta,
                traffic_floor,
                j,
                tagged,
                arc_len,
                arcs,
                live,
            );
        }
    }
}

/// [`crate::flows::flow_sweep_active`] dispatched by backend. The AVX2
/// lane vectorizes only the per-arc products (`t·φ`, `flow·c`,
/// `flow·β`) and applies every scatter-style store scalar in arc
/// order, so its rows are **bit-identical** to the scalar sweep.
#[allow(clippy::too_many_arguments)] // a commodity's full sweep context
pub(crate) fn flow_sweep_active(
    backend: SimdBackend,
    ext: &ExtendedNetwork,
    phi: &[f64],
    j: CommodityId,
    t: &mut [f64],
    x: &mut [f64],
    f_edge: &mut [f64],
    f_node: &mut [f64],
    arc_len: &[u32],
    arcs: &[EdgeId],
    heads: &[u32],
) {
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdBackend::Avx2Fma => unsafe {
            // SAFETY: AVX2 is guaranteed by the resolved backend.
            x86::flow_sweep_avx2(ext, phi, j, t, x, f_edge, f_node, arc_len, arcs, heads);
        },
        _ => {
            let _ = heads;
            crate::flows::flow_sweep_active(ext, phi, j, t, x, f_edge, f_node, arc_len, arcs);
        }
    }
}

/// [`crate::step::accumulate_usage_totals_scoped`] dispatched by
/// backend. The AVX2 lane gathers accumulator/partial pairs four at a
/// time and stores scalar (indices within one commodity are distinct),
/// keeping the per-accumulator addition sequence — and therefore the
/// totals — **bit-identical** to the scalar accumulation.
#[allow(clippy::too_many_arguments)] // a commodity's full sweep context
pub(crate) fn accumulate_usage_totals_scoped(
    backend: SimdBackend,
    ext: &ExtendedNetwork,
    fe_tot: &mut [f64],
    fn_tot: &mut [f64],
    fe_part: &[f64],
    fn_part: &[f64],
    l_count: usize,
    v_count: usize,
    j_count: usize,
) {
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdBackend::Avx2Fma => unsafe {
            // SAFETY: AVX2 is guaranteed by the resolved backend.
            x86::accumulate_scoped_avx2(
                ext, fe_tot, fn_tot, fe_part, fn_part, l_count, v_count, j_count,
            );
        },
        _ => {
            crate::step::accumulate_usage_totals_scoped(
                ext, fe_tot, fn_tot, fe_part, fn_part, l_count, v_count, j_count,
            );
        }
    }
}

/// Fills `out[i] = tail_partial · c(j, lᵢ) + β(j, lᵢ) · d[head(lᵢ)]`
/// for a Γ row's out-edge list. Returns `false` when the caller must
/// run the scalar fill (scalar backend, or a non-`simd` build) —
/// keeping the scalar Γ path byte-for-byte untouched. Tolerance tier:
/// the vector fill uses FMA.
#[allow(clippy::too_many_arguments)] // a Γ row's full context
pub(crate) fn fill_edge_marginals(
    backend: SimdBackend,
    cost_row: &[f64],
    beta_row: &[f64],
    d_row: &[f64],
    edges: &[EdgeId],
    tail_partial: f64,
    heads: &[u32],
    out: &mut Vec<f64>,
) -> bool {
    match backend {
        SimdBackend::Scalar => false,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdBackend::Sse2 => {
            out.resize(edges.len(), 0.0);
            // SAFETY: SSE2 is guaranteed by the resolved backend.
            unsafe {
                x86::fill_marginals_sse2(cost_row, beta_row, d_row, edges, tail_partial, heads, out)
            };
            true
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdBackend::Avx2Fma => {
            out.resize(edges.len(), 0.0);
            // SAFETY: AVX2+FMA are guaranteed by the resolved backend.
            unsafe {
                x86::fill_marginals_avx2(cost_row, beta_row, d_row, edges, tail_partial, heads, out)
            };
            true
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        _ => {
            let _ = (cost_row, beta_row, d_row, edges, tail_partial, heads, out);
            false
        }
    }
}

/// The `std::arch` kernels. Every `#[target_feature]` function's
/// safety contract is "the named CPU features are present", discharged
/// by runtime detection in [`resolve`]; gathered indices are live-arc
/// edge ids and per-edge head indices, in bounds by construction of
/// the extended network (debug-asserted at entry).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::{edge_ids, CostModel, UsageView};
    use spn_graph::EdgeId;
    use spn_model::CommodityId;
    use spn_transform::ExtendedNetwork;
    use std::arch::x86_64::{
        __m128i, _mm256_add_pd, _mm256_and_pd, _mm256_castpd256_pd128, _mm256_cmp_pd,
        _mm256_div_pd, _mm256_extractf128_pd, _mm256_fmadd_pd, _mm256_i32gather_pd,
        _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_sub_pd, _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_i32gather_epi32, _mm_loadu_si128,
        _mm_mul_pd, _mm_set_pd, _mm_setzero_pd, _mm_unpackhi_pd, _CMP_GE_OQ, _CMP_LE_OQ,
    };

    /// Horizontal sum of a 4-lane accumulator (pairwise: (0+2)+(1+3)).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum4(v: std::arch::x86_64::__m256d) -> f64 {
        let hi = _mm256_extractf128_pd::<1>(v);
        let lo = _mm256_castpd256_pd128(v);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// Horizontal sum of a 2-lane accumulator.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn hsum2(v: std::arch::x86_64::__m128d) -> f64 {
        _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)))
    }

    /// One non-dummy router's marginal accumulation, 4 lanes at a time:
    /// `Σ φ_l · (tail_partial · c_l + β_l · d[head_l])` with FMA and a
    /// reassociated final sum (tolerance tier).
    #[target_feature(enable = "avx2,fma")]
    fn router_marginal_avx2(
        ids: &[u32],
        phi: &[f64],
        cost_row: &[f64],
        beta_row: &[f64],
        d: &[f64],
        heads: &[u32],
        tail_partial: f64,
    ) -> f64 {
        let n = ids.len();
        let tp = _mm256_set1_pd(tail_partial);
        let mut acc = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY (loads/gathers): `ids[i..i+4]` is in bounds; every
            // gathered index is a live edge id (< phi/cost/beta len) or
            // a head node index (< d len) by extended-network
            // construction.
            let idx = unsafe { _mm_loadu_si128(ids.as_ptr().add(i).cast::<__m128i>()) };
            let ph = unsafe { _mm256_i32gather_pd::<8>(phi.as_ptr(), idx) };
            let co = unsafe { _mm256_i32gather_pd::<8>(cost_row.as_ptr(), idx) };
            let be = unsafe { _mm256_i32gather_pd::<8>(beta_row.as_ptr(), idx) };
            let hd = unsafe { _mm_i32gather_epi32::<4>(heads.as_ptr().cast::<i32>(), idx) };
            let dv = unsafe { _mm256_i32gather_pd::<8>(d.as_ptr(), hd) };
            let term = _mm256_fmadd_pd(tp, co, _mm256_mul_pd(be, dv));
            acc = _mm256_fmadd_pd(ph, term, acc);
            i += 4;
        }
        let mut sum = hsum4(acc);
        while i < n {
            let l = ids[i] as usize;
            sum += phi[l] * (tail_partial * cost_row[l] + beta_row[l] * d[heads[l] as usize]);
            i += 1;
        }
        sum
    }

    /// AVX2+FMA marginal sweep over a commodity's live arcs (tolerance
    /// tier; see [`crate::marginals::marginal_sweep_active`] for the
    /// reference structure).
    #[allow(clippy::too_many_arguments)] // a commodity's full sweep context
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn marginal_sweep_avx2(
        ext: &ExtendedNetwork,
        cost: &CostModel,
        phi: &[f64],
        usage: UsageView<'_>,
        j: CommodityId,
        d: &mut [f64],
        arc_len: &[u32],
        arcs: &[EdgeId],
        live: usize,
        heads: &[u32],
    ) {
        debug_assert_eq!(heads.len(), ext.graph().edge_count());
        let routers = ext.commodity_routers_topo(j);
        let dummy = ext.dummy_source(j);
        let cost_row = ext.cost_row(j);
        let beta_row = ext.beta_row(j);
        let ids = edge_ids(arcs);
        let mut idx = live;
        for r in (0..routers.len()).rev() {
            let v = routers[r];
            let n = arc_len[r] as usize;
            idx -= n;
            let acc = if v == dummy {
                let mut acc = 0.0;
                for &l in &arcs[idx..idx + n] {
                    let head = ext.graph().target(l);
                    acc +=
                        phi[l.index()] * cost.edge_marginal_view(ext, usage, j, l, d[head.index()]);
                }
                acc
            } else {
                let tail_partial = cost.node_partial_view(ext, usage, v);
                router_marginal_avx2(
                    &ids[idx..idx + n],
                    phi,
                    cost_row,
                    beta_row,
                    d,
                    heads,
                    tail_partial,
                )
            };
            d[v.index()] = acc;
        }
        debug_assert_eq!(idx, 0, "live-arc prefix mismatch for {j}");
    }

    /// One non-dummy router's marginal accumulation, 2 SSE2 lanes at a
    /// time (explicit pair loads — SSE2 has no gathers — no FMA, but a
    /// reassociated pairwise sum: tolerance tier).
    #[target_feature(enable = "sse2")]
    fn router_marginal_sse2(
        ids: &[u32],
        phi: &[f64],
        cost_row: &[f64],
        beta_row: &[f64],
        d: &[f64],
        heads: &[u32],
        tail_partial: f64,
    ) -> f64 {
        let n = ids.len();
        let tp = _mm_set_pd(tail_partial, tail_partial);
        let mut acc = _mm_setzero_pd();
        let mut i = 0usize;
        while i + 2 <= n {
            let l0 = ids[i] as usize;
            let l1 = ids[i + 1] as usize;
            let ph = _mm_set_pd(phi[l1], phi[l0]);
            let co = _mm_set_pd(cost_row[l1], cost_row[l0]);
            let be = _mm_set_pd(beta_row[l1], beta_row[l0]);
            let dv = _mm_set_pd(d[heads[l1] as usize], d[heads[l0] as usize]);
            let term = _mm_add_pd(_mm_mul_pd(tp, co), _mm_mul_pd(be, dv));
            acc = _mm_add_pd(acc, _mm_mul_pd(ph, term));
            i += 2;
        }
        let mut sum = hsum2(acc);
        while i < n {
            let l = ids[i] as usize;
            sum += phi[l] * (tail_partial * cost_row[l] + beta_row[l] * d[heads[l] as usize]);
            i += 1;
        }
        sum
    }

    /// SSE2 marginal sweep (2-lane variant of [`marginal_sweep_avx2`]).
    #[allow(clippy::too_many_arguments)] // a commodity's full sweep context
    #[target_feature(enable = "sse2")]
    pub(super) fn marginal_sweep_sse2(
        ext: &ExtendedNetwork,
        cost: &CostModel,
        phi: &[f64],
        usage: UsageView<'_>,
        j: CommodityId,
        d: &mut [f64],
        arc_len: &[u32],
        arcs: &[EdgeId],
        live: usize,
        heads: &[u32],
    ) {
        debug_assert_eq!(heads.len(), ext.graph().edge_count());
        let routers = ext.commodity_routers_topo(j);
        let dummy = ext.dummy_source(j);
        let cost_row = ext.cost_row(j);
        let beta_row = ext.beta_row(j);
        let ids = edge_ids(arcs);
        let mut idx = live;
        for r in (0..routers.len()).rev() {
            let v = routers[r];
            let n = arc_len[r] as usize;
            idx -= n;
            let acc = if v == dummy {
                let mut acc = 0.0;
                for &l in &arcs[idx..idx + n] {
                    let head = ext.graph().target(l);
                    acc +=
                        phi[l.index()] * cost.edge_marginal_view(ext, usage, j, l, d[head.index()]);
                }
                acc
            } else {
                let tail_partial = cost.node_partial_view(ext, usage, v);
                router_marginal_sse2(
                    &ids[idx..idx + n],
                    phi,
                    cost_row,
                    beta_row,
                    d,
                    heads,
                    tail_partial,
                )
            };
            d[v.index()] = acc;
        }
        debug_assert_eq!(idx, 0, "live-arc prefix mismatch for {j}");
    }

    /// AVX2 Γ-row marginal fill (tolerance tier): contiguous stores of
    /// `tail_partial · c_l + β_l · d[head_l]` over a router's out-edge
    /// slice.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn fill_marginals_avx2(
        cost_row: &[f64],
        beta_row: &[f64],
        d: &[f64],
        edges: &[EdgeId],
        tail_partial: f64,
        heads: &[u32],
        out: &mut [f64],
    ) {
        let ids = edge_ids(edges);
        let n = ids.len();
        debug_assert_eq!(out.len(), n);
        let tp = _mm256_set1_pd(tail_partial);
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: as in `router_marginal_avx2`; `out[i..i+4]` is in
            // bounds for the unaligned store.
            let idx = unsafe { _mm_loadu_si128(ids.as_ptr().add(i).cast::<__m128i>()) };
            let co = unsafe { _mm256_i32gather_pd::<8>(cost_row.as_ptr(), idx) };
            let be = unsafe { _mm256_i32gather_pd::<8>(beta_row.as_ptr(), idx) };
            let hd = unsafe { _mm_i32gather_epi32::<4>(heads.as_ptr().cast::<i32>(), idx) };
            let dv = unsafe { _mm256_i32gather_pd::<8>(d.as_ptr(), hd) };
            let m = _mm256_fmadd_pd(tp, co, _mm256_mul_pd(be, dv));
            unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(i), m) };
            i += 4;
        }
        while i < n {
            let l = ids[i] as usize;
            out[i] = tail_partial * cost_row[l] + beta_row[l] * d[heads[l] as usize];
            i += 1;
        }
    }

    /// SSE2 Γ-row marginal fill (2-lane variant of
    /// [`fill_marginals_avx2`]; no FMA).
    #[target_feature(enable = "sse2")]
    pub(super) fn fill_marginals_sse2(
        cost_row: &[f64],
        beta_row: &[f64],
        d: &[f64],
        edges: &[EdgeId],
        tail_partial: f64,
        heads: &[u32],
        out: &mut [f64],
    ) {
        let ids = edge_ids(edges);
        let n = ids.len();
        debug_assert_eq!(out.len(), n);
        let mut i = 0usize;
        while i + 2 <= n {
            let l0 = ids[i] as usize;
            let l1 = ids[i + 1] as usize;
            let co = _mm_set_pd(cost_row[l1], cost_row[l0]);
            let be = _mm_set_pd(beta_row[l1], beta_row[l0]);
            let dv = _mm_set_pd(d[heads[l1] as usize], d[heads[l0] as usize]);
            let tp = _mm_set_pd(tail_partial, tail_partial);
            let m = _mm_add_pd(_mm_mul_pd(tp, co), _mm_mul_pd(be, dv));
            // SAFETY: `out[i..i+2]` is in bounds.
            unsafe { std::arch::x86_64::_mm_storeu_pd(out.as_mut_ptr().add(i), m) };
            i += 2;
        }
        while i < n {
            let l = ids[i] as usize;
            out[i] = tail_partial * cost_row[l] + beta_row[l] * d[heads[l] as usize];
            i += 1;
        }
    }

    /// AVX2 tag sweep over a commodity's live arcs — **bit-identical**
    /// to [`crate::blocked::tag_sweep_active`]: the per-arc condition
    /// expressions are evaluated lane-for-lane with the scalar
    /// operations (mul, add, sub, div, ordered compares; never FMA),
    /// and the router tag is the order-independent OR of the arc
    /// conditions (the scalar early-`break` is a pure optimization).
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's inputs
    #[target_feature(enable = "avx2")]
    pub(super) fn tag_sweep_avx2(
        ext: &ExtendedNetwork,
        cost: &CostModel,
        phi: &[f64],
        t_row: &[f64],
        usage: UsageView<'_>,
        d_row: &[f64],
        eta: f64,
        traffic_floor: f64,
        j: CommodityId,
        tagged: &mut [bool],
        arc_len: &[u32],
        arcs: &[EdgeId],
        live: usize,
        heads: &[u32],
    ) {
        debug_assert_eq!(heads.len(), ext.graph().edge_count());
        let routers = ext.commodity_routers_topo(j);
        let dummy = ext.dummy_source(j);
        let cost_row = ext.cost_row(j);
        let beta_row = ext.beta_row(j);
        let ids = edge_ids(arcs);
        let mut idx = live;
        for r in (0..routers.len()).rev() {
            let v = routers[r];
            let n = arc_len[r] as usize;
            idx -= n;
            let t_v = t_row[v.index()];
            let dv = d_row[v.index()];
            let mut tag = false;
            // Inherited tags: cheap boolean loads, early exit.
            for &l in &ids[idx..idx + n] {
                if tagged[heads[l as usize] as usize] {
                    tag = true;
                    break;
                }
            }
            if !tag && v == dummy {
                // Dummy rows mix edge kinds; per-arc scalar (identical
                // to the reference sweep).
                if t_v > traffic_floor {
                    for &l in &arcs[idx..idx + n] {
                        let head = ext.graph().target(l);
                        let dm = d_row[head.index()];
                        if dv <= dm {
                            let excess = cost.edge_marginal_view(ext, usage, j, l, dm) - dv;
                            if phi[l.index()] >= eta * excess / t_v {
                                tag = true;
                                break;
                            }
                        }
                    }
                }
            } else if !tag && t_v > traffic_floor {
                // Improper-link test, 4 exact lanes at a time: an arc
                // is sticky iff `dv <= dm && φ >= η·(m − dv)/t_v` with
                // `m = tail_partial·c + β·dm` — the scalar expression,
                // operation for operation.
                let tail_partial = cost.node_partial_view(ext, usage, v);
                let tp = _mm256_set1_pd(tail_partial);
                let dvv = _mm256_set1_pd(dv);
                let etav = _mm256_set1_pd(eta);
                let tvv = _mm256_set1_pd(t_v);
                let row = &ids[idx..idx + n];
                let mut i = 0usize;
                while i + 4 <= n {
                    // SAFETY: as in `router_marginal_avx2`.
                    let e = unsafe { _mm_loadu_si128(row.as_ptr().add(i).cast::<__m128i>()) };
                    let hd = unsafe { _mm_i32gather_epi32::<4>(heads.as_ptr().cast::<i32>(), e) };
                    let dm = unsafe { _mm256_i32gather_pd::<8>(d_row.as_ptr(), hd) };
                    let le = _mm256_cmp_pd::<_CMP_LE_OQ>(dvv, dm);
                    if _mm256_movemask_pd(le) != 0 {
                        let ph = unsafe { _mm256_i32gather_pd::<8>(phi.as_ptr(), e) };
                        let co = unsafe { _mm256_i32gather_pd::<8>(cost_row.as_ptr(), e) };
                        let be = unsafe { _mm256_i32gather_pd::<8>(beta_row.as_ptr(), e) };
                        let m = _mm256_add_pd(_mm256_mul_pd(tp, co), _mm256_mul_pd(be, dm));
                        let excess = _mm256_sub_pd(m, dvv);
                        let rhs = _mm256_div_pd(_mm256_mul_pd(etav, excess), tvv);
                        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(ph, rhs);
                        if _mm256_movemask_pd(_mm256_and_pd(le, ge)) != 0 {
                            tag = true;
                            break;
                        }
                    }
                    i += 4;
                }
                if !tag {
                    while i < n {
                        let l = row[i] as usize;
                        let dm = d_row[heads[l] as usize];
                        if dv <= dm {
                            let excess = (tail_partial * cost_row[l] + beta_row[l] * dm) - dv;
                            if phi[l] >= eta * excess / t_v {
                                tag = true;
                                break;
                            }
                        }
                        i += 1;
                    }
                }
            }
            tagged[v.index()] = tag;
        }
        debug_assert_eq!(idx, 0, "live-arc prefix mismatch for {j}");
    }

    /// AVX2 flow sweep over a commodity's live arcs — **bit-identical**
    /// to [`crate::flows::flow_sweep_active`]: the three per-arc
    /// products are single IEEE multiplies per lane (exactly the scalar
    /// operations), and every store / read-modify-write runs scalar in
    /// arc order. The node-usage row is accumulated through a local
    /// running value, which performs the identical addition sequence.
    #[allow(clippy::too_many_arguments)] // a commodity's full sweep context
    #[target_feature(enable = "avx2")]
    pub(super) fn flow_sweep_avx2(
        ext: &ExtendedNetwork,
        phi: &[f64],
        j: CommodityId,
        t: &mut [f64],
        x: &mut [f64],
        f_edge: &mut [f64],
        f_node: &mut [f64],
        arc_len: &[u32],
        arcs: &[EdgeId],
        heads: &[u32],
    ) {
        debug_assert_eq!(heads.len(), ext.graph().edge_count());
        let cost_row = ext.cost_row(j);
        let beta_row = ext.beta_row(j);
        let ids = edge_ids(arcs);
        t[ext.dummy_source(j).index()] = ext.commodity(j).max_rate;
        let mut idx = 0usize;
        for (r, &v) in ext.commodity_routers_topo(j).iter().enumerate() {
            let n = arc_len[r] as usize;
            let row = &ids[idx..idx + n];
            idx += n;
            let tv = t[v.index()];
            if tv == 0.0 {
                continue;
            }
            let tvv = _mm256_set1_pd(tv);
            let mut fnode_acc = f_node[v.index()];
            let mut i = 0usize;
            while i + 4 <= n {
                // SAFETY: as in `router_marginal_avx2`; the stack
                // stores are to local arrays of matching size.
                let e = unsafe { _mm_loadu_si128(row.as_ptr().add(i).cast::<__m128i>()) };
                let ph = unsafe { _mm256_i32gather_pd::<8>(phi.as_ptr(), e) };
                let co = unsafe { _mm256_i32gather_pd::<8>(cost_row.as_ptr(), e) };
                let be = unsafe { _mm256_i32gather_pd::<8>(beta_row.as_ptr(), e) };
                let flow = _mm256_mul_pd(tvv, ph);
                let usage = _mm256_mul_pd(flow, co);
                let contrib = _mm256_mul_pd(flow, be);
                let mut fl = [0.0f64; 4];
                let mut us = [0.0f64; 4];
                let mut cb = [0.0f64; 4];
                unsafe {
                    _mm256_storeu_pd(fl.as_mut_ptr(), flow);
                    _mm256_storeu_pd(us.as_mut_ptr(), usage);
                    _mm256_storeu_pd(cb.as_mut_ptr(), contrib);
                }
                for k in 0..4 {
                    let l = row[i + k] as usize;
                    x[l] = fl[k];
                    f_edge[l] += us[k];
                    fnode_acc += us[k];
                    t[heads[l] as usize] += cb[k];
                }
                i += 4;
            }
            while i < n {
                let l = row[i] as usize;
                let flow = tv * phi[l];
                x[l] = flow;
                let usage = flow * cost_row[l];
                f_edge[l] += usage;
                fnode_acc += usage;
                t[heads[l] as usize] += flow * beta_row[l];
                i += 1;
            }
            f_node[v.index()] = fnode_acc;
        }
    }

    /// AVX2 scoped usage-totals accumulation — **bit-identical** to
    /// [`crate::step::accumulate_usage_totals_scoped`]: accumulator and
    /// partial values are gathered four at a time, added lane-wise (one
    /// IEEE add per element, as in the scalar loop), and stored scalar.
    /// Sound because each member edge/router appears exactly once per
    /// commodity, so the four indices of a quad are distinct.
    #[allow(clippy::too_many_arguments)] // a commodity's full sweep context
    #[target_feature(enable = "avx2")]
    pub(super) fn accumulate_scoped_avx2(
        ext: &ExtendedNetwork,
        fe_tot: &mut [f64],
        fn_tot: &mut [f64],
        fe_part: &[f64],
        fn_part: &[f64],
        l_count: usize,
        v_count: usize,
        j_count: usize,
    ) {
        for ji in 0..j_count {
            let j = CommodityId::from_index(ji);
            let fe = &fe_part[ji * l_count..(ji + 1) * l_count];
            gather_add_scatter(fe_tot, fe, edge_ids(ext.commodity_edges(j)));
            let fnode = &fn_part[ji * v_count..(ji + 1) * v_count];
            // SAFETY (layout): NodeId is repr(transparent) over u32.
            let routers = unsafe {
                let rs = ext.commodity_routers(j);
                std::slice::from_raw_parts(rs.as_ptr().cast::<u32>(), rs.len())
            };
            gather_add_scatter(fn_tot, fnode, routers);
        }
    }

    /// `tot[i] += part[i]` for each index in `ids` (distinct within one
    /// call), 4 gathered lanes at a time with scalar stores.
    #[target_feature(enable = "avx2")]
    fn gather_add_scatter(tot: &mut [f64], part: &[f64], ids: &[u32]) {
        let n = ids.len();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: indices are member ids, in bounds for both
            // buffers; distinct within the call, so the gathered
            // accumulators cannot be stale.
            let idx = unsafe { _mm_loadu_si128(ids.as_ptr().add(i).cast::<__m128i>()) };
            let acc = unsafe { _mm256_i32gather_pd::<8>(tot.as_ptr(), idx) };
            let p = unsafe { _mm256_i32gather_pd::<8>(part.as_ptr(), idx) };
            let sum = _mm256_add_pd(acc, p);
            let mut s = [0.0f64; 4];
            unsafe { _mm256_storeu_pd(s.as_mut_ptr(), sum) };
            for k in 0..4 {
                tot[ids[i + k] as usize] = s[k];
            }
            i += 4;
        }
        while i < n {
            let id = ids[i] as usize;
            tot[id] += part[id];
            i += 1;
        }
    }
}

/// Micro-benchmark and self-check harness for the vectorized kernels,
/// driven by the bench crate's `simd_kernels` bin and the kernel
/// section of `bench_core`'s JSON report.
///
/// Given a warmed [`GradientAlgorithm`](crate::GradientAlgorithm), each
/// kernel is run standalone — scalar reference vs. the detected
/// backend — over identical cloned state, measuring per-pass wall time
/// and verifying the equivalence tier it claims: the tag, flow, and
/// totals-reduction kernels must match **bit-for-bit**, while the
/// marginal sweep and the Γ fill report their maximum relative
/// deviation (tolerance tier).
#[cfg(feature = "simd")]
pub mod kernel_bench {
    use super::{detect, detected_kernel, SimdBackend};
    use crate::active::rebuild_active_row;
    use crate::algorithm::GradientAlgorithm;
    use crate::step::{clear_tags_scoped, zero_flow_rows_scoped};
    use spn_graph::EdgeId;
    use spn_model::CommodityId;
    use std::time::Instant;

    /// One kernel's measured comparison between the scalar reference
    /// and the detected vectorized backend.
    #[derive(Clone, Copy, Debug)]
    pub struct KernelReport {
        /// Kernel name (`"tag"`, `"flow"`, `"reduce"`, `"marginal"`,
        /// `"gamma_fill"`).
        pub kernel: &'static str,
        /// Nanoseconds per full all-commodity pass, scalar reference.
        pub scalar_ns: f64,
        /// Nanoseconds per full all-commodity pass, detected backend.
        pub simd_ns: f64,
        /// `scalar_ns / simd_ns`.
        pub speedup: f64,
        /// Whether the two backends' outputs agreed bit-for-bit (the
        /// contract for `tag`/`flow`/`reduce`; informational for the
        /// tolerance-tier kernels).
        pub bit_identical: bool,
        /// Largest `|a − b| / max(|a|, |b|, 1)` over all outputs.
        pub max_rel_dev: f64,
    }

    /// The backend the reports compare against (`"avx2+fma"`, `"sse2"`,
    /// or `"scalar"` when the host has neither).
    #[must_use]
    pub fn backend_name() -> &'static str {
        detected_kernel()
    }

    fn time_ns(repeats: usize, inner: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeats.max(1) {
            let start = Instant::now();
            for _ in 0..inner.max(1) {
                f();
            }
            best = best.min(start.elapsed().as_nanos() as f64 / inner.max(1) as f64);
        }
        best
    }

    fn compare(a: &[f64], b: &[f64]) -> (bool, f64) {
        let mut bits = true;
        let mut dev = 0.0f64;
        for (&x, &y) in a.iter().zip(b) {
            bits &= x.to_bits() == y.to_bits();
            dev = dev.max((x - y).abs() / x.abs().max(y.abs()).max(1.0));
        }
        (bits, dev)
    }

    /// Runs every kernel standalone on `alg`'s current (ideally warmed
    /// and converged) state. `repeats`/`inner` control the best-of
    /// timing loop. The returned reports always include both backends'
    /// timings; on a host without SIMD support the "simd" lane is the
    /// scalar kernel again (speedup ≈ 1).
    #[must_use]
    #[allow(clippy::too_many_lines)] // five kernels, one harness each
    pub fn run(alg: &GradientAlgorithm, repeats: usize, inner: usize) -> Vec<KernelReport> {
        let backend = detect();
        let ext = alg.extended();
        let cost = alg.cost_model();
        let routing = alg.routing();
        let state = alg.flows();
        let marginals = alg.marginals();
        let cfg = alg.config();
        let j_count = ext.num_commodities();
        let v_count = ext.graph().node_count();
        let l_count = ext.graph().edge_count();

        // Live-arc rows and gather indices, rebuilt standalone so the
        // harness does not depend on the algorithm's private tracker.
        let router_stride = ext
            .commodity_ids()
            .map(|j| ext.commodity_routers_topo(j).len())
            .max()
            .unwrap_or(0);
        let arc_stride = ext
            .commodity_ids()
            .map(|j| ext.commodity_router_arc_total(j))
            .max()
            .unwrap_or(0);
        let mut arc_len = vec![0u32; j_count * router_stride];
        let mut arcs = vec![EdgeId::from_index(0); j_count * arc_stride];
        let mut live = vec![0usize; j_count];
        for ji in 0..j_count {
            let j = CommodityId::from_index(ji);
            live[ji] = rebuild_active_row(
                ext,
                j,
                routing.row(j),
                &mut arc_len[ji * router_stride..(ji + 1) * router_stride],
                &mut arcs[ji * arc_stride..(ji + 1) * arc_stride],
            );
        }
        let heads: Vec<u32> = (0..l_count)
            .map(|l| ext.graph().target(EdgeId::from_index(l)).index() as u32)
            .collect();
        let arc_row = |ji: usize| {
            (
                &arc_len[ji * router_stride..(ji + 1) * router_stride],
                &arcs[ji * arc_stride..(ji + 1) * arc_stride],
                live[ji],
            )
        };
        let usage = state.usage_view();
        let mut out = Vec::new();

        // Marginal sweep (tolerance tier). Idempotent given fixed
        // usage/φ: every router entry is recomputed sink-upward.
        {
            let run_into = |bk: SimdBackend, d: &mut [f64]| {
                for ji in 0..j_count {
                    let j = CommodityId::from_index(ji);
                    let (lens, row, lv) = arc_row(ji);
                    super::marginal_sweep_active(
                        bk,
                        ext,
                        cost,
                        routing.row(j),
                        usage,
                        j,
                        &mut d[ji * v_count..(ji + 1) * v_count],
                        lens,
                        row,
                        lv,
                        &heads,
                    );
                }
            };
            let mut d_s = marginals.d.clone();
            let mut d_v = marginals.d.clone();
            run_into(SimdBackend::Scalar, &mut d_s);
            run_into(backend, &mut d_v);
            let (bits, dev) = compare(&d_s, &d_v);
            let scalar_ns = time_ns(repeats, inner, || {
                run_into(SimdBackend::Scalar, &mut d_s);
            });
            let simd_ns = time_ns(repeats, inner, || run_into(backend, &mut d_v));
            out.push(KernelReport {
                kernel: "marginal",
                scalar_ns,
                simd_ns,
                speedup: scalar_ns / simd_ns,
                bit_identical: bits,
                max_rel_dev: dev,
            });
        }

        // Tag sweep (bit-identical tier).
        {
            let run_into = |bk: SimdBackend, tags: &mut [bool]| {
                for ji in 0..j_count {
                    let j = CommodityId::from_index(ji);
                    let row = &mut tags[ji * v_count..(ji + 1) * v_count];
                    clear_tags_scoped(ext, j, row);
                    let (lens, arcs_row, lv) = arc_row(ji);
                    super::tag_sweep_active(
                        bk,
                        ext,
                        cost,
                        routing.row(j),
                        state.t_row(j),
                        usage,
                        marginals.row(j),
                        cfg.eta,
                        cfg.traffic_floor,
                        j,
                        row,
                        lens,
                        arcs_row,
                        lv,
                        &heads,
                    );
                }
            };
            let mut tag_s = vec![false; j_count * v_count];
            let mut tag_v = vec![false; j_count * v_count];
            run_into(SimdBackend::Scalar, &mut tag_s);
            run_into(backend, &mut tag_v);
            let bits = tag_s == tag_v;
            let scalar_ns = time_ns(repeats, inner, || {
                run_into(SimdBackend::Scalar, &mut tag_s);
            });
            let simd_ns = time_ns(repeats, inner, || run_into(backend, &mut tag_v));
            out.push(KernelReport {
                kernel: "tag",
                scalar_ns,
                simd_ns,
                speedup: scalar_ns / simd_ns,
                bit_identical: bits,
                max_rel_dev: if bits { 0.0 } else { f64::INFINITY },
            });
        }

        // Flow sweep (bit-identical tier), with per-commodity partial
        // rows as in the sparse engine.
        {
            let run_into = |bk: SimdBackend,
                            t: &mut [f64],
                            x: &mut [f64],
                            fe: &mut [f64],
                            fnode: &mut [f64]| {
                for ji in 0..j_count {
                    let j = CommodityId::from_index(ji);
                    let t_row = &mut t[ji * v_count..(ji + 1) * v_count];
                    let x_row = &mut x[ji * l_count..(ji + 1) * l_count];
                    let fe_row = &mut fe[ji * l_count..(ji + 1) * l_count];
                    let fn_row = &mut fnode[ji * v_count..(ji + 1) * v_count];
                    zero_flow_rows_scoped(ext, j, t_row, x_row, fe_row, fn_row);
                    let (lens, arcs_row, _lv) = arc_row(ji);
                    super::flow_sweep_active(
                        bk,
                        ext,
                        routing.row(j),
                        j,
                        t_row,
                        x_row,
                        fe_row,
                        fn_row,
                        lens,
                        arcs_row,
                        &heads,
                    );
                }
            };
            let (mut t_s, mut x_s) = (vec![0.0; j_count * v_count], vec![0.0; j_count * l_count]);
            let (mut fe_s, mut fn_s) = (vec![0.0; j_count * l_count], vec![0.0; j_count * v_count]);
            let (mut t_v, mut x_v) = (t_s.clone(), x_s.clone());
            let (mut fe_v, mut fn_v) = (fe_s.clone(), fn_s.clone());
            run_into(
                SimdBackend::Scalar,
                &mut t_s,
                &mut x_s,
                &mut fe_s,
                &mut fn_s,
            );
            run_into(backend, &mut t_v, &mut x_v, &mut fe_v, &mut fn_v);
            let checks = [
                compare(&t_s, &t_v),
                compare(&x_s, &x_v),
                compare(&fe_s, &fe_v),
                compare(&fn_s, &fn_v),
            ];
            let bits = checks.iter().all(|c| c.0);
            let dev = checks.iter().fold(0.0f64, |m, c| m.max(c.1));
            let scalar_ns = time_ns(repeats, inner, || {
                run_into(
                    SimdBackend::Scalar,
                    &mut t_s,
                    &mut x_s,
                    &mut fe_s,
                    &mut fn_s,
                );
            });
            let simd_ns = time_ns(repeats, inner, || {
                run_into(backend, &mut t_v, &mut x_v, &mut fe_v, &mut fn_v);
            });
            out.push(KernelReport {
                kernel: "flow",
                scalar_ns,
                simd_ns,
                speedup: scalar_ns / simd_ns,
                bit_identical: bits,
                max_rel_dev: dev,
            });

            // Totals reduction (bit-identical tier) over the scalar
            // flow partials.
            let run_reduce = |bk: SimdBackend, fe_tot: &mut [f64], fn_tot: &mut [f64]| {
                fe_tot.fill(0.0);
                fn_tot.fill(0.0);
                super::accumulate_usage_totals_scoped(
                    bk, ext, fe_tot, fn_tot, &fe_s, &fn_s, l_count, v_count, j_count,
                );
            };
            let (mut fet_s, mut fnt_s) = (vec![0.0; l_count], vec![0.0; v_count]);
            let (mut fet_v, mut fnt_v) = (vec![0.0; l_count], vec![0.0; v_count]);
            run_reduce(SimdBackend::Scalar, &mut fet_s, &mut fnt_s);
            run_reduce(backend, &mut fet_v, &mut fnt_v);
            let (b1, d1) = compare(&fet_s, &fet_v);
            let (b2, d2) = compare(&fnt_s, &fnt_v);
            let scalar_ns = time_ns(repeats, inner, || {
                run_reduce(SimdBackend::Scalar, &mut fet_s, &mut fnt_s);
            });
            let simd_ns = time_ns(repeats, inner, || {
                run_reduce(backend, &mut fet_v, &mut fnt_v);
            });
            out.push(KernelReport {
                kernel: "reduce",
                scalar_ns,
                simd_ns,
                speedup: scalar_ns / simd_ns,
                bit_identical: b1 && b2,
                max_rel_dev: d1.max(d2),
            });
        }

        // Γ fill (tolerance tier): the per-router marginal arrays the
        // routing update ranks links by.
        {
            let mut m_s: Vec<f64> = Vec::new();
            let mut m_v: Vec<f64> = Vec::new();
            let mut bits = true;
            let mut dev = 0.0f64;
            let mut scalar_pass =
                |ext2: &spn_transform::ExtendedNetwork, acc: Option<(&mut bool, &mut f64)>| {
                    let mut acc = acc;
                    for ji in 0..j_count {
                        let j = CommodityId::from_index(ji);
                        let dummy = ext2.dummy_source(j);
                        let d_row = marginals.row(j);
                        for &i in ext2.commodity_routers_topo(j) {
                            let edges = ext2.commodity_out_slice(j, i);
                            if i == dummy || edges.len() < 2 {
                                continue;
                            }
                            let tail_partial = cost.node_partial_view(ext2, usage, i);
                            m_s.clear();
                            for &l in edges {
                                let head = ext2.graph().target(l);
                                m_s.push(
                                    tail_partial * ext2.cost(j, l)
                                        + ext2.beta(j, l) * d_row[head.index()],
                                );
                            }
                            if let Some((bits, dev)) = acc.as_mut() {
                                m_v.clear();
                                let filled = super::fill_edge_marginals(
                                    backend,
                                    ext2.cost_row(j),
                                    ext2.beta_row(j),
                                    d_row,
                                    edges,
                                    tail_partial,
                                    &heads,
                                    &mut m_v,
                                );
                                if filled {
                                    let (b, d) = super::kernel_bench::compare(&m_s, &m_v);
                                    **bits &= b;
                                    **dev = dev.max(d);
                                }
                            }
                        }
                    }
                };
            scalar_pass(ext, Some((&mut bits, &mut dev)));
            let scalar_ns = time_ns(repeats, inner, || scalar_pass(ext, None));
            let mut vector_pass = || {
                for ji in 0..j_count {
                    let j = CommodityId::from_index(ji);
                    let dummy = ext.dummy_source(j);
                    let d_row = marginals.row(j);
                    for &i in ext.commodity_routers_topo(j) {
                        let edges = ext.commodity_out_slice(j, i);
                        if i == dummy || edges.len() < 2 {
                            continue;
                        }
                        let tail_partial = cost.node_partial_view(ext, usage, i);
                        super::fill_edge_marginals(
                            backend,
                            ext.cost_row(j),
                            ext.beta_row(j),
                            d_row,
                            edges,
                            tail_partial,
                            &heads,
                            &mut m_v,
                        );
                    }
                }
            };
            let simd_ns = time_ns(repeats, inner, &mut vector_pass);
            out.push(KernelReport {
                kernel: "gamma_fill",
                scalar_ns,
                simd_ns,
                speedup: scalar_ns / simd_ns,
                bit_identical: bits,
                max_rel_dev: dev,
            });
        }

        out
    }
}
