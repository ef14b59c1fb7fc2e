"""Shared fixtures-in-code: synthetic contours, shape models, and explicit-matrix oracles.

The oracle helpers here intentionally duplicate package functionality through
explicit Hilbert-Schmidt arithmetic (materialized frames, term-by-term sums)
so the fast inner-product shortcuts can be checked against them.
"""

import numpy as np

import contourstat as cs
from contourstat.contour import _signed_area


def wobbly_points(K=400, amp3=0.25, amp7=0.1, phase=0.0):
    """Smooth star-free closed curve sampled at K vertices; unique farthest vertex."""
    theta = np.linspace(0.0, 2.0 * np.pi, K, endpoint=False)
    r = 1.0 + amp3 * np.cos(3 * theta + phase) + amp7 * np.sin(7 * theta)
    return r * np.exp(1j * theta)


def wobbly_contour(K=400, **kw):
    return cs.Contour(wobbly_points(K, **kw))


def random_preshape(k, rng):
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return cs.preshape(v)


def centered_basis(base):
    """Orthonormal basis of (centered subspace) intersect base-perp, as columns."""
    k = len(base)
    ones = np.ones(k) / np.sqrt(k)
    M = np.column_stack([ones, base, np.eye(k, dtype=complex)])
    Q, _ = np.linalg.qr(M)
    return Q[:, 2:k]


def draw_tangent_gaussian(base, frame, tau, n, rng):
    """n draws from the circular tangent-Gaussian shape model around [base].

    Coordinates along the frame are i.i.d. proper complex normal scaled by
    tau; the uniform independent phases make the population VW mean exactly
    [base] and the tangential pseudo-covariance zero.
    """
    d = frame.shape[1]
    zeta = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / np.sqrt(2.0)
    raw = base[None, :] + tau * (zeta @ frame.T)
    raw = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return [cs.Preshape(row) for row in raw]


def model_base(k, seed=99):
    rng = np.random.default_rng(seed)
    pts = np.exp(2j * np.pi * np.arange(k) / k) * (1.0 + 0.3 * rng.standard_normal(k))
    return cs.preshape(pts).coords


def estimate_population_mean(base, frame, tau, ndraws, seed):
    """VW mean direction of the model, estimated from a large sample."""
    k = len(base)
    M = np.zeros((k, k), dtype=complex)
    rng = np.random.default_rng(seed)
    left = ndraws
    while left > 0:
        take = min(100_000, left)
        g = np.stack([p.coords for p in draw_tangent_gaussian(base, frame, tau, take, rng)])
        M += g.T @ g.conj()
        left -= take
    M /= ndraws
    es = cs.eigensystem(cs.VWMatrix((M + M.conj().T) / 2.0))
    return cs.preshape(es.eigenvectors[:, 0])


# ---------------------------------------------------------------------------
# explicit Hilbert-Schmidt oracles


def embed(coords):
    return np.outer(coords, coords.conj())


def hs_inner_real(A, B):
    return float(np.real(np.trace(A.conj().T @ B)))


def frame_matrices(V, a):
    """Orthonormal tangent pair (F_a, G_a) at the projector of V[:, 0]."""
    e1 = V[:, 0]
    ea = V[:, a]
    F = (np.outer(ea, e1.conj()) + np.outer(e1, ea.conj())) / np.sqrt(2.0)
    G = 1j * (np.outer(ea, e1.conj()) - np.outer(e1, ea.conj())) / np.sqrt(2.0)
    return F, G


def tangent_coordinates_oracle(v, V):
    """Complex frame coefficients of Hermitian v via explicit projections."""
    k = V.shape[0]
    out = np.empty(k - 1, dtype=complex)
    for a in range(1, k):
        F, G = frame_matrices(V, a)
        out[a - 1] = hs_inner_real(F, v) + 1j * hs_inner_real(G, v)
    return out


def fused_studentized_variance(gammas, m0_coords):
    """From-scratch s_n^2: explicit mean matrix, frames, and a term-by-term sum.

    Independent of the package pipeline except for the eigensolver itself
    (raw numpy eigh, no phase convention); the result is phase-invariant.
    """
    n, k = gammas.shape
    M = np.zeros((k, k), dtype=complex)
    for g in gammas:
        M += np.outer(g, g.conj())
    M /= n
    lam, V = np.linalg.eigh(M)
    lam = lam[::-1]
    V = V[:, ::-1]
    D = embed(m0_coords) - embed(V[:, 0])
    nu = tangent_coordinates_oracle(D, V)
    total = 0.0 + 0.0j
    for a in range(1, k):
        ga = lam[0] - lam[a]
        for b in range(1, k):
            gb = lam[0] - lam[b]
            acc = 0.0 + 0.0j
            for g in gammas:
                acc += (
                    (V[:, a].conj() @ g)
                    * np.conj(V[:, b].conj() @ g)
                    * abs(V[:, 0].conj() @ g) ** 2
                )
            total += np.conj(nu[a - 1]) * (acc / (n * ga * gb)) * nu[b - 1]
    return 4.0 * total.real


# ---------------------------------------------------------------------------
# geometry and mask oracles


def is_simple(contour):
    """O(m^2) check that no two non-adjacent edges of the closed polygon intersect."""
    pts = contour.points
    m = len(pts)
    for i in range(m):
        a0, a1 = pts[i], pts[(i + 1) % m]
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            if _segments_intersect(a0, a1, pts[j], pts[(j + 1) % m]):
                return False
    return True


def _cross(o, a, b):
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _segments_intersect(p0, p1, q0, q1):
    d1 = _cross(q0, q1, p0)
    d2 = _cross(q0, q1, p1)
    d3 = _cross(p0, p1, q0)
    d4 = _cross(p0, p1, q1)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    # collinear touches count as intersections
    for d, (s0, s1, p) in (
        (d1, (q0, q1, p0)),
        (d2, (q0, q1, p1)),
        (d3, (p0, p1, q0)),
        (d4, (p0, p1, q1)),
    ):
        if d == 0 and _on_segment(s0, s1, p):
            return True
    return False


def _on_segment(s0, s1, p):
    return (
        min(s0.real, s1.real) <= p.real <= max(s0.real, s1.real)
        and min(s0.imag, s1.imag) <= p.imag <= max(s0.imag, s1.imag)
    )


def flood_fill_components(mask):
    """Number of 8-connected foreground components, by an explicit-stack flood fill."""
    seen = np.zeros_like(mask, dtype=bool)
    rows, cols = mask.shape
    count = 0
    for r0, c0 in zip(*np.nonzero(mask)):
        if seen[r0, c0]:
            continue
        count += 1
        stack = [(int(r0), int(c0))]
        seen[r0, c0] = True
        while stack:
            r, c = stack.pop()
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
    return count


# ---------------------------------------------------------------------------
# approximation oracle


def approx_one(curve, k, rng):
    """Scalar oracle for one row of ``cli._approx_rows``: one k-gon through the public chain.

    Returns (relative length error, squared shape distance) of the k-gon at
    ``select_stopping_times(k, rng)``, or at the curve's own vertex fractions
    when k equals its vertex count (no draw is made then).
    """
    ref_fracs = cs.StoppingTimes(curve.cum_lengths[:-1] / curve.total_length)
    ref_points = curve.vertices
    if k == len(curve):
        times = ref_fracs
    else:
        times = cs.select_stopping_times(k, rng)
    kgon = cs.evaluate(curve, times)
    len_err = cs.relative_length_error(curve.total_length, kgon)
    if _signed_area(kgon.points) < 0:
        # mirror both configurations: arclengths and chord distance are kept
        kgon = cs.Contour(kgon.points.conj())
        ref_points = ref_points.conj()
    kgon_at_ref = cs.evaluate(cs.ParamCurve.from_vertices(kgon), ref_fracs)
    shape_sq = cs.chord_distance(cs.preshape(kgon_at_ref), cs.preshape(ref_points)) ** 2
    return len_err, shape_sq
