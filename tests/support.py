"""Shared fixtures-in-code: synthetic contours, shape models, and explicit-matrix oracles.

The oracle helpers here intentionally duplicate package functionality through
explicit Hilbert-Schmidt arithmetic (materialized frames, term-by-term sums)
so the fast inner-product shortcuts can be checked against them.
"""

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import contourstat as cs
from contourstat.contour import _arc_centroid, _fill, _require_finite, _signed_area
from contourstat.ingestion import MERGE_TOL
from contourstat.shape_space import _approx_rows


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
    return [cs.Preshape(row) for row in tangent_gaussian_rows(base, frame, tau, n, rng)]


def tangent_gaussian_rows(base, frame, tau, n, rng):
    """The coordinates of :func:`draw_tangent_gaussian`, one preshape per row, unvalidated."""
    d = frame.shape[1]
    zeta = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / np.sqrt(2.0)
    raw = base[None, :] + tau * (zeta @ frame.T)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


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
        g = tangent_gaussian_rows(base, frame, tau, take, rng)
        M += g.T @ g.conj()
        left -= take
    M /= ndraws
    es = cs.eigensystem(VWMatrix((M + M.conj().T) / 2.0).entries)
    return cs.preshape(es.eigenvectors[:, 0])


# ---------------------------------------------------------------------------
# explicit Hilbert-Schmidt oracles


@dataclass(frozen=True, eq=False)
class VWMatrix:
    """Hermitian trace-one k x k matrix: an embedded shape or an average of them.

    Positive semidefiniteness holds by construction for every matrix built
    here (rank-one projectors and convex combinations of them) and is
    asserted where eigenvalues are computed.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"matrix trace must be 1, got {tr!r}")
        _fill(self, entries=m)


def vw_embed(shape):
    """Veronese-Whitney embedding: the rank-one projector gamma gamma^H."""
    g = shape.coords
    return VWMatrix(np.outer(g, g.conj()))


def require_gap(eigen, gap_tol=cs.DEFAULT_GAP_TOL):
    """Raise FocalDistributionError unless the top eigenvalue is simple relative to gap_tol."""
    top = eigen.eigenvalues[0]
    if not top > 0.0 or eigen.gap / top < gap_tol:
        raise cs.FocalDistributionError("top eigenvalue is not simple")


def project_to_manifold(a, gap_tol=cs.DEFAULT_GAP_TOL):
    """Closest rank-one projector: nu nu^H for the top unit eigenvector nu of a.

    ``a`` is a Hermitian array or a :class:`VWMatrix`.
    """
    es = cs.eigensystem(a.entries if isinstance(a, VWMatrix) else a)
    require_gap(es, gap_tol)
    nu = es.eigenvectors[:, 0]
    return VWMatrix(np.outer(nu, nu.conj()))


def tangent_coordinates(v, eigen):
    """Closed-form tangent coordinates sqrt(2) e_a^H v e_1, a = 2..k, of a Hermitian v."""
    v = np.asarray(v, dtype=np.complex128)
    k = eigen.dimension
    if v.shape != (k, k):
        raise ValueError(f"expected a {k} x {k} matrix, got shape {v.shape}")
    if np.max(np.abs(v - v.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError("tangent_coordinates expects a Hermitian matrix")
    vecs = eigen.eigenvectors
    return np.sqrt(2.0) * (vecs[:, 1:].conj().T @ (v @ vecs[:, 0]))


def spectral_gap_coefficients(eigen, gap_tol=cs.DEFAULT_GAP_TOL):
    """Coefficients 1 / (l_1 - l_a), a = 2..k, of the projection differential."""
    require_gap(eigen, gap_tol)
    return 1.0 / (eigen.eigenvalues[0] - eigen.eigenvalues[1:])


def dense_extrinsic_mean(sample, gap_tol=cs.DEFAULT_GAP_TOL):
    """k x k oracle of ``extrinsic_mean``: the eigensystem of the explicit mean matrix."""
    es = cs.eigensystem(cs.mean_matrix(sample))
    require_gap(es, gap_tol)
    return cs.preshape(es.eigenvectors[:, 0]), es


def dense_resample_mean(sample, rng, gap_tol=cs.DEFAULT_GAP_TOL, max_retries=100):
    """k x k oracle of ``resample_mean``: the same draws and focal retries."""
    n = len(sample)
    for _ in range(max_retries + 1):
        idx = rng.integers(0, n, size=n)
        try:
            return dense_extrinsic_mean([sample[i] for i in idx], gap_tol)[0]
        except cs.FocalDistributionError as err:
            last = err
    raise last


def explicit_mean_matrix(gammas):
    """(1/n) sum gamma_i gamma_i^H, one outer product at a time."""
    n, k = gammas.shape
    M = np.zeros((k, k), dtype=complex)
    for g in gammas:
        M += np.outer(g, g.conj())
    return M / n


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
    lam, V = np.linalg.eigh(explicit_mean_matrix(gammas))
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


def max_edge_length(kgon):
    """Longest edge of the closed polygon, closing edge included."""
    return float(np.abs(np.roll(kgon.points, -1) - kgon.points).max())


def polygon_length(curve):
    """Total length of the closed polygon, closing edge included."""
    return float(curve.total_length)


def center_of_mass(curve):
    """Arclength-weighted mean point of the curve (uniform measure on the polygon)."""
    return _arc_centroid(curve.vertices)


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


# Moore neighborhood in clockwise screen order (rows grow downward), from west
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))


def moore_trace(mask):
    """Oracle for ``ingestion._trace_boundary``: the same Moore trace with a bounds check per probe.

    Starts at the top-most then left-most foreground pixel, entered from the
    west, and stops upon re-entering the start pixel from the same backtrack
    position (Jacob's criterion).  Returns the boundary as (row, col) pairs.
    """
    rows, cols = mask.shape
    fg_rows, fg_cols = np.nonzero(mask)
    r0 = int(fg_rows.min())
    c0 = int(fg_cols[fg_rows == r0].min())
    start = (r0, c0)
    start_back = (r0, c0 - 1)

    def fg(p):
        r, c = p
        return 0 <= r < rows and 0 <= c < cols and bool(mask[r, c])

    boundary = [start]
    cur, back = start, start_back
    for _ in range(4 * len(fg_rows) + 8):
        bi = _MOORE.index((back[0] - cur[0], back[1] - cur[1]))
        nxt = None
        for step in range(1, 9):
            d = _MOORE[(bi + step) % 8]
            cand = (cur[0] + d[0], cur[1] + d[1])
            if fg(cand):
                prev_d = _MOORE[(bi + step - 1) % 8]
                nxt = cand
                new_back = (cur[0] + prev_d[0], cur[1] + prev_d[1])
                break
        if nxt is None:
            return boundary  # isolated pixel
        cur, back = nxt, new_back
        if cur == start and back == start_back:
            return boundary
        boundary.append(cur)
    raise AssertionError("boundary tracing did not terminate")


def _flood(region, seed, steps):
    """Cells of the boolean array ``region`` reachable from ``seed`` by ``steps``."""
    seen = np.zeros_like(region, dtype=bool)
    seen[seed] = True
    stack = [seed]
    while stack:
        r, c = stack.pop()
        for dr, dc in steps:
            rr, cc = r + dr, c + dc
            if 0 <= rr < region.shape[0] and 0 <= cc < region.shape[1]:
                if region[rr, cc] and not seen[rr, cc]:
                    seen[rr, cc] = True
                    stack.append((rr, cc))
    return seen


def assert_outer_boundary_walk(mask, trace):
    """Check a boundary trace against the outer edge of the start pixel's component.

    The trace must start at the top-most then left-most foreground pixel, stay
    in that pixel's 8-connected component, step between 8-neighbours (the
    last step back to the start included), and visit every pixel of the
    component that is 4-adjacent to the background outside it (holes do not
    count).
    """
    padded = np.pad(np.asarray(mask, dtype=bool), 1)
    fg_rows, fg_cols = np.nonzero(mask)
    r0 = int(fg_rows.min())
    start = (r0, int(fg_cols[fg_rows == r0].min()))
    assert trace[0] == start
    comp = _flood(padded, (start[0] + 1, start[1] + 1), _MOORE)
    outside = _flood(~comp, (0, 0), ((0, 1), (1, 0), (0, -1), (-1, 0)))
    touches = np.zeros_like(comp)
    for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
        touches |= np.roll(outside, (dr, dc), axis=(0, 1))
    edge = {(int(r) - 1, int(c) - 1) for r, c in zip(*np.nonzero(comp & touches))}
    visited = set(trace)
    assert all(comp[r + 1, c + 1] for r, c in visited)
    assert edge <= visited
    if len(trace) > 1:
        for (r, c), (rr, cc) in zip(trace, trace[1:] + trace[:1]):
            assert max(abs(rr - r), abs(cc - c)) == 1


# ---------------------------------------------------------------------------
# approximation oracle


def interpolate_oracle(cum, vertices, s):
    """Frozen row-by-row form of ``contour._interpolate``, the reference for its bits.

    One ``searchsorted`` per row, the exact hits and the interpolated points
    gathered and scattered apart; the arguments are those of ``_interpolate``.
    """
    rows = max(len(cum), len(s))
    fracs = np.broadcast_to(cum / cum[:, -1:], (rows, cum.shape[1]))  # 0 first, 1 last
    closed = np.broadcast_to(np.concatenate((vertices, vertices[:, :1]), axis=1), fracs.shape)
    s = np.broadcast_to(s, (rows, s.shape[1]))
    idx = np.array([np.searchsorted(f, t, side="left") for f, t in zip(fracs, s)])
    out = np.empty(s.shape, dtype=np.complex128)
    exact = np.take_along_axis(fracs, idx, axis=1) == s
    out[exact] = np.take_along_axis(closed, idx, axis=1)[exact]
    r, c = np.nonzero(~exact)
    j = idx[r, c]  # s strictly inside (fracs[r, j-1], fracs[r, j])
    w = (s[r, c] - fracs[r, j - 1]) / (fracs[r, j] - fracs[r, j - 1])
    out[r, c] = closed[r, j - 1] + w * (closed[r, j] - closed[r, j - 1])
    return out


def approx_rows(curve, times):
    """``shape_space._approx_rows`` for one curve: its length errors and squared shape distances."""
    ref = (curve.cum_lengths[:-1] / curve.total_length, cs.preshape(curve.vertices).coords)
    len_errs, shape_sqs = _approx_rows([curve], np.asarray(times)[None], [ref])
    return len_errs[0], shape_sqs[0]


def approx_one(curve, k, rng):
    """Scalar oracle for one row of :func:`approx_rows`: one k-gon, the scalar chain.

    Returns (relative length error, squared shape distance) of the k-gon at
    ``select_stopping_times(k, rng)``, or at the curve's own vertex fractions
    when k equals its vertex count (no draw is made then).  Points on a
    polygon come from :func:`interpolate_oracle`.
    """
    ref_fracs = cs.StoppingTimes(curve.cum_lengths[:-1] / curve.total_length)
    ref_points = curve.vertices
    if k == len(curve):
        times = ref_fracs
    else:
        times = cs.select_stopping_times(k, rng)
    kgon = cs.Contour(
        interpolate_oracle(curve.cum_lengths[None], curve.vertices[None], times.times[None])[0]
    )
    len_err = cs.relative_length_error(curve.total_length, kgon)
    if _signed_area(kgon.points) < 0:
        # mirror both configurations: arclengths and chord distance are kept
        kgon = cs.Contour(kgon.points.conj())
        ref_points = ref_points.conj()
    param = cs.ParamCurve(kgon.points)
    # the points of evaluate(), not a Contour: a zero-area k-gon can put two
    # reference fractions on one point
    kgon_at_ref = interpolate_oracle(
        param.cum_lengths[None], param.vertices[None], ref_fracs.times[None]
    )[0]
    shape_sq = cs.chord_distance(cs.preshape(kgon_at_ref), cs.preshape(ref_points)) ** 2
    return len_err, shape_sq


# ---------------------------------------------------------------------------
# CSV oracle


def read_csv_oracle(path):
    """Frozen line loop of ``ingestion._read_csv``: a Contour, or the ParseError it raises."""
    text = path.read_text(encoding="ascii")
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise cs.ParseError(path, lineno, f"expected 'x,y', got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as err:
            raise cs.ParseError(path, lineno, f"bad coordinate in {raw!r}: {err}") from err
        if not (math.isfinite(x) and math.isfinite(y)):
            raise cs.ParseError(path, lineno, f"non-finite coordinate in {raw!r}")
        points.append(complex(x, y))
    points = np.asarray(points, dtype=np.complex128)
    try:
        _require_finite(points)
        return cs.Contour(merge_close_points_oracle(points))
    except cs.DegenerateContourError as err:
        raise cs.ParseError(path, None, str(err)) from err


def merge_close_points_oracle(points):
    """Frozen loop of ``ingestion._merge_close_points``, which now skips it when it can."""
    if len(points) == 0:
        return points
    span = math.hypot(
        float(points.real.max() - points.real.min()),
        float(points.imag.max() - points.imag.min()),
    )
    tol = MERGE_TOL * span
    kept = [points[0]]
    for z in points[1:]:
        if abs(z - kept[-1]) > tol:
            kept.append(z)
    while len(kept) > 1 and abs(kept[0] - kept[-1]) <= tol:
        kept.pop()
    return np.asarray(kept, dtype=np.complex128)


# ---------------------------------------------------------------------------
# Frechet function


def frechet_value(candidate, sample):
    """Mean squared chord distance from the candidate to the sample."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    gam = np.stack([s.coords for s in sample])
    ips = np.abs(gam @ candidate.coords.conj()) ** 2
    return float(np.mean(2.0 * (1.0 - np.minimum(1.0, ips))))


# ---------------------------------------------------------------------------
# SVG oracle


def svg_path_coords(pts):
    """SVG path coordinates with one ``f"{v:.8g}"`` per value: the reference for ``svg_render``.

    ``pts`` is an (m, 2) array of (x, y) rows, already in SVG orientation.
    """
    return " L ".join(f"{x:.8g} {y:.8g}" for x, y in pts)


def svg_document(shapes):
    """The SVG document built whole in memory: the reference for the bytes ``svg_render`` writes.

    Every shape's (x, y) rows are held and concatenated for the viewBox, and
    every line is held until the document is joined and encoded.
    """
    if not shapes:
        raise ValueError("nothing to render")
    point_sets = []
    for shape, style in shapes:
        pts = shape.coords if isinstance(shape, cs.Preshape) else np.asarray(shape, complex)
        point_sets.append((np.stack((pts.real, -pts.imag), axis=1), style))
    allpts = np.concatenate([p for p, _ in point_sets])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = hi - lo
    margin = 0.05 * max(float(span[0]), float(span[1]), 1e-30)
    origin = lo - margin
    size = span + 2 * margin
    diag = float(np.hypot(size[0], size[1]))
    base_width = 0.004 * diag
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{origin[0]:.8g} '
        f'{origin[1]:.8g} {size[0]:.8g} {size[1]:.8g}">\n',
    ]
    for pts, style in point_sets:
        coords = " L ".join(["%.8g %.8g" % (x, y) for x, y in pts.tolist()])
        lines.append(
            f'<path d="M {coords} Z" fill="none" stroke="{_escaped(style.stroke)}" '
            f'stroke-width="{style.width * base_width:.8g}" '
            f'stroke-opacity="{style.opacity:.8g}"/>\n'
        )
    lines.append("</svg>\n")
    return "".join(lines).encode("utf-8")


def _escaped(stroke):
    """A stroke as a double-quoted XML attribute value: only &, <, > and " replaced."""
    text = str(stroke)
    for char, entity in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")):
        text = text.replace(char, entity)
    return text


# ---------------------------------------------------------------------------
# CSV writer references: each result file's text, built whole


def contour_csv(contour):
    """The text ``write_contour`` writes: one ``x,y`` line per vertex, 17 significant digits."""
    lines = [f"{z.real:.17g},{z.imag:.17g}" for z in contour.points]
    return "\n".join(lines) + "\n"


def bootstrap_summary_csv(B, alpha, region):
    """The text of ``bootstrap_summary.csv`` for a region drawn with ``--B`` and ``--alpha``."""
    lines = [
        f"# B={B} alpha={alpha:.10g} radius={region.radius:.17g}",
        "resample,distance,included",
    ]
    for i, (d, inc) in enumerate(zip(region.distances, region.included)):
        lines.append(f"{i},{d:.17g},{int(inc)}")
    return "\n".join(lines) + "\n"


def approx_report_csv(k_grid, len_errs, shape_sqs):
    """The text of ``approx_report.csv`` for the arrays ``approximation_errors`` returns."""
    rows = [
        (k, float(np.mean(le)), float(np.std(le)), float(np.mean(sq)), float(np.std(sq)))
        for k, le, sq in zip(k_grid, len_errs, shape_sqs)
    ]
    header = "k,mean_rel_len_err,sd_rel_len_err,mean_sq_shape_dist,sd_sq_shape_dist"
    body = "\n".join(
        f"{k},{m1:.10g},{s1:.10g},{m2:.10g},{s2:.10g}" for k, m1, s1, m2, s2 in rows
    )
    return header + "\n" + body + "\n"


# ---------------------------------------------------------------------------
# the unchecked constructor against the public ones


def checked_fill(fill):
    """Wrap ``contour._fill`` so that each value it builds unchecked is also built checked.

    A value type handed to the wrapper gets the same init fields through its
    public constructor too, which must accept them and derive bit-equal
    fields; an instance (a public constructor filling itself) passes
    through.  A disagreement raises AssertionError, which no command turns
    into an exit code.
    """

    def checked(value, **fields):
        made = fill(value, **fields)
        if isinstance(value, type):
            init = {f.name: fields[f.name] for f in dataclasses.fields(value) if f.init}
            try:
                public = value(**init)
            except Exception as err:
                raise AssertionError(
                    f"the public {value.__name__} rejects a value built unchecked: {err!r}"
                ) from err
            for f in dataclasses.fields(value):
                got, want = getattr(made, f.name), getattr(public, f.name)
                assert type(got) is type(want) and _bits(got) == _bits(want), (
                    f"{value.__name__}.{f.name} built unchecked differs from its public constructor's"
                )
        return made

    return checked


def _bits(value):
    arr = np.asarray(value)
    return arr.dtype, arr.shape, arr.tobytes()


def assert_frozen_and_unaliased(value, *inputs):
    """Every array field of a value is read-only and shares no memory with the input arrays."""
    for f in dataclasses.fields(value):
        field = getattr(value, f.name)
        if isinstance(field, np.ndarray):
            assert not field.flags.writeable, f.name
            assert not any(np.shares_memory(field, arr) for arr in inputs), f.name


@pytest.fixture
def public_constructors_agree(monkeypatch):
    """Check every value the library builds unchecked against its public constructor.

    Wraps ``_fill`` with :func:`checked_fill` in every contourstat module
    that binds it.
    """
    checked = checked_fill(_fill)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "contourstat" and getattr(module, "_fill", None) is _fill:
            monkeypatch.setattr(module, "_fill", checked)
