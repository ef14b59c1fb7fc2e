import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import contourstat as cs
from contourstat import ingestion
from contourstat.cli import main
from contourstat.contour import _signed_area
from contourstat.ingestion import _count_components, _read_pgm
from support import (  # noqa: F401 (public_constructors_agree is a fixture)
    assert_outer_boundary_walk,
    bordered,
    flood_fill_components,
    moore_trace,
    public_constructors_agree,
    read_csv_oracle,
    trace_pixels,
    wobbly_points,
)


def write_pgm_p5(path, values, maxval=255):
    h, w = values.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    path.write_bytes(header + values.astype(np.uint8).tobytes())


def write_pgm_p2(path, values, maxval=255):
    h, w = values.shape
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in values)
    path.write_text(f"P2\n# comment line\n{w} {h}\n{maxval}\n{rows}\n", encoding="ascii")


def blob_mask(seed, size=48):
    """Star-shaped blob with a smooth wobbly radius; single 8-connected component."""
    rng = np.random.default_rng(seed)
    cy, cx = rng.uniform(size * 0.4, size * 0.6, 2)
    r0 = rng.uniform(size * 0.18, size * 0.28)
    phases = rng.uniform(0, 2 * np.pi, 3)
    amps = rng.uniform(0.02, 0.08, 3) * r0
    yy, xx = np.mgrid[0:size, 0:size]
    ang = np.arctan2(yy - cy, xx - cx)
    r = r0 + sum(a * np.cos((m + 1) * ang + p) for m, (a, p) in enumerate(zip(amps, phases)))
    return np.hypot(yy - cy, xx - cx) <= r


def serpentine(n):
    """Vertical bars of width 1 on the even columns, joined alternately at the top and bottom."""
    mask = np.zeros((n, n), dtype=bool)
    mask[:, ::2] = True
    mask[0, 1::4] = True
    mask[-1, 3::4] = True
    return mask


def spiral(n):
    """Square spiral of width 1, one background pixel between its turns."""
    mask = np.zeros((n, n), dtype=bool)
    r = c = 0
    mask[r, c] = True
    # legs of n - 1 three times, then n - 3 twice, n - 5 twice, ...
    lengths = [n - 1] + [m for m in range(n - 1, 0, -2) for _ in (0, 1)]
    for i, length in enumerate(lengths):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(length):
            r, c = r + dr, c + dc
            mask[r, c] = True
    return mask


def comb(n):
    """A spine along the top row with teeth of width 1 on the even columns."""
    mask = np.zeros((n, n), dtype=bool)
    mask[0] = True
    mask[:, ::2] = True
    return mask


def checkerboard(n, block):
    cells = np.arange(n) // block
    return (cells[:, None] + cells[None, :]) % 2 == 0


def corner_blobs(gap):
    """Two 4x4 squares whose nearest corners are diagonal neighbours (gap 0) or further apart."""
    mask = np.zeros((12 + gap, 12 + gap), dtype=bool)
    mask[2:6, 2:6] = True
    mask[6 + gap : 10 + gap, 6 + gap : 10 + gap] = True
    return mask


def width_one_t():
    """A 9x9 T of width 1: the start pixel is the west tip of its bar."""
    mask = np.zeros((9, 9), dtype=bool)
    mask[1, 1:8] = True
    mask[1:8, 4] = True
    return mask


def disk_with_diagonal_spur():
    """A disk with a one-pixel-wide spur running up-left from it to the start pixel."""
    rr, cc = np.mgrid[0:30, 0:30]
    mask = (rr - 17) ** 2 + (cc - 17) ** 2 <= 64
    for i in range(7):
        mask[11 - i, 11 - i] = True
    return mask


def left_comb():
    """A spine on the right with teeth of width 1 pointing left; the top tooth's tip starts."""
    mask = np.zeros((21, 12), dtype=bool)
    mask[1:20, 8:11] = True
    mask[1:20:2, 1:8] = True
    return mask


SPUR_MASKS = [width_one_t(), disk_with_diagonal_spur(), left_comb()]


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_points_pinned(mask, directory):
    """``read_contour`` of ``mask`` as P5 and as P2 gives the bits of a per-pixel reference.

    The reference is the traced pixels (r, c) as ``complex(c, height - 1 - r)``,
    all but the first reversed when their signed area is negative.
    """
    height = mask.shape[0]
    expected = np.array([complex(c, height - 1 - r) for r, c in trace_pixels(mask)])
    if _signed_area(expected) < 0:
        expected = np.concatenate((expected[:1], expected[1:][::-1]))
    write_pgm_p5(directory / "m5.pgm", mask.astype(np.uint8) * 255)
    write_pgm_p2(directory / "m2.pgm", mask.astype(np.uint8) * 255)
    for name in ("m5.pgm", "m2.pgm"):
        try:
            points = cs.read_contour(directory / name).points
        except cs.ParseError:  # a degenerate trace, such as a line: no contour either way
            with pytest.raises(cs.DegenerateContourError):
                cs.Contour(expected)
        else:
            assert points.tobytes() == expected.tobytes()


def assert_same_trace(mask):
    trace = trace_pixels(mask)
    try:
        expected = moore_trace(mask)
    except AssertionError:
        # Jacob's criterion never closes the trace (the start pixel is the
        # tip of a width-1 spur); the second stop must close it
        assert_outer_boundary_walk(mask, trace)
    else:
        assert trace == expected


class TestReadCsv:
    def test_four_point_contour(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("1,0\n0,1\n-1,0\n0,-1\n")
        c = cs.read_contour(f)
        assert np.array_equal(c.points, [1, 1j, -1, -1j])

    def test_duplicate_closing_point_dropped(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("0,0\n1,0\n1,1\n0,1\n0,0\n")
        assert len(cs.read_contour(f)) == 4

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("1,0\n0,1\nnope\n0,-1\n")
        with pytest.raises(cs.ParseError, match=r":3"):
            cs.read_contour(f)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("1,0\n0,1,2\n-1,0\n")
        with pytest.raises(cs.ParseError, match=r":2"):
            cs.read_contour(f)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_reports_file_and_line(self, tmp_path, bad):
        f = tmp_path / "c.csv"
        f.write_text(f"1,0\n0,1\n-1,{bad}\n0,-1\n")
        with pytest.raises(cs.ParseError, match=r"c\.csv:3: non-finite"):
            cs.read_contour(f)

    def test_too_few_distinct_points(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("0,0\n1,1\n")
        with pytest.raises(cs.ParseError):
            cs.read_contour(f)

    def test_near_duplicate_closing_point_dropped(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("0,0\n1,0\n1,1\n0,1\n1e-15,0\n")
        assert np.array_equal(cs.read_contour(f).points, [0, 1, 1 + 1j, 1j])

    def test_near_duplicate_points_merged(self, tmp_path):
        f = tmp_path / "c.csv"
        eps = 1e-15
        f.write_text(f"0,0\n{eps},0\n1,0\n1,1\n0,1\n")
        assert len(cs.read_contour(f)) == 4


    @pytest.mark.parametrize("text", ["", "\n  \n\r\n\t\n"], ids=["empty", "blank-only"])
    def test_no_points(self, tmp_path, text):
        f = tmp_path / "c.csv"
        f.write_text(text)
        with pytest.raises(cs.ParseError, match=r"c\.csv: contour needs >= 3 points, got 0$"):
            cs.read_contour(f)

    def test_large_csv_peak_memory_under_four_times_its_size(self, tmp_path):
        # 200,000 lines: converting them all at once peaked at 9 times the file
        # size, the line loop before that at 4.4 times
        theta = np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False)
        pts = 3.7 * (1 + 0.25 * np.cos(3 * theta)) * np.exp(1j * theta) + (1.5 - 2.25j)
        f = tmp_path / "big.csv"
        f.write_text("".join(f"{z.real:.16g},{z.imag:.16g}\n" for z in pts), encoding="ascii")
        tracemalloc.start()
        try:
            contour = cs.read_contour(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(contour) == len(pts)
        assert peak < 4 * f.stat().st_size, (peak, f.stat().st_size)


def csv_case(rng):
    """A CSV contour's bytes: blank lines, spaces, CRLF, closing and close points, maybe a bad line."""
    scale = 10.0 ** rng.integers(-3, 4)
    pts = (wobbly_points(int(rng.integers(3, 12)), phase=rng.uniform(0, 6)) * scale).tolist()
    diag = 2.0 * max(abs(z) for z in pts)  # about the bounding-box diagonal
    for _ in range(rng.integers(0, 3)):  # runs of points closer than MERGE_TOL * diagonal
        i = int(rng.integers(len(pts)))
        near = pts[i] + rng.uniform(-0.4, 0.4) * ingestion.MERGE_TOL * diag
        pts[i + 1 : i + 1] = [near] * int(rng.integers(1, 4))
    closing = rng.choice(["none", "exact", "near", "far"])
    if closing != "none":
        scale = {"exact": 0.0, "near": 0.3, "far": 3.0}[closing] * ingestion.MERGE_TOL * diag
        pts.append(pts[0] + scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    if rng.uniform() < 0.1:  # too few points
        pts = pts[: rng.integers(0, 3)]

    def pad():
        return " " * int(rng.integers(3))

    lines = [f"{pad()}{z.real!r}{pad()},{pad()}{z.imag!r}\t" for z in pts]
    for _ in range(rng.integers(0, 3)):
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "  ", "\t"]))
    if rng.uniform() < 0.6:
        bad = rng.choice(["1_0,2", "nan,1", "1,inf", "-inf,0", "abc,1", ",1", "5", "1,2,3", "1;2"])
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
    return (rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])).encode()


def read_outcome(read, path):
    """The points a reader returns, as bytes, or the text and line of its ParseError."""
    try:
        return read(path).points.tobytes()
    except cs.ParseError as err:
        return str(err), err.line


class TestReadCsvOracle:
    """The one-pass CSV reader agrees with the frozen line loop of ``support.read_csv_oracle``."""

    def test_same_points_or_same_error(self, tmp_path):
        f = tmp_path / "c.csv"
        outcomes = set()
        for seed in range(600):
            f.write_bytes(csv_case(np.random.default_rng(seed)))
            try:
                want = read_csv_oracle(f)
            except cs.ParseError as err:
                with pytest.raises(cs.ParseError) as got:
                    cs.read_contour(f)
                assert (str(got.value), got.value.line) == (str(err), err.line), seed
                outcomes.add("line error" if err.line else "file error")
            else:
                got = cs.read_contour(f)
                assert got.points.tobytes() == want.points.tobytes(), seed
                rows = [line for line in f.read_text().splitlines() if line.strip()]
                outcomes.add("merged" if len(want) < len(rows) else "points")
        assert outcomes == {"points", "merged", "line error", "file error"}

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_conversion_keeps_points_and_errors(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingestion, "_CHUNK", chunk)
        f = tmp_path / "c.csv"
        for seed in range(200):
            f.write_bytes(csv_case(np.random.default_rng(seed)))
            assert read_outcome(cs.read_contour, f) == read_outcome(read_csv_oracle, f), seed


class TestWriteContour:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal(300) * 10 + 1j * rng.standard_normal(300)
        original = cs.Contour(pts)
        f = tmp_path / "out.csv"
        cs.write_contour(original, f)
        again = cs.read_contour(f)
        assert np.array_equal(again.points, original.points)

    def test_round_trip_property_random_contours(self, tmp_path):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(-1e3, 1e3, 40) + 1j * rng.uniform(-1e3, 1e3, 40)
            original = cs.Contour(pts)
            f = tmp_path / f"c{seed}.csv"
            cs.write_contour(original, f)
            assert np.array_equal(cs.read_contour(f).points, original.points)

    def test_decimal_point_always_dot(self, tmp_path):
        f = tmp_path / "out.csv"
        cs.write_contour(cs.Contour([0.5 + 0.25j, 1.5 + 0j, 0.75 + 1j]), f)
        text = f.read_text()
        assert re.fullmatch(r"(-?[\d.e+-]+,-?[\d.e+-]+\n)+", text)
        assert ";" not in text

    def test_only_contours_accepted(self, tmp_path):
        with pytest.raises(TypeError):
            cs.write_contour([1, 2, 3], tmp_path / "out.csv")


class TestReadMask:
    def test_3x3_all_foreground_border_pixels_in_order(self, tmp_path):
        f = tmp_path / "m.pgm"
        write_pgm_p5(f, np.ones((3, 3), dtype=np.uint8) * 7)
        c = cs.read_contour(f)
        # hand enumeration of the Moore trace from pixel (row 0, col 0), entered
        # from the west, then normalized counterclockwise (y grows upward)
        expected = [0 + 2j, 0 + 1j, 0 + 0j, 1 + 0j, 2 + 0j, 2 + 1j, 2 + 2j, 1 + 2j]
        assert np.array_equal(c.points, expected)

    def test_p2_and_p5_agree(self, tmp_path):
        mask = blob_mask(3).astype(np.uint8) * 255
        f5 = tmp_path / "a.pgm"
        f2 = tmp_path / "b.pgm"
        write_pgm_p5(f5, mask)
        write_pgm_p2(f2, mask)
        assert np.array_equal(cs.read_contour(f5).points, cs.read_contour(f2).points)

    def test_two_blobs_error_names_count(self, tmp_path):
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[2:6, 2:6] = 1
        mask[12:16, 12:16] = 1
        f = tmp_path / "m.pgm"
        write_pgm_p5(f, mask)
        with pytest.raises(cs.ParseError, match="2"):
            cs.read_contour(f)

    def test_empty_mask_rejected(self, tmp_path):
        f = tmp_path / "m.pgm"
        write_pgm_p5(f, np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(cs.ParseError, match="no foreground"):
            cs.read_contour(f)

    def test_malformed_header(self, tmp_path):
        f = tmp_path / "m.pgm"
        f.write_bytes(b"P7\n3 3\n255\n" + bytes(9))
        with pytest.raises(cs.ParseError):
            cs.read_contour(f)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"P5\n3 3\n# no newline", "m.pgm:3: unexpected end of file in PGM header"),
            (b"P5 # comment\n\n", "m.pgm:3: unexpected end of file in PGM header"),
            (b"P5\n12#3 3\n255\n", "m.pgm:2: bad PGM width: b'12#3'"),
            (b"P5\r3\r3\rmax\r", "m.pgm:1: bad PGM maxval: b'max'"),
            (b"P5\n#a\n#b\n3 0\n", "m.pgm:4: PGM height must be positive, got 0"),
        ],
        ids=["comment-at-eof", "blank-after-comment", "hash-inside-width", "cr-lines", "comments"],
    )
    def test_header_error_names_its_line(self, tmp_path, header, message):
        f = tmp_path / "m.pgm"
        f.write_bytes(header)
        with pytest.raises(cs.ParseError) as info:
            _read_pgm(f)
        assert str(info.value) == f"{tmp_path}/{message}"

    @pytest.mark.parametrize("sep", [b"\r", b"\t", b"\x0b", b"\x0c", b" #x\n"])
    def test_header_separators(self, tmp_path, sep):
        raster = bytes([0, 1, 0, 1, 1, 1, 0, 1, 0])
        f = tmp_path / "m.pgm"
        # one whitespace byte ends the header: the separator's last
        f.write_bytes(sep.join([b"P5", b"3", b"3", b"255"]) + sep[-1:] + raster)
        assert np.array_equal(_read_pgm(f), bordered(np.frombuffer(raster, np.uint8).reshape(3, 3)))

    def test_truncated_raster(self, tmp_path):
        f = tmp_path / "m.pgm"
        f.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(cs.ParseError, match="truncated"):
            cs.read_contour(f)

    @pytest.mark.parametrize(
        "data, counts",
        [
            (b"P5\n4 4\n255\n" + bytes(7), "have 7 bytes, need 16"),
            (b"P5\n4 4\n255\n" + bytes(15), "have 15 bytes, need 16"),
            (b"P5\n2 3\n65535\n" + bytes(11), "have 11 bytes, need 12"),
            (b"P5\n4 4\n255\n", "have 0 bytes, need 16"),
            (b"P5\n4 4\n255", "have 0 bytes, need 16"),
        ],
        ids=["short", "one-short", "16-bit", "empty", "no-whitespace-byte"],
    )
    def test_truncated_raster_names_byte_counts(self, tmp_path, data, counts):
        f = tmp_path / "m.pgm"
        f.write_bytes(data)
        with pytest.raises(cs.ParseError) as info:
            _read_pgm(f)
        assert str(info.value) == f"{f}: P5 raster truncated: {counts}"

    def test_counterclockwise_after_normalization(self, tmp_path):
        f = tmp_path / "m.pgm"
        write_pgm_p5(f, blob_mask(11).astype(np.uint8))
        pts = cs.read_contour(f).points
        nxt = np.roll(pts, -1)
        assert 0.5 * np.sum(np.imag(np.conj(pts) * nxt)) > 0

    def test_trace_is_simple_closed_pixel_path_on_random_blobs(self, tmp_path):
        for seed in range(100):
            f = tmp_path / f"blob{seed}.pgm"
            write_pgm_p5(f, blob_mask(seed).astype(np.uint8))
            pts = cs.read_contour(f).points
            assert len(np.unique(pts)) == len(pts)  # no repeated pixel
            assert pts[0] != pts[-1]  # closure implicit, not duplicated


class TestReadP2:
    def test_comment_inside_raster(self, tmp_path):
        mask = blob_mask(5).astype(np.uint8) * 255
        rows = [" ".join(str(int(v)) for v in row) for row in mask]
        rows.insert(10, "# a comment between rows 9 and 10")
        rows[20] += "  # a comment after row 19"
        f2 = tmp_path / "c.pgm"
        f2.write_text(f"P2\n{mask.shape[1]} {mask.shape[0]}\n255\n" + "\n".join(rows) + "\n")
        f5 = tmp_path / "twin.pgm"
        write_pgm_p5(f5, mask)
        assert np.array_equal(cs.read_contour(f2).points, cs.read_contour(f5).points)

    def test_bad_token_names_token_and_line(self, tmp_path):
        f = tmp_path / "m.pgm"
        f.write_text("P2\n3 3\n255\n0 0 0\n# comment\n0 x7 0\n0 0 0\n")
        with pytest.raises(cs.ParseError, match=r"m\.pgm:6: bad P2 sample: b'x7'"):
            cs.read_contour(f)

    def test_truncated_raster_names_counts(self, tmp_path):
        f = tmp_path / "m.pgm"
        f.write_text("P2\n3 3\n255\n0 0 0\n0 255\n")
        with pytest.raises(cs.ParseError, match="P2 raster truncated: have 5 samples, need 9"):
            cs.read_contour(f)

    @pytest.mark.parametrize("sample", ["-1", "256", "70000", "99999999999999999999999"])
    def test_out_of_range_sample_names_value_and_line(self, tmp_path, sample):
        f = tmp_path / "m.pgm"
        f.write_text(f"P2\n3 3\n255\n0 0 0\n0 {sample} 0\n0 0 0\n")
        with pytest.raises(cs.ParseError, match=rf"m\.pgm:5: P2 sample {sample} outside 0\.\.255"):
            cs.read_contour(f)

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8))),
        st.lists(st.sampled_from([" ", "\t", "\n", "  ", "\n# note\n", " #x\n"]), min_size=64),
    )
    def test_p2_reads_as_its_p5_twin(self, tmp_path_factory, values, separators):
        d = tmp_path_factory.mktemp("p2")
        write_pgm_p5(d / "twin.pgm", values)
        tokens = [str(v) for v in values.ravel()]
        raster = "".join(t + separators[i % len(separators)] for i, t in enumerate(tokens))
        h, w = values.shape
        (d / "m.pgm").write_text(f"P2\n{w} {h}\n255\n{raster}")
        assert np.array_equal(_read_pgm(d / "m.pgm"), _read_pgm(d / "twin.pgm"))

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunked_conversion_keeps_samples_and_errors(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingestion, "_CHUNK", chunk)
        mask = blob_mask(6).astype(np.uint8) * 255
        write_pgm_p2(tmp_path / "c.pgm", mask)
        write_pgm_p5(tmp_path / "twin.pgm", mask)
        assert np.array_equal(_read_pgm(tmp_path / "c.pgm"), _read_pgm(tmp_path / "twin.pgm"))
        f = tmp_path / "m.pgm"
        rows = ["0 0 0 0"] * 5 + ["0 0 x7 0"] + ["0 0 0 0"] * 2
        f.write_text("P2\n4 8\n255\n" + "\n# note\n".join(rows) + "\n")
        with pytest.raises(cs.ParseError, match=r"m\.pgm:14: bad P2 sample: b'x7'"):
            _read_pgm(f)
        # counted before judged: a short raster is truncated, whatever it holds
        f.write_text("P2\n4 8\n255\n" + "\n".join(rows[:7]) + "\n")
        with pytest.raises(cs.ParseError, match="P2 raster truncated: have 28 samples, need 32"):
            _read_pgm(f)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_plain_and_signed_chunks_in_one_file(self, tmp_path, monkeypatch, chunk):
        # a chunk of digits and whitespace is parsed in one call, and a blank
        # one holds no sample; a chunk that holds a '+255' is declined and
        # converted token by token
        monkeypatch.setattr(ingestion, "_CHUNK", chunk)
        parsed, fromstring = [], np.fromstring

        def spy(text, *args, **kwargs):
            parsed.append(text)
            return fromstring(text, *args, **kwargs)

        monkeypatch.setattr(ingestion.np, "fromstring", spy)
        mask = blob_mask(7).astype(np.uint8) * 255
        rows = [" ".join(str(int(v)) for v in row) for row in mask]
        rows[::3] = [row.replace("255", "+255") for row in rows[::3]]
        rows[1::3] = [row.replace(" ", " \t") for row in rows[1::3]]
        raster = "\r\n\x0b\x0c".join(rows) + "\n"
        assert "+255" in raster
        (tmp_path / "m.pgm").write_text(f"P2\n{mask.shape[1]} {mask.shape[0]}\n255\n{raster}")
        write_pgm_p5(tmp_path / "twin.pgm", mask)
        assert np.array_equal(_read_pgm(tmp_path / "m.pgm"), _read_pgm(tmp_path / "twin.pgm"))
        assert parsed and not any(b"+" in text for text in parsed)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_large_p2_peak_memory_near_its_p5_twin(self, tmp_path):
        yy, xx = np.mgrid[0:1500, 0:1500]
        mask = ((xx - 750) / 600.0) ** 2 + ((yy - 750) / 400.0) ** 2 <= 1.0
        write_pgm_p5(tmp_path / "m5.pgm", mask.astype(np.uint8) * 255)
        rows = "\n".join(" ".join(map(str, row)) for row in (mask * 255).tolist())
        (tmp_path / "m2.pgm").write_text(f"P2\n1500 1500\n255\n{rows}\n", encoding="ascii")
        child = (
            "import sys, contourstat\n"
            "contourstat.read_contour(sys.argv[1])\n"
            "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
        )
        env = dict(os.environ)
        src = str(Path(cs.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        peak_kb = {}
        for name in ("m2.pgm", "m5.pgm"):
            proc = subprocess.run(
                [sys.executable, "-c", child, str(tmp_path / name)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            peak_kb[name] = int(proc.stdout.split()[-1])
        assert peak_kb["m2.pgm"] - peak_kb["m5.pgm"] <= 15 * 1024, peak_kb

    def test_header_larger_than_the_file_is_truncated_not_allocated(self, tmp_path, capsys):
        f = tmp_path / "m.pgm"
        f.write_bytes(b"P2\n3000000000 128\n255\n0\n")
        assert len(f.read_bytes()) == 24
        man = tmp_path / "s.manifest"
        man.write_text("contour m m.pgm\n")
        assert main(["plot", "--manifest", str(man), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "P2 raster truncated: have 1 samples, need 384000000000" in err

    @pytest.mark.parametrize("sample", ["-1", "70000"])
    def test_out_of_range_sample_exits_two(self, tmp_path, capsys, sample):
        f = tmp_path / "m.pgm"
        f.write_text(f"P2\n3 3\n255\n0 0 0\n0 {sample} 0\n0 0 0\n")
        man = tmp_path / "s.manifest"
        man.write_text("contour m m.pgm\n")
        assert main(["plot", "--manifest", str(man), "--out", str(tmp_path / "out")]) == 2
        assert "m.pgm:5: P2 sample" in capsys.readouterr().err


class TestMaskComponents:
    def test_16_bit_p5_matches_8_bit_twin(self, tmp_path):
        mask = blob_mask(8)
        rng = np.random.default_rng(8)
        wide = np.where(mask, rng.integers(1, 65536, mask.shape), 0).astype(">u2")
        f16 = tmp_path / "wide.pgm"
        f16.write_bytes(f"P5\n{mask.shape[1]} {mask.shape[0]}\n65535\n".encode() + wide.tobytes())
        f8 = tmp_path / "narrow.pgm"
        write_pgm_p5(f8, mask.astype(np.uint8) * 255)
        assert np.array_equal(cs.read_contour(f16).points, cs.read_contour(f8).points)

    def test_blobs_touching_at_a_corner_are_one_component(self, tmp_path):
        mask = np.zeros((12, 12), dtype=np.uint8)
        mask[2:6, 2:6] = 1
        mask[6:10, 6:10] = 1
        assert _count_components(bordered(mask)) == 1
        f = tmp_path / "m.pgm"
        write_pgm_p5(f, mask)
        assert len(cs.read_contour(f)) >= 3

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=200, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    def test_label_count_matches_flood_fill(self, mask):
        assert _count_components(bordered(mask)) == flood_fill_components(mask)

    @pytest.mark.parametrize(
        "name, mask",
        [
            ("vertical serpentine", serpentine(200)),
            ("horizontal serpentine", serpentine(199).T),
            ("spiral", spiral(200)),
            ("spiral, odd side", spiral(151)),
            ("comb", comb(200)),
            ("comb teeth without spine", comb(200)[1:]),
            ("checkerboard", checkerboard(200, 1)),
            ("checkerboard of 2x2 blocks", checkerboard(200, 2)),
            ("isolated pixels", checkerboard(200, 1) & (np.arange(200) % 2 == 0)[:, None]),
            ("single pixel", np.ones((1, 1), dtype=bool)),
            ("single pixel inside", np.pad(np.ones((1, 1), dtype=bool), 3)),
            ("full", np.ones((200, 200), dtype=bool)),
            ("1 x N", np.ones((1, 200), dtype=bool)),
            ("N x 1", np.ones((200, 1), dtype=bool)),
            ("1 x N dashes", (np.arange(200) % 3 != 0)[None, :]),
            ("N x 1 dashes", (np.arange(200) % 3 != 0)[:, None]),
            ("blobs touching at a corner", corner_blobs(0)),
            ("blobs one pixel apart", corner_blobs(1)),
        ],
    )
    def test_fixed_mask_count_matches_flood_fill(self, name, mask):
        assert _count_components(bordered(mask)) == flood_fill_components(mask)

    def test_large_vertical_serpentine_is_one_component(self):
        # one path of ~500,000 pixels whose run graph is a chain of ~500,000 runs
        mask = serpentine(1001)
        assert _count_components(bordered(mask)) == 1
        assert _count_components(bordered(mask.T)) == 1


class TestTraceBoundary:
    """The tracer walks exactly the pixels of the bounds-checked oracle trace."""

    def test_blob_masks(self):
        for seed in range(100):
            assert_same_trace(blob_mask(seed))

    @pytest.mark.parametrize(
        "mask",
        [
            np.ones((3, 3), dtype=bool),
            np.ones((1, 1), dtype=bool),
            np.ones((40, 1), dtype=bool),
            corner_blobs(0),
            spiral(41),
            comb(40),
            checkerboard(20, 2),
        ],
    )
    def test_fixed_masks(self, mask):
        assert_same_trace(mask)

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(1, 16), st.integers(1, 16))))
    def test_random_masks(self, mask):
        if mask.any():
            assert_same_trace(mask)

    @pytest.mark.parametrize("mask", SPUR_MASKS, ids=["t", "disk-spur", "comb"])
    def test_spur_tip_start_closes_the_outer_boundary(self, mask):
        with pytest.raises(AssertionError, match="did not terminate"):
            moore_trace(mask)
        assert_outer_boundary_walk(mask, trace_pixels(mask))

    @pytest.mark.parametrize("mask", SPUR_MASKS, ids=["t", "disk-spur", "comb"])
    def test_spur_mask_points_match_per_pixel_reference(self, mask, tmp_path):
        assert_points_pinned(mask, tmp_path)

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(1, 16), st.integers(1, 16))))
    def test_random_mask_points_match_per_pixel_reference(self, tmp_path_factory, mask):
        if flood_fill_components(mask) == 1:
            assert_points_pinned(mask, tmp_path_factory.mktemp("points"))

    @pytest.mark.parametrize("mask", SPUR_MASKS, ids=["t", "disk-spur", "comb"])
    def test_spur_masks_plot(self, mask, tmp_path):
        write_pgm_p5(tmp_path / "m.pgm", mask.astype(np.uint8) * 255)
        (tmp_path / "m.manifest").write_text("k 8\ncontour m m.pgm\n")
        args = ["plot", "--manifest", str(tmp_path / "m.manifest"), "--out", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "contours.svg").exists()


class TestManifest:
    def make_files(self, tmp_path, n=3, K=80):
        names = []
        for i in range(n):
            f = tmp_path / f"c{i}.csv"
            cs.write_contour(cs.Contour(wobbly_points(K, phase=0.3 * i)), f)
            names.append(f.name)
        return names

    def test_parse_and_defaults(self, tmp_path):
        names = self.make_files(tmp_path)
        man = tmp_path / "sample.manifest"
        man.write_text(
            "# demo manifest\nseed 42\nk 40\ncorrespondence shared-times\n"
            + "".join(f"contour id{i} {n}\n" for i, n in enumerate(names))
        )
        m = cs.parse_manifest(man)
        assert m.seed == 42
        assert m.k == 40
        assert m.strategy == "shared-times"
        assert len(m.entries) == 3

    def test_unknown_directive_rejected(self, tmp_path):
        man = tmp_path / "bad.manifest"
        man.write_text("speed 42\n")
        with pytest.raises(cs.ManifestError, match="bad.manifest:1"):
            cs.parse_manifest(man)

    def test_comment_after_a_directive_rejected(self, tmp_path):
        # a comment is a whole line; a '#' after a directive is one more token
        man = tmp_path / "inline.manifest"
        man.write_text("k 300  # landmarks\ncontour a a.csv\n")
        message = "inline.manifest:1: unrecognized directive 'k 300  # landmarks'$"
        with pytest.raises(cs.ManifestError, match=message):
            cs.parse_manifest(man)
        man.write_text("  # landmarks\nk 300\ncontour a a.csv\n")
        assert cs.parse_manifest(man).k == 300

    def test_duplicate_ids_rejected(self, tmp_path):
        names = self.make_files(tmp_path, n=2)
        man = tmp_path / "dup.manifest"
        man.write_text(f"contour same {names[0]}\ncontour same {names[1]}\n")
        with pytest.raises(cs.ManifestError, match="same"):
            cs.parse_manifest(man)

    def test_manifest_that_is_not_utf8_rejected(self, tmp_path):
        man = tmp_path / "bytes.manifest"
        man.write_bytes(b"seed 3\ncontour a m\xec0.pgm\n")
        with pytest.raises(cs.ManifestError, match="bytes.manifest is not UTF-8 text"):
            cs.parse_manifest(man)

    def test_k_above_the_ceiling_rejected(self, tmp_path):
        man = tmp_path / "huge.manifest"
        man.write_text(f"k {ingestion.MAX_K + 1}\ncontour a a.csv\n")
        message = f"^k must be <= {ingestion.MAX_K}, got {ingestion.MAX_K + 1}$"
        with pytest.raises(cs.ManifestError, match=message):
            cs.parse_manifest(man)
        man.write_text(f"k {ingestion.MAX_K}\ncontour a a.csv\n")
        assert cs.parse_manifest(man).k == ingestion.MAX_K

    def test_empty_manifest_rejected(self, tmp_path):
        man = tmp_path / "empty.manifest"
        man.write_text("seed 1\n")
        with pytest.raises(cs.ManifestError):
            cs.parse_manifest(man)

    def test_load_sample_identical_files_identical_preshapes(self, tmp_path):
        f = tmp_path / "c.csv"
        cs.write_contour(cs.Contour(wobbly_points(100)), f)
        man = tmp_path / "m.manifest"
        man.write_text("k 30\nseed 5\ncontour a c.csv\ncontour b c.csv\ncontour c c.csv\n")
        shapes, times = cs.load_sample(cs.parse_manifest(man))
        assert times.k == 30
        assert len(shapes) == 3
        for s in shapes[1:]:
            assert np.array_equal(s.coords, shapes[0].coords)

    def test_load_sample_failure_names_entry(self, tmp_path):
        names = self.make_files(tmp_path, n=1)
        man = tmp_path / "m.manifest"
        man.write_text(f"contour good {names[0]}\ncontour broken missing.csv\n")
        with pytest.raises(cs.ManifestError, match="broken"):
            cs.load_sample(cs.parse_manifest(man))

    def test_load_sample_peak_memory_per_coordinate(self, tmp_path):
        # MAX_HELD_POINTS counts about 25 bytes per sample coordinate: the
        # 16-byte preshapes held, plus one contour's k-gon temporaries at a time
        names = self.make_files(tmp_path, n=12)
        man = tmp_path / "m.manifest"
        man.write_text("k 100000\n" + "".join(f"contour id{i} {n}\n" for i, n in enumerate(names)))
        manifest = cs.parse_manifest(man)
        tracemalloc.start()
        try:
            shapes, _ = cs.load_sample(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coordinates = sum(s.dimension for s in shapes)
        assert coordinates == 12 * 100_000
        assert peak <= 30 * coordinates, peak / coordinates

    def test_load_sample_holds_one_contour_beside_the_sample(self, tmp_path):
        # each entry goes from its file to its preshape before the next is read,
        # so loading 8 entries peaks above reading one of them by less than two
        # canonical curves of 24 bytes per vertex (measured: about 1 byte per
        # vertex; a load that held every curve at once measured 169)
        K = 20_000
        cs.write_contour(cs.Contour(wobbly_points(K)), tmp_path / "big.csv")
        man = tmp_path / "m.manifest"
        man.write_text("k 64\n" + "".join(f"contour id{i} big.csv\n" for i in range(8)))
        manifest = cs.parse_manifest(man)
        one = traced_peak(cs.read_contour, tmp_path / "big.csv")
        peak = traced_peak(cs.load_sample, manifest)
        assert peak - one < 2 * 24 * K, (peak - one) / K

    @pytest.mark.parametrize(
        "lines, repeated",
        [
            (["seed 1", "seed 2", "k 8", "k 9"], "2: repeated seed directive 'seed 2'"),
            (["k 8", "contour a a.csv", "k 8"], "3: repeated k directive 'k 8'"),
            (
                ["correspondence shared-times", "correspondence  union-of-times"],
                "2: repeated correspondence directive 'correspondence  union-of-times'",
            ),
        ],
        ids=["seed", "k", "correspondence"],
    )
    def test_repeated_setting_rejected(self, tmp_path, lines, repeated):
        man = tmp_path / "twice.manifest"
        man.write_text("\n".join([*lines, "contour b b.csv"]) + "\n")
        with pytest.raises(cs.ManifestError, match=re.escape(f"twice.manifest:{repeated}") + "$"):
            cs.parse_manifest(man)

    def test_union_of_one_curve_matches_shared(self, tmp_path):
        names = self.make_files(tmp_path, n=1)
        man_s = tmp_path / "s.manifest"
        man_u = tmp_path / "u.manifest"
        man_s.write_text(f"k 25\nseed 9\ncorrespondence shared-times\ncontour a {names[0]}\n")
        man_u.write_text(f"k 25\nseed 9\ncorrespondence union-of-times\ncontour a {names[0]}\n")
        shapes_s, times_s = cs.load_sample(cs.parse_manifest(man_s))
        shapes_u, times_u = cs.load_sample(cs.parse_manifest(man_u))
        assert np.array_equal(times_s.times, times_u.times)
        assert np.array_equal(shapes_s[0].coords, shapes_u[0].coords)

    def test_load_sample_deterministic(self, tmp_path):
        names = self.make_files(tmp_path)
        man = tmp_path / "m.manifest"
        man.write_text(
            "k 20\nseed 31\n" + "".join(f"contour id{i} {n}\n" for i, n in enumerate(names))
        )
        a, ta = cs.load_sample(cs.parse_manifest(man))
        b, tb = cs.load_sample(cs.parse_manifest(man))
        assert np.array_equal(ta.times, tb.times)
        for x, y in zip(a, b):
            assert np.array_equal(x.coords, y.coords)
