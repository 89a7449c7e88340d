"""File formats: point matrices, labels, CSV/JSON emission, output routing."""

import csv
import json
import re
import warnings

import numpy as np
import pytest

from evoclust import reports
from evoclust.datasets import (Dataset, gaussian_blobs, load_dataset,
                               load_labels, load_points, save_points)
from evoclust.reports import (OUT_DIR_ENV, fmt_full, fmt_sig, resolve_out,
                              scrub_timing, write_csv, write_json)
from evoclust.rng import RngStream


# ------------------------------------------------------------ point files

def test_load_points_with_comments(tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("# header\n1.0 2.0\n\n3.5 -4.25  # inline note\n1_0 +.5\n")
    pts = load_points(f)
    assert pts.tolist() == [[1.0, 2.0], [3.5, -4.25], [10.0, 0.5]]  # as float() reads


def test_load_points_errors_carry_line_numbers(tmp_path):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2\n3 4 5\n")
    with pytest.raises(ValueError, match=r"ragged\.txt:2: expected 2 values"):
        load_points(ragged)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nx 4\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: non-numeric"):
        load_points(bad)
    # several faults: the first line with one is named, and on one line a
    # non-numeric token is reported before a wrong width
    for text, match in (("1 2\n3 4 5\nx 6\n", r"mixed\.txt:2: expected 2 values"),
                        ("1 2\n\n3 x 5\n7\n", r"mixed\.txt:3: non-numeric")):
        mixed = tmp_path / "mixed.txt"
        mixed.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_points(mixed)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no data points"):
        load_points(empty)


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_load_points_ends_lines_where_str_splitlines_does(tmp_path, brk):
    # numpy's reader takes these for whitespace; the rows must not join
    f = tmp_path / "pts.txt"
    f.write_text(f"1 2{brk}3 4\n", encoding="utf-8")
    assert load_points(f).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    f.write_text(f"# ids\n0{brk}1\n", encoding="utf-8")
    assert load_labels(f).tolist() == [0, 1]


def test_load_points_reads_comments_and_blank_lines_without_warnings(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    pts = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-8, 8, size=(300, 1))
    f = tmp_path / "pts.txt"
    save_points(f, pts)
    lines = f.read_text().splitlines()
    lines[100:100] = ["", "# x y z", "   "]
    lines[7] += "  # a note"
    f.write_text("# header\n\n" + "\r\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(load_points(f), pts)
        empty = tmp_path / "empty.txt"
        empty.write_text("# x y\n\n")
        with pytest.raises(ValueError, match="no data points"):
            load_points(empty)
        with pytest.raises(ValueError, match="no data points"):
            load_labels(empty)


@pytest.mark.parametrize("bad", ["nan", "-inf", "infinity"])
def test_load_points_rejects_non_finite(tmp_path, bad):
    f = tmp_path / "pts.txt"
    f.write_text(f"1.0 2.0\n# note\n3.0 {bad}\n4.0 5.0\n")
    with pytest.raises(ValueError, match=r"pts\.txt:3: non-finite"):
        load_points(f)


def test_save_load_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    pts = rng.normal(size=(20, 3)) * 1e-7  # awkward magnitudes survive repr
    f = tmp_path / "rt.txt"
    save_points(f, pts)
    assert np.array_equal(load_points(f), pts)


def test_load_labels(tmp_path):
    f = tmp_path / "lab.txt"
    f.write_text("0\n0\n2\n1\n")
    assert load_labels(f).tolist() == [0, 0, 2, 1]
    two = tmp_path / "two.txt"
    two.write_text("0 1\n")
    with pytest.raises(ValueError, match="one value per line"):
        load_labels(two)
    frac = tmp_path / "frac.txt"
    frac.write_text("0.5\n")
    with pytest.raises(ValueError, match="integers"):
        load_labels(frac)
    near = tmp_path / "near.txt"
    near.write_text("0\n2.9999999\n1\n")  # not 2: near-integers are rejected
    with pytest.raises(ValueError, match="integers"):
        load_labels(near)
    # beyond int64 the cast wraps to one id (only a RuntimeWarning), so two
    # labels would merge; warnings are errors here, the ValueError comes first
    huge = tmp_path / "huge.txt"
    huge.write_text("0\n1e20\n2e20\n")
    low = tmp_path / "low.txt"
    low.write_text("# ids\n5\n-1e19\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{huge}:2: ") + ".*int64 range"):
            load_labels(huge)
        with pytest.raises(ValueError, match=re.escape(f"{low}:3: ") + ".*int64 range"):
            load_labels(low)
        top = tmp_path / "top.txt"
        top.write_text(f"{2**63}\n")  # one past the int64 maximum
        with pytest.raises(ValueError, match="int64 range"):
            load_labels(top)
        edge = tmp_path / "edge.txt"
        edge.write_text(f"{-2**63}\n{2**62}\n")
        assert load_labels(edge).tolist() == [-2**63, 2**62]


def test_load_dataset_cross_checks(tmp_path):
    (tmp_path / "d.txt").write_text("0 0\n1 1\n")
    (tmp_path / "c.txt").write_text("0.5 0.5\n")
    (tmp_path / "l.txt").write_text("0\n1\n")
    ds = load_dataset(tmp_path / "d.txt", tmp_path / "c.txt", tmp_path / "l.txt")
    assert ds.name == "d" and ds.n == 2 and ds.dim == 2
    assert ds.true_centroids.tolist() == [[0.5, 0.5]]
    assert ds.true_labels.tolist() == [0, 1]
    (tmp_path / "c3.txt").write_text("0.5 0.5 0.5\n")
    with pytest.raises(ValueError, match="dimension"):
        load_dataset(tmp_path / "d.txt", centroids_path=tmp_path / "c3.txt")
    (tmp_path / "l3.txt").write_text("0\n1\n0\n")
    with pytest.raises(ValueError, match="3 labels for 2 points"):
        load_dataset(tmp_path / "d.txt", labels_path=tmp_path / "l3.txt")


def test_load_dataset_refuses_spans_whose_squared_distances_overflow(tmp_path):
    data = tmp_path / "wide.txt"
    data.write_text("0 0\n1e308 1e308\n-1e308 -1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check itself overflows silently
        with pytest.raises(ValueError, match=re.escape(f"{data}: coordinates span too wide")):
            load_dataset(data)
    # finite squared distances: spans around 1e150 load
    (tmp_path / "d.txt").write_text("0 0\n1e150 -1e150\n-1e150 1e150\n")
    assert load_dataset(tmp_path / "d.txt").n == 3
    # a centroid file is checked together with the points it is scored on
    (tmp_path / "c.txt").write_text("2e154 0\n")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'c.txt'}: coordinates span")):
        load_dataset(tmp_path / "d.txt", centroids_path=tmp_path / "c.txt")
    (tmp_path / "c_near.txt").write_text("1e150 0\n")
    ds = load_dataset(tmp_path / "d.txt", centroids_path=tmp_path / "c_near.txt")
    assert ds.true_centroids.tolist() == [[1e150, 0.0]]


def test_load_dataset_refuses_spans_whose_squared_distance_sums_overflow(tmp_path):
    """N times the squared diagonal must fit: it bounds every SSE and
    k-means++ weight total over the N points."""
    rng = np.random.Generator(np.random.PCG64(3))
    wide = rng.uniform(-4.5e153, 4.5e153, size=(100, 2))
    assert np.isfinite(np.sum(np.square(wide.max(axis=0) - wide.min(axis=0))))
    data = tmp_path / "wide.txt"
    save_points(data, wide)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{data}: coordinates span too wide")):
            load_dataset(data)
    # a box 20 times narrower holds the 100 points, but not 1,000
    save_points(tmp_path / "narrow.txt", wide / 20)
    assert load_dataset(tmp_path / "narrow.txt").n == 100
    save_points(tmp_path / "many.txt", rng.uniform(-2.25e152, 2.25e152, size=(1000, 2)))
    with pytest.raises(ValueError, match="a sum of 1000 squared distances"):
        load_dataset(tmp_path / "many.txt")
    # a centroid file is checked over the points' count
    (tmp_path / "c.txt").write_text("4.5e153 0\n")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'c.txt'}: coordinates span")):
        load_dataset(tmp_path / "narrow.txt", centroids_path=tmp_path / "c.txt")


def test_synthetic_generators():
    rng = RngStream(1)
    ds = gaussian_blobs(rng, centers=[(0, 0), (5, 5)], spread=0.1,
                        points_per_cluster=[10, 20])
    assert ds.n == 30 and ds.dim == 2
    assert ds.true_labels.tolist() == [0] * 10 + [1] * 20
    assert ds.true_centroids.tolist() == [[0, 0], [5, 5]]
    with pytest.raises(ValueError):
        gaussian_blobs(rng, centers=[(0, 0)], spread=1.0, points_per_cluster=0)


# ------------------------------------------------------------- formatting

def test_fmt_sig(monkeypatch):
    assert fmt_sig(109.2) == "1.092E+02"
    assert fmt_sig(109199.0) == "1.092E+05"
    assert fmt_sig(-0.00012345) == "-1.234E-04"  # round-half-even on 5
    assert fmt_sig(0.0) == "0.000E+00"
    assert fmt_sig(None) == ""
    assert fmt_sig(True) == "True"
    monkeypatch.setattr(reports, "SIG_DIGITS", 2)
    assert fmt_sig(2.0) == "2.0E+00"


def test_fmt_full_round_trips():
    vals = [0.1, 1e-300, -3.0, float(np.float64(1) / 3)]
    for v in vals:
        assert float(fmt_full(v)) == v
    assert fmt_full(7) == "7"
    assert fmt_full(np.int64(7)) == "7"
    assert fmt_full(None) == ""
    assert fmt_full(False) == "False"


def test_scrub_timing_recurses():
    payload = {"a": 1, "run_time_s": 2.0,
               "inner": {"suite_time_s": 3.0, "keep": [{"t_time_s": 1}, 5]}}
    assert scrub_timing(payload) == {"a": 1, "inner": {"keep": [{}, 5]}}


# ------------------------------------------------------------ file output

def test_write_json_sorted_and_newline(tmp_path):
    p = write_json(tmp_path / "x.json", {"b": 1, "a": [1.5, None]})
    text = p.read_text()
    assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'
    assert json.loads(text) == {"a": [1.5, None], "b": 1}


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_write_json_refuses_non_finite_numbers(tmp_path, bad):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"a": {"b": [1.0, bad]}})
    assert not path.exists()


def test_write_csv_lossless_and_human(tmp_path):
    header = ["name", "value"]
    rows = [["row1", 1.0 / 3.0], ["row2", 123456.789]]
    p = write_csv(tmp_path / "full.csv", header, rows)
    with open(p) as fh:
        got = list(csv.reader(fh))
    assert got[0] == header
    assert float(got[1][1]) == 1.0 / 3.0  # exact re-parse
    h = write_csv(tmp_path / "human.csv", header, rows, human=True)
    with open(h) as fh:
        hgot = list(csv.reader(fh))
    assert hgot[1][1] == "3.333E-01"
    assert hgot[2][1] == "1.235E+05"


def test_out_dir_env_reroutes_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "routed"))
    p = write_json("sub/report.json", {"x": 1})
    assert p == tmp_path / "routed" / "sub" / "report.json"
    assert p.exists()
    absolute = write_json(tmp_path / "direct.json", {"y": 2})
    assert absolute == tmp_path / "direct.json"  # absolute paths untouched
    monkeypatch.delenv(OUT_DIR_ENV)
    assert resolve_out(tmp_path / "z.csv") == tmp_path / "z.csv"


def test_dataset_record_basics():
    ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]), name="pair")
    assert ds.n == 2 and ds.dim == 2
