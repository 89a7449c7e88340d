"""Dataset loading and synthetic data generation for the clustering tools.

The on-disk format is deliberately plain: one point per line, coordinates
separated by whitespace, ``#`` comments and blank lines ignored. Ground-truth
centroid files use the same layout. Every value must be finite: ``nan`` and
``inf`` are rejected at load time with the file and line. So must every sum
of N squared distances, N the point count, between the points and between
them and the centroids: ``load_dataset`` rejects a file whose coordinate
span would let such a sum (an SSE, a k-means++ weight total) overflow.

A file is read by numpy's C reader (``np.loadtxt``) first. Whenever that
reader refuses the text, finds no rows or reads a non-finite value, or the
text holds a line break other than ``\n`` and ``\r`` (which the reader would
take for whitespace), the text is parsed line by line instead: that parse
reads every token as ``float()`` does (``1_0`` included) and names the file
and line of the first fault.
"""

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .measures import as_points, check_span


@dataclass
class Dataset:
    points: np.ndarray  # N x D
    name: str = "dataset"
    true_centroids: Optional[np.ndarray] = None
    true_labels: Optional[np.ndarray] = None

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def _parse_matrix(text, source):
    """One pass: split each line once, then convert every row in one
    ``np.array`` call. numpy parses each token as ``float()`` does; only when
    it fails are the rows scanned again, to name the first bad line. Returns
    the matrix and each row's line number."""
    rows, linenos = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.split("#", 1)[0].split()
        if row:
            rows.append(row)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{source}: no data points found")
    try:
        values = np.array(rows, dtype=float)
    except ValueError:
        # a non-numeric token or a ragged row; report the first, line by line
        width = len(rows[0])
        for lineno, row in zip(linenos, rows):
            try:
                [float(p) for p in row]
            except ValueError as exc:
                raise ValueError(
                    f"{source}:{lineno}: non-numeric value ({exc})") from None
            if len(row) != width:
                raise ValueError(f"{source}:{lineno}: expected {width} values, "
                                 f"found {len(row)}") from None
        raise
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"{source}:{linenos[bad[0]]}: non-finite value "
                         f"(nan and inf are not data)")
    return values, linenos


# str.splitlines() ends a line at each of these too, where numpy's reader
# takes them for whitespace inside the line
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _read_matrix(path):
    """The matrix of a points or labels file: numpy's C reader's when it
    splits the text into the same lines and returns finite rows, else
    ``_parse_matrix``'s. Both decode the file in the locale's encoding."""
    text = path.read_text()
    if not any(c in text for c in _OTHER_LINE_BREAKS):
        try:
            with warnings.catch_warnings():
                # a file with no rows warns here and is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(path, comments="#", ndmin=2)
        except ValueError:
            values = None
        if values is not None and values.size and np.isfinite(values).all():
            return values
    return _parse_matrix(text, str(path))[0]


def load_points(path):
    """Read a whitespace-separated matrix of points; errors carry line numbers."""
    return _read_matrix(Path(path))


def load_labels(path):
    """Read one integer label per line; each must fit in an int64."""
    path = Path(path)
    values = _read_matrix(path)
    if values.shape[1] != 1:
        raise ValueError(f"{path}: labels must be one value per line")
    flat = values[:, 0]
    # every float in [-2**63, 2**63) casts to int64 exactly; others overflow
    bad = np.flatnonzero((flat != np.round(flat)) | (flat < -2.0**63) | (flat >= 2.0**63))
    if bad.size:
        lineno = _parse_matrix(path.read_text(), str(path))[1][bad[0]]
        raise ValueError(f"{path}:{lineno}: labels must be integers "
                         f"in the int64 range, got {float(flat[bad[0]])!r}")
    return flat.astype(np.int64)


def load_dataset(path, centroids_path=None, labels_path=None):
    """Load a dataset with optional ground-truth centroids and labels.

    Points, and centroids together with the points, whose sums of N squared
    distances could overflow are refused, naming the file."""
    path = Path(path)
    points = load_points(path)
    low, high = points.min(axis=0), points.max(axis=0)
    check_span(path, low, high, len(points))
    centroids = None
    if centroids_path is not None:
        centroids = load_points(centroids_path)
        if centroids.shape[1] != points.shape[1]:
            raise ValueError(
                f"{centroids_path}: centroid dimension {centroids.shape[1]} "
                f"does not match data dimension {points.shape[1]}")
        check_span(centroids_path, np.minimum(low, centroids.min(axis=0)),
                    np.maximum(high, centroids.max(axis=0)), len(points))
    labels = None
    if labels_path is not None:
        labels = load_labels(labels_path)
        if labels.shape[0] != points.shape[0]:
            raise ValueError(
                f"{labels_path}: {labels.shape[0]} labels for {points.shape[0]} points")
    return Dataset(points, name=path.stem, true_centroids=centroids, true_labels=labels)


def save_points(path, points):
    path = Path(path)
    points = np.asarray(points, dtype=float)
    lines = [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(points)]
    path.write_text("\n".join(lines) + "\n")


def gaussian_blobs(rng, centers, spread, points_per_cluster):
    """Isotropic Gaussian clusters around the given centers.

    Returns a Dataset whose true_centroids are the requested centers and
    whose true_labels record each point's source cluster.
    """
    centers = as_points(centers)
    k, dim = centers.shape
    spreads = np.broadcast_to(np.asarray(spread, dtype=float), (k,))
    counts = np.broadcast_to(np.asarray(points_per_cluster, dtype=int), (k,))
    if np.any(counts < 1):
        raise ValueError("every cluster needs at least one point")
    blocks, labels = [], []
    for i in range(k):
        noise = rng.generator.standard_normal((int(counts[i]), dim))
        blocks.append(centers[i] + spreads[i] * noise)
        labels.extend([i] * int(counts[i]))
    return Dataset(np.vstack(blocks), name="blobs",
                   true_centroids=centers.copy(),
                   true_labels=np.asarray(labels, dtype=int))
