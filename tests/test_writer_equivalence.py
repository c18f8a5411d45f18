"""Report writers against the per-row formatting they replaced.

``ref_write_levelset_csv``, ``ref_write_points_csv`` and
``ref_write_svg_scatter`` format every row on its own (``repr`` of each
measure, coordinate and radius, numpy rows in the scatter), and the
determinant-window histogram's oracle is the per-row ``_write_csv``.  The
writers format each distinct measure, length, coordinate, radius and count
once and lay the CSV rows out in blocks of ``rifs.symbolic.ROW_BLOCK`` rows;
they must write the oracle's text as UTF-8 bytes at the default block and
at blocks of 1 and 3 rows.
"""

from dataclasses import replace

import numpy as np
import pytest

from rifs import (BernoulliMeasure, MarkovMeasure, MatrixFamily, SimilaritySpec, keyed,
                  symbolic)
from rifs.analysis import det_window_reports
from rifs.attractor import (PointCloud, points_to_arrays, project_level, write_points_csv,
                            write_svg_scatter)
from rifs.errors import InputError
from rifs.experiments import _write_csv, preset, run
from rifs.random_model import Realization
from rifs.symbolic import TailSequence, level_set, word_to_string, write_levelset_csv

WIDE_P = [0.3] + [0.1] * 7
NINE_P = [0.2] + [0.1] * 8
BLOCKS = (symbolic.ROW_BLOCK, 1, 3)


# ---------------------------------------------------------------------------
# reference oracles
# ---------------------------------------------------------------------------

def _text(lines):
    return "\n".join(lines) + "\n"


def ref_write_levelset_csv(ls, header_comment=None):
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append("word,length,measure")
    lines.extend(f"{word_to_string(w)},{n},{mu!r}" for w, n, mu in
                 zip(ls.words, ls.lengths.tolist(), ls.measures.tolist()))
    return _text(lines)


def ref_write_points_csv(points, header_comment=None):
    coords, radii = points_to_arrays(points)
    words = ([word_to_string(w) for w in points.level_set.words]
             if isinstance(points, PointCloud) else [""] * len(radii))
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append("word," + ",".join(f"x_{i + 1}" for i in range(coords.shape[1]))
                 + ",trunc_radius")
    for w, xy, rad in zip(words, coords.tolist(), radii.tolist()):
        xs = ",".join(repr(c) for c in xy)
        lines.append(f"{w},{xs},{rad!r}")
    return _text(lines)


def ref_write_svg_scatter(points, header_comment=None):
    coords, _ = points_to_arrays(points)
    lo = coords.min(axis=0)
    span = np.maximum(coords.max(axis=0) - lo, 1e-9)
    size = 1024
    pix = (coords - lo) / span * (size - 20) + 10
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    if header_comment:
        parts.append(f"<!-- {header_comment} -->")
    parts.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    for x, y in pix:
        parts.append(f'<circle cx="{x:.2f}" cy="{size - y:.2f}" r="1" fill="black"/>')
    parts.append("</svg>")
    return _text(parts)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _level_sets():
    wide = level_set(BernoulliMeasure(WIDE_P), 4)
    return {
        "bernoulli_mixed_lengths": wide,
        "markov": level_set(MarkovMeasure([4.0 / 7.0, 3.0 / 7.0],
                                          [[0.7, 0.3], [0.4, 0.6]]), 7),
        "uniform": level_set(BernoulliMeasure([1.0 / 3.0] * 3), 5),
        "nine_symbols": level_set(BernoulliMeasure(NINE_P), 2),
        "empty": replace(wide, nodes=tuple(idx[:0] for idx in wide.nodes)),
    }


def _clouds():
    line = MatrixFamily(1, [SimilaritySpec(0.5, 0.9)] * 2, [[0.0], [0.5]])
    nine = MatrixFamily(1, [SimilaritySpec(0.12, 0.2)] * 9, [[k / 8.0] for k in range(9)])
    affine = preset("example2_affine")
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((300, 2))
    raw[:3] = [[0.0, -0.0], [1e-300, -2.5e17], [0.1, 0.1]]
    return {
        "d1_cloud": project_level(Realization(3, line), level_set(BernoulliMeasure([0.7, 0.3]), 6),
                                  TailSequence.constant(1), 1e-4),
        "d1_nine_symbols": project_level(Realization(4, nine),
                                         level_set(BernoulliMeasure(NINE_P), 2),
                                         TailSequence.constant(1), 1e-3),
        "d2_cloud_mixed_lengths": project_level(
            Realization(8, affine.family), level_set(BernoulliMeasure(WIDE_P), 3),
            affine.tail, 0.2),
        "raw_d2": raw,
        "raw_d1": raw[:, 0],
    }


# ---------------------------------------------------------------------------
# byte equality
# ---------------------------------------------------------------------------

def _check_blocks(write, expected, path, monkeypatch):
    """``write(path)`` writes ``expected`` as UTF-8 bytes at every block size."""
    for block in BLOCKS:
        monkeypatch.setattr(symbolic, "ROW_BLOCK", block)
        write(path)
        assert path.read_bytes() == expected.encode(), block


@pytest.mark.parametrize("name", sorted(_level_sets()))
@pytest.mark.parametrize("header", [None, "digest=abc"])
def test_levelset_csv_matches_per_row_oracle(name, header, tmp_path, monkeypatch):
    ls = _level_sets()[name]
    _check_blocks(lambda path: write_levelset_csv(ls, path, header_comment=header),
                  ref_write_levelset_csv(ls, header), tmp_path / "ls.csv", monkeypatch)


def test_level_set_inputs_cover_the_cases():
    sets = _level_sets()
    assert len(np.unique(sets["bernoulli_mixed_lengths"].lengths)) > 1
    assert len(np.unique(sets["bernoulli_mixed_lengths"].measures)) > 1
    assert len(np.unique(sets["uniform"].measures)) == 1
    assert len(sets["empty"]) == 0
    assert sets["nine_symbols"].word_matrix.max() == 9
    assert len(sets["nine_symbols"]) > 3 * max(BLOCKS[1:])
    clouds = _clouds()
    assert len(np.unique(clouds["d2_cloud_mixed_lengths"].radii)) == 4
    assert clouds["d1_nine_symbols"].level_set.word_matrix.max() == 9


@pytest.mark.parametrize("name", sorted(_clouds()))
@pytest.mark.parametrize("header", [None, "digest=xyz"])
def test_points_csv_matches_per_row_oracle(name, header, tmp_path, monkeypatch):
    pts = _clouds()[name]
    _check_blocks(lambda path: write_points_csv(pts, path, header_comment=header),
                  ref_write_points_csv(pts, header), tmp_path / "pts.csv", monkeypatch)


@pytest.mark.parametrize("name", ["d2_cloud_mixed_lengths", "raw_d2"])
@pytest.mark.parametrize("header", [None, "digest=xyz"])
def test_svg_scatter_matches_per_row_oracle(name, header, tmp_path):
    pts = _clouds()[name]
    path = tmp_path / "cloud.svg"
    write_svg_scatter(pts, path, header_comment=header)
    assert path.read_bytes() == ref_write_svg_scatter(pts, header).encode()


def test_detwindow_hist_matches_per_row_oracle(tmp_path, monkeypatch):
    cfg = replace(preset("baby_theorem"), kind="detwindow", n=6, seeds=3)
    rs = [Realization(keyed.derive_seed(cfg.master_seed, j), cfg.family) for j in range(3)]
    reports = det_window_reports(rs, cfg.measure, cfg.n, cfg.resolved_eps1(), cfg.C, cfg.N1)
    rows = [[j, k, int(bad), int(total)] for j, rep in enumerate(reports)
            for k, (bad, total) in enumerate(zip(rep.per_prefix_failures,
                                                 rep.per_prefix_totals), start=1)]
    assert len({row[2] for row in rows}) > 1 and len(rows) > 3 * max(BLOCKS[1:])
    _write_csv(tmp_path / "oracle.csv", ["seed", "k", "bad", "total"], rows, cfg.canonical())
    _check_blocks(lambda path: run(cfg, path.parent), (tmp_path / "oracle.csv").read_text(),
                  tmp_path / "run" / "detwindow_hist.csv", monkeypatch)


def test_ten_symbol_words_raise_before_any_file(tmp_path):
    ls = level_set(BernoulliMeasure([0.1] * 10), 1)
    pts = PointCloud(np.zeros((len(ls), 1)), np.zeros(len(ls)), ls, TailSequence.constant(1))
    with pytest.raises(InputError, match="alphabet size <= 9"):
        write_levelset_csv(ls, tmp_path / "ls.csv")
    with pytest.raises(InputError, match="alphabet size <= 9"):
        write_points_csv(pts, tmp_path / "pts.csv")
    assert not list(tmp_path.iterdir())


def test_block_that_fails_leaves_no_file(tmp_path):
    ls = _level_sets()["uniform"]
    table, index = symbolic.text_table(ls.measures, repr)
    index = index.copy()
    index[-1] = table.shape[0]   # out of range: the last block raises mid-write
    path = tmp_path / "ls.csv"
    with pytest.raises(IndexError):
        symbolic.write_word_table(path, "word,measure\n", ls.word_matrix, [(table, index)])
    assert not list(tmp_path.iterdir())
