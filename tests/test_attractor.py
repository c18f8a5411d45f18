import json
import math

import numpy as np
import pytest

from rifs import keyed
from rifs.attractor import (_required_depth, _tail_steps, bounding_ball, points_to_arrays,
                            project, project_level, project_levels, write_points_csv,
                            write_svg_scatter)
from rifs.cli import main
from rifs.errors import BudgetError, InputError
from rifs.experiments import preset
from rifs.random_model import AffineSpec, MatrixFamily, Realization, SimilaritySpec
from rifs.symbolic import BernoulliMeasure, TailSequence, level_set
from test_projection_equivalence import (AffineBatch, apply_map, compose, iterate_maps,
                                         project_tail)


@pytest.fixture
def near_half_family():
    """Nearly deterministic x/2, (x+1)/2 system (degenerate widths forbidden)."""
    return MatrixFamily(1, [SimilaritySpec(0.499, 0.501)] * 2, [[0.0], [0.5]])


def test_bounding_ball(line_family, plane_family):
    assert bounding_ball(line_family) == pytest.approx(0.5 / 0.1)
    assert bounding_ball(plane_family) == pytest.approx(1.0 / 0.1)
    # Monte Carlo containment
    m = BernoulliMeasure([0.5, 0.5])
    for fam in (line_family, plane_family):
        r = Realization(4, fam)
        pts = project_level(r, level_set(m, 5), TailSequence.constant(2), 1e-3)
        coords, _ = points_to_arrays(pts)
        assert np.all(np.linalg.norm(coords, axis=1) <= bounding_ball(fam) + 1e-9)


def test_compose_singleton(line_family):
    r = Realization(1, line_family)
    c = compose(r, (2,))
    assert np.array_equal(c.matrix, r.sample_matrix((2,)))


def test_compose_det_multiplicativity(near_half_family, plane_family):
    for fam, word in ((near_half_family, (1, 2, 1, 2, 2)), (plane_family, (2, 1, 1))):
        r = Realization(8, fam)
        c = compose(r, word)
        direct = 1.0
        for k in range(1, len(word) + 1):
            direct *= abs(np.linalg.det(r.sample_matrix(word[:k])))
        assert c.log_abs_det == pytest.approx(math.log(direct), abs=1e-9 * len(word))
        # det of near-half products stays inside the interval power bounds
        if fam is near_half_family:
            assert 0.499 ** len(word) <= abs(np.linalg.det(c.matrix)) <= 0.501 ** len(word)


def test_compose_extension_adds_increments(line_family):
    r = Realization(2, line_family)
    base = compose(r, (1, 2))
    ext = compose(r, (1, 2, 2, 1))
    inc = r.log_abs_det((1, 2, 2)) + r.log_abs_det((1, 2, 2, 1))
    assert ext.log_abs_det == pytest.approx(base.log_abs_det + inc, abs=1e-12)


def test_norm_decay(plane_family):
    r = Realization(5, plane_family)
    for word in [(1, 2), (2, 2, 1), (1, 1, 2, 2, 1)]:
        c = compose(r, word)
        assert np.linalg.norm(c.matrix, 2) <= plane_family.rho_max ** len(word) + 1e-12


def test_project_geometric_series(near_half_family):
    r = Realization(7, near_half_family)
    # tail 222...: fixed point of x -> lam x + 1/2 with lam ~ 1/2 is ~1
    p = project(r, (), TailSequence.constant(2), 60)
    assert abs(p.coordinates[0] - 1.0) < 0.005
    # tail 111... with t_1 = 0 stays at 0 exactly
    for K in (1, 5, 30):
        q = project(r, (), TailSequence.constant(1), K)
        assert q.coordinates[0] == 0.0


def test_project_enclosure_soundness(line_family):
    b = TailSequence((2, 1), (1, 2, 2))
    for seed in range(30):
        r = Realization(seed, line_family)
        for K in (1, 3, 8):
            p1 = project(r, (1, 2), b, K)
            p2 = project(r, (1, 2), b, 2 * K)
            assert np.linalg.norm(p1.coordinates - p2.coordinates) \
                <= p1.truncation_radius


def test_project_tail_recursion_identity(line_family, plane_family):
    # one-step unfolding of the tail projection, checked across dimensions
    b = TailSequence((1,), (2, 1))
    for fam in (line_family, plane_family):
        r = Realization(11, fam)
        a = (2, 1)
        lhs = project_tail(r, a, b, 6)
        inner = project_tail(r, a + (b.symbol(1),), b.shifted(1), 5)
        rhs = apply_map(r, a + (b.symbol(1),), inner)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_project_composes_prefix_and_tail(line_family):
    # full projection = prefix maps applied to the tail projection
    r = Realization(3, line_family)
    a = (1, 2, 2)
    b = TailSequence.constant(2)
    K = 10
    tail_pt = project_tail(r, a, b, K)
    full = project(r, a, b, K)
    via_prefix = iterate_maps(r, a, tail_pt)
    assert np.linalg.norm(full.coordinates - via_prefix) <= 1e-12


def test_base_point_independence(line_family):
    r = Realization(19, line_family)
    w = (1, 2, 1, 1, 2, 2)
    y = np.array([3.7])
    delta = np.linalg.norm(iterate_maps(r, w, y) - iterate_maps(r, w, np.zeros(1)))
    assert delta <= line_family.rho_max ** len(w) * np.linalg.norm(y) + 1e-12


def test_project_level_matches_single_calls(line_family, plane_family, affine_family):
    m = BernoulliMeasure([0.5, 0.5])
    b = TailSequence.constant(2)
    for fam in (line_family, plane_family, affine_family):
        r = Realization(6, fam)
        L = level_set(m, 4)
        pts = project_level(r, L, b, 1e-4)
        assert len(pts) == len(L)
        # the arrays are the stacked per-point views, in level-set order
        assert np.array_equal(pts.coords, np.stack([p.coordinates for p in pts]))
        assert np.array_equal(pts.radii, [p.truncation_radius for p in pts])
        assert all(pts[i].word == L.words[i] for i in range(len(L)))
        rho = fam.rho_max
        R = bounding_ball(fam)
        for p in pts:
            assert p.truncation_radius <= 1e-4
            K = round(math.log(p.truncation_radius / R) / math.log(rho)) - len(p.word)
            single = project(r, p.word, b, int(K))
            assert np.array_equal(single.coordinates, p.coordinates)


def test_project_level_doubling_epsilon(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    b = TailSequence.constant(1)
    r = Realization(21, line_family)
    L = level_set(m, 5)
    fine = project_level(r, L, b, 1e-5)
    coarse = project_level(r, L, b, 2e-5)
    for pf, pc in zip(fine, coarse):
        gap = np.linalg.norm(pf.coordinates - pc.coordinates)
        assert gap <= pf.truncation_radius + pc.truncation_radius


def _full_depth(r, word, b, depth):
    """Coordinates of ``word . b_1 .. b_depth`` with every tail step taken."""
    batch = AffineBatch(r, 1)
    for s in word + b.first(depth):
        batch.step(s)
    return batch.coords()[0]


@pytest.fixture
def absorbed(monkeypatch):
    """Counts the chain states absorbed, one per map application."""
    count = [0]
    real = keyed.absorb

    def counting(states, symbols, **out):
        count[0] += np.size(states)
        return real(states, symbols, **out)

    monkeypatch.setattr(keyed, "absorb", counting)
    return count


def _cut_family(fam, line_family, plane_family):
    """The line, plane or affine family of the tail-cut tests: t_1 = 0, t_2 != 0."""
    bases = [np.diag([0.9, 0.7]).tolist(), np.diag([0.8, 0.95]).tolist()]
    return {"line": line_family, "plane": plane_family,
            "affine": MatrixFamily(2, [AffineSpec(0.45, 0.49, bases)] * 2,
                                   [[0.0, 0.0], [1.0, 0.5]])}[fam]


# (tail, k*): the last tail position whose symbol moves the point (t_2 != 0)
_CUT_TAILS = [(TailSequence.constant(1), 0),
              (TailSequence((2, 1, 2, 1), (1,)), 3),
              (TailSequence((1,), (1, 2)), None)]


@pytest.mark.parametrize("tail,cut", _CUT_TAILS, ids=["constant", "prefix", "period"])
@pytest.mark.parametrize("fam", ["line", "plane", "affine"])
def test_tail_cut_is_exact_and_skips_still_steps(fam, tail, cut, absorbed,
                                                 line_family, plane_family):
    family = _cut_family(fam, line_family, plane_family)
    r = Realization(13, family)
    L = level_set(BernoulliMeasure([0.7, 0.3]), 2)
    rho, R = family.rho_max, bounding_ball(family)
    depths = [_required_depth(1e-6, len(w), rho, R) for w in L.words]
    steps = [K if cut is None else min(K, cut) for K in depths]
    assert min(depths) > 4

    absorbed[0] = 0
    pts = project_level(r, L, tail, 1e-6)
    # one step per node of the cylinder tree (shared prefixes), then the
    # tails; no map is composed that nothing reads: not each member's last
    # tail map, nor the deepest depth's when its members take no tail step
    deepest = int(L.lengths.max())
    leaves = 0 if any(k for w, k in zip(L.words, steps) if len(w) == deepest) \
        else L.tree[deepest - 1].symbols.size
    assert absorbed[0] == (sum(fr.symbols.size for fr in L.tree) - leaves
                           + sum(steps) - np.count_nonzero(steps))
    for i, (w, K, k) in enumerate(zip(L.words, depths, steps)):
        full = _full_depth(r, w, tail, K)
        absorbed[0] = 0
        single = project(r, w, tail, K)
        assert absorbed[0] == len(w) + k
        assert single.coordinates.tobytes() == full.tobytes()
        assert pts.coords[i].tobytes() == full.tobytes()
        assert pts.radii[i].tobytes() == np.float64(single.truncation_radius).tobytes()
        assert single.truncation_radius == rho ** (len(w) + K) * R

    # the tail under the environment of a prefix follows the same rule
    a, K = L.words[0], depths[0]
    chain = keyed.word_state(r.seed, a)
    M, v = np.eye(family.dimension), np.zeros(family.dimension)
    for s in tail.first(K):
        chain = keyed.absorb(chain, s)
        v = v + M @ family.translations[s - 1]
        M = M @ r.matrices_from_chains(chain, np.array([s]))[0]
    absorbed[0] = 0
    assert project_tail(r, a, tail, K).tobytes() == v.tobytes()
    assert absorbed[0] == len(a) + steps[0]


class RecordingRealization(Realization):
    """Keeps every chain state it samples a map at."""

    def __init__(self, seed, family):
        super().__init__(seed, family)
        self.sampled = []

    def matrices_from_chains(self, states, last_symbols):
        self.sampled += states.tolist()
        return super().matrices_from_chains(states, last_symbols)

    def scalars_from_chains(self, states, last_symbols):
        self.sampled += states.tolist()
        return super().scalars_from_chains(states, last_symbols)


@pytest.mark.parametrize("p", [[0.5, 0.5], [0.7, 0.3]], ids=["uniform", "skew"])
@pytest.mark.parametrize("tail,cut", _CUT_TAILS, ids=["constant", "prefix", "period"])
@pytest.mark.parametrize("fam", ["line", "plane", "affine"])
def test_no_member_samples_its_last_map(fam, tail, cut, p, line_family, plane_family):
    # the point of w . b_1 .. b_k reads the maps of its proper prefixes only,
    # so a projection samples no member's final chain state; the one
    # exception is a member above the deepest depth that takes no tail step,
    # whose depth is composed for the active nodes beside it
    family = _cut_family(fam, line_family, plane_family)
    L = level_set(BernoulliMeasure(p), 3)
    deepest = int(L.lengths.max())
    assert p[0] == 0.5 or L.lengths.min() < deepest
    rs = [RecordingRealization(seed, family) for seed in (13, 14)]
    target = 1e-4
    clouds = project_levels(rs, [L], tail, [target])
    sampled = set(rs[0].sampled)   # the walk samples every seed through rs[0]
    finals, read = set(), set()
    for r, (cloud,) in zip(rs, clouds):
        for w, x in zip(L.words, cloud.coords):
            K = _required_depth(target, len(w), family.rho_max, bounding_ball(family))
            k = int(_tail_steps(family, tail, K))
            assert x.tobytes() == project(r, w, tail, K).coordinates.tobytes()
            final = int(keyed.word_state(r.seed, w + tail.first(k))[0])
            finals.add(final)
            if k == 0 and len(w) < deepest:
                read.add(final)
    assert len(finals) == 2 * len(L)
    assert finals & sampled == read


def test_project_level_budget_charges_worst_case_depth(line_family, tmp_path, capsys):
    # constant tail 1 has t_1 = 0: the cut takes no tail step at all, yet the
    # up-front charge is still the worst-case depth, so exit codes do not move
    m = BernoulliMeasure([0.5, 0.5])
    L = level_set(m, 6)
    r = Realization(0, line_family)
    b = TailSequence.constant(1)
    rho, R = line_family.rho_max, bounding_ball(line_family)
    worst = int(L.lengths.sum()) + sum(_required_depth(1e-6, len(w), rho, R)
                                       for w in L.words)
    project_level(r, L, b, 1e-6, map_budget=worst)
    for budget in (worst - 1, int(L.lengths.sum())):
        with pytest.raises(BudgetError):
            project_level(r, L, b, 1e-6, map_budget=budget)

    cfg = preset("baby_theorem").to_dict()
    cfg.update(n_min=6, n_max=6, map_budget=int(L.lengths.sum()))
    path = tmp_path / "tight_map_budget.json"
    path.write_text(json.dumps(cfg))
    assert main(["attractor", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "projection map budget" in capsys.readouterr().err


def test_project_level_budget(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    with pytest.raises(BudgetError) as err:
        project_level(Realization(0, line_family), level_set(m, 8),
                      TailSequence.constant(1), 1e-9, map_budget=100)
    assert "100" in str(err.value)


def test_project_validation(line_family):
    r = Realization(0, line_family)
    with pytest.raises(InputError):
        project(r, (1,), TailSequence.constant(1), 0)
    with pytest.raises(InputError):
        project(r, (1,), TailSequence.constant(3), 2)


def test_points_csv(tmp_path, plane_family):
    m = BernoulliMeasure([0.5, 0.5])
    r = Realization(2, plane_family)
    pts = project_level(r, level_set(m, 3), TailSequence.constant(1), 1e-3)
    path = tmp_path / "pts.csv"
    write_points_csv(pts, path, header_comment="digest=xyz")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# digest=xyz"
    assert lines[1] == "word,x_1,x_2,trunc_radius"
    assert len(lines) == 2 + len(pts)


def test_svg_scatter(tmp_path, plane_family):
    m = BernoulliMeasure([0.5, 0.5])
    r = Realization(2, plane_family)
    pts = project_level(r, level_set(m, 4), TailSequence.constant(1), 1e-3)
    path = tmp_path / "cloud.svg"
    write_svg_scatter(pts, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == len(pts)
    with pytest.raises(InputError):
        write_svg_scatter(np.zeros((4, 1)), tmp_path / "bad.svg")
