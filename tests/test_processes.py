import math

import numpy as np
import pytest

import dmlab.processes as processes
from dmlab.calibration import C_CHAIN, C_SUD, CONCENTRATION_C
from dmlab.processes import (
    TAIL_MIN_TRIALS,
    FiniteIndexSet,
    _coefficients,
    bernoulli_gaussian_ratio,
    bernoulli_lp,
    concentration_check,
    emp_sup,
    gamma2_upper,
    index_set,
    sudakov_lower,
)
from dmlab.seeding import MC_CHUNK


def test_emp_sup_singleton_bernoulli_is_zero():
    T = index_set(np.array([[0.3, -1.2, 0.8]]))
    est = emp_sup("bernoulli", T, trials=20000, seed=0)
    assert abs(est.value) <= 4 * est.stderr + 1e-12


def test_emp_sup_gaussian_absolute_value():
    T = index_set(np.array([[1.0], [-1.0]]))
    est = emp_sup("gaussian", T, trials=100000, seed=1)
    assert abs(est.value - math.sqrt(2 / math.pi)) <= 4 * est.stderr


def test_emp_sup_exact_enumeration_axes():
    est = emp_sup("bernoulli", index_set(np.eye(16)), method="exactEnumeration")
    assert est.value == 1.0 - 2.0 * 2.0**-16
    assert est.stderr == 0.0


def test_emp_sup_exact_errors():
    with pytest.raises(ValueError):
        emp_sup("gaussian", index_set(np.eye(4)), method="exactEnumeration")
    with pytest.raises(ValueError):
        emp_sup("bernoulli", index_set(np.eye(21)), method="exactEnumeration")
    with pytest.raises(ValueError):
        emp_sup("poisson", index_set(np.eye(4)))
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        emp_sup("gaussian", index_set(np.eye(4)), method="bogus")
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            emp_sup("gaussian", index_set(np.eye(4)), trials=trials)


def test_emp_sup_mc_matches_exact():
    rng = np.random.default_rng(2)
    for seed in range(5):
        T = index_set(rng.standard_normal((10, 12)))
        exact = emp_sup("bernoulli", T, method="exactEnumeration")
        mc = emp_sup("bernoulli", T, trials=100000, seed=seed)
        assert abs(mc.value - exact.value) <= 4 * mc.stderr


def test_bernoulli_lp_examples():
    assert bernoulli_lp([1, 0, 0, 0], 4) == 1.0
    assert bernoulli_lp(np.ones(16), 16) == 16.0
    assert bernoulli_lp(np.ones(16), 20) == 16.0
    with pytest.raises(ValueError, match="p must be >= 1"):
        bernoulli_lp([1.0, 2.0], 0)
    val = bernoulli_lp(np.ones(12), 2)
    assert val == pytest.approx(2 + math.sqrt(2) * math.sqrt(10), rel=1e-12)


def test_bernoulli_lp_bounds_and_monotonicity():
    # The surrogate is monotone while the head gain dominates, which fails
    # once p nears the support size (at p = ell the sqrt(p)-weighted last
    # coordinate drops out of the tail), so monotonicity is asserted on the
    # first half of the range only; the term-dropping bounds are exact.
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.standard_normal(15)
        srt = np.sort(np.abs(a))[::-1]
        prev = 0.0
        for p in range(1, 18):
            v = bernoulli_lp(a, p)
            assert v >= srt[:p].sum() - 1e-12
            assert v >= math.sqrt(p) * np.linalg.norm(srt[p:]) - 1e-12
            if p <= 7:
                assert v >= prev - 1e-12
                prev = v


def test_bernoulli_lp_nonmonotone_at_support_edge():
    # flat vector: value(ell-1) = ell-1 + sqrt(ell-1) exceeds value(ell) = ell
    ell = 15
    a = np.ones(ell)
    assert bernoulli_lp(a, ell - 1) > bernoulli_lp(a, ell)


def test_gamma2_singleton_and_pair():
    val, seq = gamma2_upper(index_set(np.array([[3.0, 4.0]])))
    assert val == pytest.approx(5.0, rel=1e-12)
    val, seq = gamma2_upper(index_set(np.array([[0.0, 0.0], [3.0, 4.0]])))
    assert val == pytest.approx(5.0, rel=1e-12)


def test_gamma2_admissible_sequence_invariants():
    rng = np.random.default_rng(4)
    T = index_set(rng.standard_normal((40, 6)))
    val, seq = gamma2_upper(T)
    assert len(seq.level_indices[0]) == 1
    for s, level in enumerate(seq.level_indices):
        cap = 1 if s == 0 else 2 ** (2**s)
        assert len(level) <= cap
    # nearest-point property of every assignment
    V = T.vectors
    for s, level in enumerate(seq.level_indices):
        pts = V[level]
        for v_idx in range(T.size):
            d_assigned = np.linalg.norm(V[v_idx] - V[seq.assignments[s][v_idx]])
            d_best = np.linalg.norm(pts - V[v_idx], axis=1).min()
            assert d_assigned == pytest.approx(d_best, abs=1e-12)


def test_gamma2_dominates_half_diameter():
    rng = np.random.default_rng(5)
    for _ in range(20):
        T = index_set(rng.standard_normal((25, 7)))
        val, _ = gamma2_upper(T)
        D = np.linalg.norm(T.vectors[:, None] - T.vectors[None, :], axis=2)
        assert val >= D.max() / 2 - 1e-12


def test_sudakov_examples():
    two = index_set(np.array([[5.0, 0.0], [-5.0, 0.0]]))
    assert sudakov_lower(two) == pytest.approx(C_SUD * 10 * math.sqrt(math.log(2)), rel=1e-12)
    assert sudakov_lower(index_set(np.array([[1.0, 2.0]]))) == 0.0
    same = index_set(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert sudakov_lower(same) == 0.0


def test_sudakov_below_gaussian_sup_on_corpus():
    rng = np.random.default_rng(6)
    for seed in range(50):
        T = index_set(rng.standard_normal((24, 8)))
        est = emp_sup("gaussian", T, trials=3000, seed=seed)
        assert sudakov_lower(T) <= est.value + 4 * est.stderr


def test_chain_sandwich_on_corpus():
    rng = np.random.default_rng(7)
    for seed in range(50):
        T = index_set(rng.standard_normal((32, 8)))
        est = emp_sup("gaussian", T, trials=3000, seed=seed)
        g2, _ = gamma2_upper(T)
        assert sudakov_lower(T) <= est.value + 4 * est.stderr
        assert est.value <= C_CHAIN * g2


def test_concentration_two_atom_table():
    table = concentration_check(index_set(np.eye(1)), trials=10000, seed=0)
    # sup = eps_1: |sup - mean| is ~1 always, so the tail is 1 below x=1,
    # about 1/2 at x=1 (sign splits the two atoms) and 0 beyond
    assert table.empirical[0] == 1.0
    assert table.empirical[-1] == 0.0
    assert abs(table.empirical[1] - 0.5) <= 0.05


def test_concentration_tail_nonincreasing_and_bound_shape():
    rng = np.random.default_rng(8)
    T = index_set(rng.standard_normal((20, 10)))
    table = concentration_check(T, trials=20000, seed=1)
    assert np.all(np.diff(table.empirical) <= 1e-12)
    expected = 2 * np.exp(-CONCENTRATION_C * table.x**2 / table.sigma_star**2)
    assert np.allclose(table.bound, expected)


def test_concentration_requires_enough_trials():
    with pytest.raises(ValueError):
        concentration_check(index_set(np.eye(2)), trials=100, seed=0)


def test_ratio_conventions():
    assert bernoulli_gaussian_ratio(index_set(np.zeros((1, 3))), trials=2000, seed=0) == 1.0
    r = bernoulli_gaussian_ratio(index_set(np.array([[2.0, 0.0]])), trials=20000, seed=1)
    assert math.isfinite(r)


def test_ratio_decays_on_cross_polytope():
    # bernoulli sup is exactly 1 on +-e_i; gaussian sup is E max |g_i|
    vals = {}
    for ell in (8, 128):
        T = index_set(np.vstack([np.eye(ell), -np.eye(ell)]))
        vals[ell] = bernoulli_gaussian_ratio(T, trials=20000, seed=2)
    assert vals[128] < vals[8]
    assert vals[128] < 0.55


def test_ratio_spread_vectors_bounded_below():
    rng = np.random.default_rng(9)
    for ell in (8, 32, 128):
        signs = rng.integers(0, 2, size=(16, ell)) * 2 - 1
        T = index_set(signs / math.sqrt(ell))
        assert bernoulli_gaussian_ratio(T, trials=20000, seed=3) >= 0.5


@pytest.mark.parametrize("vectors, match", [
    (np.zeros((0, 3)), "nonempty"),
    (np.zeros(3), "nonempty"),
    (np.array([[1.0, math.nan]]), "finite"),
    (np.array([[1.0, math.inf]]), "finite"),
], ids=["no-rows", "one-dimensional", "nan", "inf"])
def test_index_set_rejects_empty_and_non_finite_vectors(vectors, match):
    with pytest.raises(ValueError, match=match):
        FiniteIndexSet(vectors)


@pytest.mark.parametrize("vectors, shape", [([], r"\(1, 0\)"), (np.empty((3, 0)), r"\(3, 0\)")],
                         ids=["empty-list", "no-columns"])
def test_index_set_rejects_vectors_in_R0(vectors, shape):
    # np.atleast_2d turns [] into one row of length 0, a point of R^0.
    match = rf"index set must be nonempty and 2-D, not of shape {shape}"
    with pytest.raises(ValueError, match=match):
        index_set(vectors)


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_coefficients_are_the_gaussian_and_sign_laws(kind):
    draw = _coefficients(kind, np.random.default_rng(4), 5)
    got = np.concatenate([draw(3), draw(7)])
    rng = np.random.default_rng(4)
    if kind == "gaussian":
        want = [rng.standard_normal((3, 5)), rng.standard_normal((7, 5))]
    else:
        want = [(rng.integers(0, 2, size=(c, 5)) * 2 - 1).astype(float) for c in (3, 7)]
    assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("trials, error", [(True, TypeError), (2.5, TypeError), (0, ValueError)])
def test_trials_are_checked_at_the_boundary(trials, error):
    T = index_set(np.eye(2))
    with pytest.raises(error, match="^trials must be"):
        emp_sup("gaussian", T, trials=trials)
    with pytest.raises(error, match="^trials must be"):
        bernoulli_gaussian_ratio(T, trials=trials)


@pytest.mark.parametrize("trials, error", [
    (True, TypeError), (TAIL_MIN_TRIALS + 0.5, TypeError), (0, ValueError),
])
def test_tail_trials_are_checked_at_the_boundary(trials, error):
    with pytest.raises(error, match="trials"):
        concentration_check(index_set(np.eye(2)), trials=trials)


def test_numpy_integer_trials_are_accepted():
    T = index_set(np.eye(2))
    assert emp_sup("gaussian", T, trials=np.int64(50)) == emp_sup("gaussian", T, trials=50)


def _suprema(T):
    """Every supremum path at ell = 15: both Monte-Carlo kinds over one whole
    chunk and a tail chunk, exact enumeration over two 2^14-pattern blocks,
    and every field of the concentration tail."""
    tail = concentration_check(T, trials=TAIL_MIN_TRIALS, seed=3)
    return [emp_sup("gaussian", T, trials=MC_CHUNK + 300, seed=1),
            emp_sup("bernoulli", T, trials=MC_CHUNK + 300, seed=2),
            emp_sup("bernoulli", T, method="exactEnumeration"),
            tail.x, tail.empirical, tail.bound, tail.sigma_star, tail.sup_mean]


def _unblocked_suprema(monkeypatch, T):
    """`_suprema` with each chunk's maxima taken from the whole product, as before blocking."""
    with monkeypatch.context() as m:
        m.setattr(processes, "_row_max", lambda C, V: (C @ V).max(axis=1))
        return _suprema(T)


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        if isinstance(g, np.ndarray):
            assert g.tobytes() == w.tobytes()
        else:
            assert g == w


@pytest.mark.parametrize("size", [1, 7, 256])
def test_blocked_suprema_equal_the_whole_product_bit_for_bit(monkeypatch, size):
    # At the module's block size, sets of 1 and 7 vectors take each chunk in one
    # block and 256 vectors take blocks of 256 rows with tails of 44 and 16 rows.
    T = index_set(np.random.default_rng(size).standard_normal((size, 15)))
    _assert_same_bits(_suprema(T), _unblocked_suprema(monkeypatch, T))


@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("size", [1, 7, 256])
def test_row_blocks_and_their_tails_cover_every_row(monkeypatch, size, rows):
    # Each vector is +-2^j e_k, so each product entry is one exact term and any
    # BLAS partition of the rows gives the same bits: only the blocking shows.
    # On general vectors the BLAS may round a few entries of such small blocks
    # differently from the whole product (see processes._row_max).
    i = np.arange(size)
    V = np.zeros((size, 15))
    V[i, i % 15] = (-1.0) ** i * 2.0 ** (i % 5)
    T = index_set(V)
    monkeypatch.setattr(processes, "_SUP_BLOCK_BYTES", 8 * size * rows)
    _assert_same_bits(_suprema(T), _unblocked_suprema(monkeypatch, T))


@pytest.mark.parametrize("size", [7, 255])
def test_small_row_blocks_move_general_suprema_by_rounding_at_most(monkeypatch, size):
    # The BLAS may round a product entry by the row partition, most of all in
    # blocks of a few rows: the estimates then agree to rounding, not bits.
    T = index_set(np.random.default_rng(size).standard_normal((size, 15)))
    monkeypatch.setattr(processes, "_SUP_BLOCK_BYTES", 8 * size * 3)
    got, want = _suprema(T)[:3], _unblocked_suprema(monkeypatch, T)[:3]
    for g, w in zip(got, want):
        assert g.value == pytest.approx(w.value, rel=1e-12)
        assert g.stderr == pytest.approx(w.stderr, rel=1e-12)


@pytest.mark.parametrize("p", [True, 1.5, 0, "2"])
def test_bernoulli_lp_takes_an_integer_p(p):
    with pytest.raises(ValueError, match="p must be >= 1"):
        bernoulli_lp([1.0, 2.0, 3.0], p)
