import math
from collections import namedtuple
from itertools import combinations

import numpy as np
import pytest

from dmlab import events
from dmlab.calibration import SPARSE_HEAVYTAIL_C, SPARSE_SUBGAUSSIAN_C
from dmlab.ensembles import EnsembleSpec, sample_matrix
from dmlab.events import (
    _submatrix_smax,
    _swap_round,
    _witness_vector,
    check_event_A,
    check_event_constants,
    singular_extremes,
    sparse_profile,
    sparse_supremum,
)
from dmlab.seeding import _check_matrix, child_seed


def test_extremes_orthonormal_and_diagonal():
    assert singular_extremes(np.eye(5)) == (1.0, 1.0)
    smin, smax = singular_extremes(np.diag([3.0, 1.0]))
    assert smin == pytest.approx(1.0, rel=1e-8)
    assert smax == pytest.approx(3.0, rel=1e-8)


def test_extremes_match_lapack_on_tall_wide_and_square():
    rng = np.random.default_rng(0)
    for shape in ((40, 12), (12, 40), (64, 64)):
        M = rng.standard_normal(shape)
        sv = np.linalg.svd(M, compute_uv=False)
        smin, smax = singular_extremes(M)
        assert abs(smax - sv[0]) <= 1e-12 * sv[0]
        assert abs(smin - sv[-1]) <= 1e-12 * sv[-1]


def test_extremes_match_lapack_when_both_sides_exceed_64():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((90, 70))
    sv = np.linalg.svd(M, compute_uv=False)
    smin, smax = singular_extremes(M)
    assert abs(smax - sv[0]) <= 1e-12 * sv[0]
    assert abs(smin - sv[-1]) <= 1e-12 * sv[-1]


def test_extremes_zero_matrix():
    smin, smax = singular_extremes(np.zeros((3, 5)))
    assert (smin, smax) == (0.0, 0.0)


def test_extremes_match_lapack_on_wide_gaussian():
    M = np.random.default_rng(0).standard_normal((200, 400))
    sv = np.linalg.svd(M, compute_uv=False)
    smin, smax = singular_extremes(M)
    assert abs(smax - sv[0]) <= 1e-12 * sv[0]
    assert abs(smin - sv[-1]) <= 1e-12 * sv[-1]


def test_bai_yin_interval_gaussian():
    vals_max, vals_min = [], []
    for seed in range(10):
        M = np.random.default_rng(seed).standard_normal((20, 2000))
        smin, smax = singular_extremes(M)
        vals_max.append(smax / math.sqrt(2000))
        vals_min.append(smin / math.sqrt(2000))
    assert 1.05 <= np.median(vals_max) <= 1.15
    assert 0.85 <= np.median(vals_min) <= 0.95


def test_sparse_identity_columns():
    s = sparse_supremum(np.eye(6), 2, method="exact")
    assert s.value == pytest.approx(1.0, rel=1e-12)
    assert s.support == (0, 1)  # lexicographic tie-break
    assert np.count_nonzero(s.witness) == 1  # top singular vector is an axis


def test_sparse_full_support_equals_operator_norm():
    X = np.random.default_rng(2).standard_normal((6, 9))
    s = sparse_supremum(X, 9)
    assert s.method == "exact"
    assert s.value == pytest.approx(np.linalg.svd(X, compute_uv=False)[0], rel=1e-7)


def test_sparse_exact_budget_error_mentions_greedy():
    X = np.zeros((4, 60))
    with pytest.raises(ValueError, match="greedy"):
        sparse_supremum(X, 20, method="exact")


def test_sparse_witness_realizes_value():
    X = np.random.default_rng(3).standard_normal((5, 12))
    s = sparse_supremum(X, 3, method="exact")
    assert np.linalg.norm(s.witness) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(X @ s.witness) == pytest.approx(s.value, rel=1e-9)
    assert np.count_nonzero(s.witness) <= 3


def test_greedy_below_exact_and_usually_tight():
    hits = 0
    for seed in range(10):
        X = np.random.default_rng(seed).standard_normal((6, 14))
        ex = sparse_supremum(X, 3, method="exact")
        gr = sparse_supremum(X, 3, method="greedy", restarts=20, seed=seed)
        assert gr.value <= ex.value + 1e-9
        hits += gr.value >= 0.95 * ex.value
    assert hits >= 9


def test_sparse_validation():
    X = np.zeros((3, 5))
    with pytest.raises(ValueError):
        sparse_supremum(X, 0)
    with pytest.raises(ValueError):
        sparse_supremum(X, 6)
    for k in (1, 2, 5):  # k = 1 and k = m enumerate whatever the method, but check it
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            sparse_supremum(X, k, method="magic")


@pytest.mark.parametrize("columns, match", [
    (np.where(np.arange(24).reshape(3, 8) == 13, np.nan, 1.0), "columns must be finite"),
    (np.ones(8), r"columns must be nonempty and 2-D, not of shape \(8,\)"),
    (np.ones((2, 3, 8)), r"columns must be nonempty and 2-D, not of shape \(2, 3, 8\)"),
    (np.ones((0, 8)), r"columns must be nonempty and 2-D, not of shape \(0, 8\)"),
])
def test_bad_columns_are_rejected_before_any_svd(columns, match, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(ValueError, match=match):
        check_event_A(columns, kappa1=2.0, delta=0.2, theta=0.2)
    for k in (1, 2):
        with pytest.raises(ValueError, match=match):
            sparse_supremum(columns, k)
    with pytest.raises(ValueError, match=match):
        sparse_profile(columns, [1])


@pytest.mark.parametrize("k", [2.5, 2.0, True, np.float64(2.0), "2"])
@pytest.mark.parametrize("method", ["greedy", "exact"])
def test_sparse_supremum_rejects_a_k_that_is_not_an_integer(k, method):
    X = np.random.default_rng(0).standard_normal((3, 8))
    with pytest.raises(ValueError, match=r"sparsity k must be in \[1, 8\]"):
        sparse_supremum(X, k, method=method)


def test_sparse_supremum_takes_numpy_integers():
    X = np.random.default_rng(0).standard_normal((3, 8))
    got = sparse_supremum(X, np.int64(2), restarts=np.int32(3), seed=4)
    _assert_bit_identical(got, _reference_greedy(X, 2, 3, 4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["greedy", "exact"])
def test_sparse_supremum_rejects_non_finite_columns(bad, method):
    X = np.random.default_rng(0).standard_normal((3, 8))
    X[1, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        sparse_supremum(X, 2, method=method)


# The swap search and the exact enumeration as they were before the search
# pruned candidates by a closed-form bound and the enumeration was batched,
# kept verbatim as the reference of the bit-identity tests below.
def _reference_swap_values(X, support, i, cand):
    d = X.shape[0]
    rest = [s for s in support if s != i]
    k = len(rest) + 1
    B = X[:, cand]                              # d x c
    c = B.shape[1]
    if k <= d:
        sub = X[:, rest]                        # d x (k-1)
        g0 = sub.T @ sub
        cross = sub.T @ B                       # (k-1) x c
        grams = np.empty((c, k, k))
        grams[:, :k - 1, :k - 1] = g0
        grams[:, :k - 1, k - 1] = cross.T
        grams[:, k - 1, :k - 1] = cross.T
        grams[:, k - 1, k - 1] = (B * B).sum(axis=0)
    else:
        sub = X[:, rest]
        g0 = sub @ sub.T                        # d x d
        grams = g0[None, :, :] + B.T[:, :, None] * B.T[:, None, :]
    top = np.linalg.eigvalsh(grams)[:, -1]
    return np.sqrt(np.maximum(top, 0.0))


def _reference_greedy(X, k, restarts, seed):
    _, m = X.shape
    best_val, best_sup = -1.0, None
    for r in range(restarts):
        rng = np.random.default_rng(child_seed(seed, r))
        support = sorted(int(i) for i in rng.choice(m, size=k, replace=False))
        val = _submatrix_smax(X[:, support])
        for _ in range(100):
            in_support = np.zeros(m, dtype=bool)
            in_support[support] = True
            cand = np.flatnonzero(~in_support)
            swap, swap_val = None, val
            if cand.size:
                for i in support:
                    vals = _reference_swap_values(X, support, i, cand)
                    jbest = int(np.argmax(vals))
                    if vals[jbest] > swap_val + 1e-12:
                        swap_val, swap = float(vals[jbest]), (i, int(cand[jbest]))
            if swap is None:
                break
            support = sorted([s for s in support if s != swap[0]] + [swap[1]])
            val = swap_val
        sup_t = tuple(support)
        if val > best_val or (val == best_val and sup_t < best_sup):
            best_val, best_sup = val, sup_t
    return best_val, best_sup, _witness_vector(X[:, list(best_sup)], best_sup, m)


def _reference_exact(X, k):
    _, m = X.shape
    best_val, best_sup = -1.0, None
    for sup in combinations(range(m), k):
        val = _submatrix_smax(X[:, sup])
        if val > best_val:
            best_val, best_sup = val, sup
    return best_val, best_sup, _witness_vector(X[:, best_sup], best_sup, m)


def _search_cases():
    rng = np.random.default_rng(8)
    gauss = rng.standard_normal((5, 40))
    dup = np.concatenate([gauss[:, :12], gauss[:, :12]], axis=1)  # exact value ties
    # each column next to a copy moved by 1e-15 to 1e-13 relative, so swap
    # values differ by less than the 1e-12 acceptance margin
    near = np.repeat(gauss[:, :12], 2, axis=1)
    near[:, 1::2] *= 1 + rng.choice([-1, 1], 12) * 10 ** rng.uniform(-15, -13, 12)
    return {
        "k=1": (gauss, 1),
        "k=m": (gauss[:, :9], 9),
        "k<=d": (gauss, 4),
        "k=d": (gauss, 5),
        "k>d": (gauss, 9),
        "duplicated columns": (dup, 3),
        "duplicated columns k>d": (dup, 7),
        "zero matrix": (np.zeros((4, 20)), 3),
        "heavy-tailed": (rng.standard_t(2.5, size=(6, 48)), 4),
        "heavy-tailed k>d": (rng.standard_t(2.5, size=(3, 30)), 5),
        **{f"near ties k={k}": (near, k) for k in (2, 4, 5, 8)},
    }


def _assert_bit_identical(got, ref):
    value, support, witness = ref
    assert np.float64(got.value).tobytes() == np.float64(value).tobytes()
    assert got.support == tuple(support)
    assert got.witness.tobytes() == witness.tobytes()


@pytest.mark.parametrize("case", sorted(_search_cases()))
def test_greedy_matches_reference_search_bit_for_bit(case):
    X, k = _search_cases()[case]
    for seed in (0, 1):
        got = sparse_supremum(X, k, method="greedy", restarts=6, seed=seed)
        if k in (1, X.shape[1]):  # m supports or one: greedy enumerates them
            assert got.method == "exact"
            _assert_bit_identical(got, _reference_exact(X, k))
        else:
            _assert_bit_identical(got, _reference_greedy(X, k, 6, seed))


def test_greedy_takes_the_earlier_swap_within_the_acceptance_margin():
    # At a scale of 1e-4 the bound's 1e-9 relative slack is below the 1e-12
    # acceptance margin.  From support (0, 1), swapping out column 0 for column
    # 2 is worth about 5e-13 less than swapping out column 1; the first-
    # improvement rule takes the earlier swap, so the floor must keep it.
    X = 1e-4 * np.array([[1.0, 1.0 - 1e-7, 0.3], [0.0, 0.0, 1.6]])
    start = np.random.default_rng(child_seed(6, 0)).choice(3, size=2, replace=False)
    assert sorted(start) == [0, 1]
    got = sparse_supremum(X, 2, restarts=1, seed=6)
    assert got.support == (1, 2)
    _assert_bit_identical(got, _reference_greedy(X, 2, 1, 6))


@pytest.mark.parametrize("chunk_bytes", [events._CHUNK_BYTES, 1, 4096])
@pytest.mark.parametrize("case", sorted(_search_cases()))
def test_exact_matches_reference_enumeration_bit_for_bit(case, chunk_bytes, monkeypatch):
    # chunk_bytes 1 puts one support in each chunk, 4096 a few dozen, so ties
    # also meet across chunk boundaries
    monkeypatch.setattr(events, "_CHUNK_BYTES", chunk_bytes)
    X, k = _search_cases()[case]
    X = X[:, :14]  # C(14, 9) = 2002 supports at most
    got = sparse_supremum(X, k, method="exact")
    _assert_bit_identical(got, _reference_exact(X, k))


@pytest.mark.parametrize("seed, support, value", [
    (0, (14, 104, 270, 478), 9.337059000825937),
    (1, (138, 162, 427, 481), 8.875940928171655),
    (2, (118, 227, 309, 427), 8.565210392754214),
    (3, (25, 141, 338, 392), 9.128636630068993),
])
def test_greedy_on_event_sparse_shapes_keeps_its_supports(seed, support, value):
    # Pinned results of the greedy search on the event_sparse shapes
    # (d = 16, m = 512, k = 4), which builds its candidate block once per round.
    X = np.random.default_rng(seed).standard_normal((16, 512))
    got = sparse_supremum(X, 4, restarts=20, seed=seed)
    assert got.support == support
    assert got.value == pytest.approx(value, rel=1e-13, abs=0.0)
    _assert_bit_identical(got, _reference_greedy(X, 4, 20, seed))


@pytest.mark.parametrize("case", sorted(c for c, (X, k) in _search_cases().items()
                                         if 1 < k < X.shape[1]))  # the swap search's k
def test_swap_bound_keeps_every_candidate_that_reaches_the_floor(case):
    X, k = _search_cases()[case]
    m = X.shape[1]
    rng = np.random.default_rng(5)
    for _ in range(3):
        support = sorted(int(s) for s in rng.choice(m, size=k, replace=False))
        cand = np.setdiff1d(np.arange(m), support)
        ref = np.array([_reference_swap_values(X, support, i, cand) for i in support])
        best = ref.max()
        for val in (0.0, _submatrix_smax(X[:, support]), *np.quantile(ref, [0.5, 0.99]),
                    best - 1e-12, best):
            floor, pos, col, vals = _swap_round(X, support, cand, val)
            # the scouts' best value is one of ref, so the floor is at most the
            # round's best value less the (k + 1) * 1e-12 margin
            assert val + 1e-12 <= floor <= max(val + 1e-12, best - (k + 1) * 1e-12)
            reached = set(zip(*np.nonzero(ref >= floor)))
            assert reached <= set(zip(pos.tolist(), col.tolist()))
            assert vals.tobytes() == ref[pos, col].tobytes()


def test_swap_bound_prunes_most_candidates_at_the_best_value():
    # the scouts put the floor just below the round's best value, so of the
    # 4 x 508 swaps only a few reach eigvalsh, the best one among them
    X = np.random.default_rng(9).standard_normal((16, 512))
    support = [3, 70, 200, 411]
    cand = np.setdiff1d(np.arange(512), support)
    best = max(_reference_swap_values(X, support, i, cand).max() for i in support)
    for val in (0.0, _submatrix_smax(X[:, support])):
        _, pos, _, vals = _swap_round(X, support, cand, val)
        assert 1 <= pos.size <= 8
        assert vals.max() == best


@pytest.mark.parametrize("chunk_bytes", [1, 1024])
@pytest.mark.parametrize("case", ["k<=d", "k>d", "near ties k=4", "near ties k=8"])
def test_swap_round_in_chunks_matches_reference_search_bit_for_bit(case, chunk_bytes,
                                                                   monkeypatch):
    # chunk_bytes 1 puts one gram in each eigvalsh call, 1024 a few; the rest
    # grams go to one call whatever their size
    X, k = _search_cases()[case]
    ref = _reference_greedy(X, k, 6, 0)
    monkeypatch.setattr(events, "_CHUNK_BYTES", chunk_bytes)
    batches, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: batches.append(a.shape) or eigvalsh(a))
    _assert_bit_identical(sparse_supremum(X, k, restarts=6, seed=0), ref)
    g = min(k, X.shape[0])
    step = max(1, chunk_bytes // (8 * g * g))
    assert max(n for n, *shape in batches if shape == [g, g] and n != k) <= step


# Largest mean kept grams per round over one draw, from a pilot on draws
# 100-119: 0.73 (k = 2), 1.77 (k = 4) and 6.62 (k = 8) of k (512 - k) swaps
# per round at d = 16 and 20 restarts, and 22.9 of 12 x 116 at
# (d, m, k) = (8, 128, 12) and 4 restarts, where the rest grams are d x d.
@pytest.mark.parametrize("k, kept_bound", [(2, 1.5), (4, 3.0), (8, 10.0), (12, 45.0)])
def test_swap_round_makes_three_eigvalsh_calls_and_keeps_few_grams(k, kept_bound,
                                                                   monkeypatch):
    d, m, restarts = (16, 512, 20) if k <= 8 else (8, 128, 4)
    calls, rounds = [], []
    eigvalsh, swap_round = np.linalg.eigvalsh, events._swap_round

    def counted_round(*args):
        before = len(calls)
        out = swap_round(*args)
        rounds.append((len(calls) - before, out[1].size))
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(events, "_swap_round", counted_round)
    for seed in range(4):  # the event_sparse column law
        X = sample_matrix(EnsembleSpec("UniformIsotropic", d, m, vector_axis="cols"), seed)
        first = len(rounds)
        sparse_supremum(X, k, restarts=restarts, seed=seed)
        assert {n for n, _ in rounds[first:]} == {3}
        assert np.mean([kept for _, kept in rounds[first:]]) < kept_bound


@pytest.mark.parametrize("restarts", [0, -1, 2.5, True, np.float64(3.0)])
def test_sparse_supremum_rejects_bad_restarts(restarts):
    X = np.random.default_rng(0).standard_normal((3, 8))
    with pytest.raises(ValueError, match="restarts"):
        sparse_supremum(X, 2, restarts=restarts)
    with pytest.raises(ValueError, match="restarts"):
        check_event_A(X, kappa1=2.0, delta=0.2, theta=0.2, restarts=restarts)


def test_event_zero_matrix_holds():
    rep = check_event_A(np.zeros((4, 40)), kappa1=2.0, delta=0.2, theta=0.2, seed=0)
    assert rep.event_a_holds
    assert rep.lambda_max == 0.0


def test_event_single_heavy_column_fails():
    m = 40
    cols = np.zeros((4, m))
    cols[0, 0] = 2.0 * math.sqrt(m)
    rep = check_event_A(cols, kappa1=2.0, delta=0.24, theta=0.1, seed=0)
    assert not rep.event_a_holds
    assert rep.sparse_sup >= 2.0 * math.sqrt(m) - 1e-9


def test_event_parameter_validation():
    X = np.zeros((2, 8))
    nan = float("nan")
    for kwargs in ({"theta": 0.3}, {"delta": 0.3}, {"kappa1": 0.5},
                   {"theta": nan}, {"delta": nan}, {"kappa1": nan}):
        full = {"kappa1": 2.0, "delta": 0.2, "theta": 0.2, **kwargs}
        with pytest.raises(ValueError):
            check_event_A(X, **full)
        with pytest.raises(ValueError):
            check_event_constants(restarts=20, **full)
    check_event_constants(2.0, 0.2, 0.2, 20)


@pytest.mark.parametrize("theta, k_event", [(1.5 / 64, 1)])
def test_event_tags_the_largest_column_norm_exact(theta, k_event):
    X = sample_matrix(EnsembleSpec("UniformIsotropic", 8, 64, vector_axis="cols"), 5)
    rep = check_event_A(X, kappa1=2.0, delta=0.2, theta=theta, seed=1)
    assert rep.k_event == k_event
    assert rep.sparse_method == "exact"
    assert rep.sparse_sup == pytest.approx(np.linalg.norm(X, axis=0).max(), rel=1e-12)


def test_sparse_profile_monotone_with_exact_endpoints():
    X = sample_matrix(EnsembleSpec("UniformIsotropic", 8, 64, vector_axis="cols"), 5)
    ks = [2**j for j in range(7)]
    prof = sparse_profile(X, ks[::-1] + [np.int64(4)])  # any order, repeats and numpy ints
    assert list(prof) == ks
    assert prof == _reference_nested_greedy_profile(X, ks)  # what demo 04 printed before
    vals = list(prof.values())
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert prof[1] == pytest.approx(np.linalg.norm(X, axis=0).max(), rel=1e-12)
    assert prof[64] == pytest.approx(singular_extremes(X)[1], rel=1e-12)


@pytest.mark.parametrize("ks", [[0], [65], [2, 2.0], [True], ["4"]])
def test_sparse_profile_rejects_bad_ks(ks):
    X = np.random.default_rng(0).standard_normal((8, 64))
    with pytest.raises(ValueError, match=r"sparsity k must be in \[1, 64\]"):
        sparse_profile(X, ks)


def test_event_vacuous_sparsity_reduces_to_operator_norm():
    # floor(theta m) = 0: only a = 0 is feasible, the sparse condition holds
    X = sample_matrix(EnsembleSpec("LogConcaveSimplex", 8, 64, vector_axis="cols"), 7)
    rep = check_event_A(X, kappa1=2.0, delta=0.01, theta=1e-4, seed=2)
    assert rep.k_event == 0
    assert rep.event_a_holds == (rep.lambda_max <= 2.0)


def test_subgaussian_sparse_scaling_on_desk_grid():
    for d, m in ((6, 32), (8, 64), (12, 128)):
        for k in (1, 2, 4):
            for seed in range(3):
                X = sample_matrix(EnsembleSpec("UniformIsotropic", d, m,
                                               vector_axis="cols"), 1000 + seed)
                val = sparse_supremum(X, k, method="greedy", restarts=8, seed=seed).value
                scale = math.sqrt(d + k * math.log(math.e * m / k))
                assert val <= SPARSE_SUBGAUSSIAN_C * scale


def test_heavy_tailed_sparse_scaling_on_desk_grid():
    for d, m in ((6, 32), (8, 64), (12, 128)):
        for k in (1, 2, 4):
            for seed in range(3):
                X = sample_matrix(EnsembleSpec("HeavyTailedBounded", d, m,
                                               vector_axis="cols"), 2000 + seed)
                val = sparse_supremum(X, k, method="greedy", restarts=8, seed=seed).value
                ref = np.linalg.norm(X, axis=0).max() + (m * k) ** 0.25  # beta = 1
                assert val <= SPARSE_HEAVYTAIL_C * ref


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,)])
def test_singular_extremes_rejects_an_empty_matrix(shape):
    with pytest.raises(ValueError, match="matrix must be nonempty"):
        singular_extremes(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_singular_extremes_rejects_a_non_finite_matrix(bad):
    with pytest.raises(ValueError, match="matrix must be finite, with no NaN or infinity"):
        singular_extremes([[bad, 1.0]])


# check_event_A as it was when it built the nested-greedy profile over the
# whole grid {1, 2, 4, ..., m}, kept verbatim as the reference of the
# bit-identity test below, with its report as its own record.
_ReferenceReport = namedtuple("_ReferenceReport", "lambda_min lambda_max sparse_sup "
                              "sparse_methods k_event event_a_holds")


def _reference_nested_greedy_profile(X, ks):
    d, m = X.shape
    ks = sorted(set(int(k) for k in ks))
    gram = np.zeros((d, d))
    taken = np.zeros(m, dtype=bool)
    u = None
    out = {}
    count = 0
    for k_target in ks:
        while count < k_target:  # the first column is the one of largest norm
            scores = np.abs(u @ X) if count else np.linalg.norm(X, axis=0)
            scores[taken] = -1.0
            j = int(np.argmax(scores))
            taken[j] = True
            gram += np.outer(X[:, j], X[:, j])
            count += 1
            u = np.linalg.eigh(gram)[1][:, -1]
        out[k_target] = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    return out


def _reference_check_event_A(gamma2, kappa1, delta, theta, restarts=20, seed=0):
    check_event_constants(kappa1, delta, theta, restarts)
    X = _check_matrix(gamma2, "columns")
    _, m = X.shape
    sqrt_m = math.sqrt(m)

    smin, smax = singular_extremes(X)
    k_event = int(theta * m)
    k_main = max(1, k_event)

    main = sparse_supremum(X, k_main, restarts=restarts, seed=child_seed(seed, 1))

    grid = sorted({1, k_main, m} | {2**j for j in range(1, int(math.log2(m)) + 1)})
    profile = _reference_nested_greedy_profile(X, [k for k in grid if k < m])
    values, methods = {}, {}
    running = 0.0
    for k in grid:
        val, tag = (smax, "exact") if k == m else (profile[k], "exact" if k == 1 else "greedy")
        if k == k_main and main.value >= val:
            val, tag = main.value, main.method
        running = max(running, val)
        values[k] = running
        methods[k] = tag

    sparse_ok = True if k_event < 1 else values[k_main] <= delta * sqrt_m
    holds = (smax / sqrt_m <= kappa1) and sparse_ok
    return _ReferenceReport(
        lambda_min=smin / sqrt_m,
        lambda_max=smax / sqrt_m,
        sparse_sup=values,
        sparse_methods=methods,
        k_event=k_event,
        event_a_holds=holds,
    )


def _bits(x):
    return np.float64(x).tobytes()


def _assert_matches_the_full_profile(law, d, m, theta, k_event):
    for s in range(20):
        X = sample_matrix(EnsembleSpec(law, d, m, vector_axis="cols"), child_seed(30, s))
        rep = check_event_A(X, kappa1=1.25, delta=0.2, theta=theta, restarts=4, seed=s)
        ref = _reference_check_event_A(X, kappa1=1.25, delta=0.2, theta=theta, restarts=4,
                                       seed=s)
        k_main = max(1, k_event)
        assert rep.k_event == ref.k_event == k_event
        assert _bits(rep.sparse_sup) == _bits(ref.sparse_sup[k_main])
        assert rep.sparse_method == ref.sparse_methods[k_main]
        assert rep.event_a_holds == ref.event_a_holds
        assert _bits(rep.lambda_min) == _bits(ref.lambda_min)
        assert _bits(rep.lambda_max) == _bits(ref.lambda_max)


@pytest.mark.parametrize("law", ["UniformIsotropic", "LogConcaveSimplex", "GaussianIID"])
@pytest.mark.parametrize("d, theta, k_event", [
    (8, 1e-4, 0), (8, 1.5 / 64, 1), (8, 4.5 / 64, 4), (4, 6.5 / 64, 6), (8, 0.2, 12),
])
def test_event_report_matches_the_full_profile_bit_for_bit(law, d, theta, k_event):
    # 20 draws of d x 64 columns.  kappa1 = 1.25 is near the median lambda_max
    # at d = 8, so at k_event = 0 the event holds on some draws and not on
    # others; delta sqrt(m) = 1.6 is below the column norms, so at k_event >= 1
    # the sparse condition fails.
    _assert_matches_the_full_profile(law, d, 64, theta, k_event)


@pytest.mark.parametrize("law", ["UniformIsotropic", "LogConcaveSimplex", "GaussianIID"])
@pytest.mark.parametrize("m", [1, 3])
def test_event_report_matches_the_full_profile_at_small_m(law, m):
    # k_event = 0; at m = 1, k_main = m and the report takes sigma_max
    _assert_matches_the_full_profile(law, 8, m, 0.2, 0)


def test_event_grows_the_profile_only_up_to_k_main(monkeypatch):
    # the event_sparse shapes: d = 16, m = 512, k_main = floor(4.5 / 512 * 512) = 4;
    # the profile over the whole grid took one eigh call per column up to m / 2
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    X = sample_matrix(EnsembleSpec("UniformIsotropic", 16, 512, vector_axis="cols"), 3)
    rep = check_event_A(X, kappa1=2.0, delta=0.2, theta=4.5 / 512, seed=3)
    assert rep.k_event == 4
    assert len(calls) <= 4


@pytest.mark.parametrize("m, theta, profile_ks", [(64, 4.5 / 64, [[4]]), (1, 0.2, [])])
def test_event_asks_the_profile_for_k_main_only(monkeypatch, m, theta, profile_ks):
    # at m = 1, k_main = m: the report takes sigma_max and asks the profile for nothing
    calls, profile = [], events.sparse_profile
    monkeypatch.setattr(events, "sparse_profile",
                        lambda X, ks: calls.append(list(ks)) or profile(X, ks))
    X = sample_matrix(EnsembleSpec("UniformIsotropic", 8, m, vector_axis="cols"), 3)
    check_event_A(X, kappa1=2.0, delta=0.2, theta=theta, seed=3)
    assert calls == profile_ks
