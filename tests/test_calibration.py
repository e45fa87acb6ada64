import json
import pickle
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from confdet.calibration import (
    DIMENSION_EPS,
    MIN_CLASS_FIT,
    SCOPE_GLOBAL,
    SCOPE_PER_CLASS,
    SCOPE_RAW,
    SCOPES,
    SIGMA_FLOOR,
    SigmaCalibrator,
    calibrated_sigma_array,
    evaluate_map,
    fit_calibrator_arrays,
    isotonic_fit,
    load_calibrator,
    pava_fit,
    recalibrate,
    save_calibrator,
    sigma_plan,
)
from confdet.calibration import _fit as fit_plan
from confdet.calibration import _normalize, _pool, _running_sums
from confdet.core import CalibrationMap, records_to_arrays
from confdet.errors import DataError, EmptyFit, InvalidClass, OutOfRange

import reference
from conftest import make_record

# Some test names keep the one-record functions their worked examples were
# written for (`normalize_sigma`, `fit_calibrator` and `apply_calibrated_sigma`);
# each now runs the same numbers through the array kernel.


def unit_pairs(xs, ys):
    return [(x, y, 1.0) for x, y in zip(xs, ys)]


def _reference_pava(pairs):
    """The pure-Python block-stack fit that the array kernel replaced.

    Sorts by x, merges duplicate x by weighted mean, then keeps a stack of
    blocks and merges the top two while their means decrease.
    """
    pts = sorted(((float(x), float(y), float(w)) for x, y, w in pairs), key=lambda t: t[0])
    xs: list[float] = []
    ys: list[float] = []
    ws: list[float] = []
    for x, y, w in pts:
        if xs and x == xs[-1]:
            tot = ws[-1] + w
            ys[-1] = (ys[-1] * ws[-1] + y * w) / tot
            ws[-1] = tot
        else:
            xs.append(x)
            ys.append(y)
            ws.append(w)
    val: list[float] = []
    wgt: list[float] = []
    start: list[int] = []
    for i, (y, w) in enumerate(zip(ys, ws)):
        val.append(y)
        wgt.append(w)
        start.append(i)
        while len(val) > 1 and val[-2] > val[-1]:
            merged_w = wgt[-2] + wgt[-1]
            merged_v = (val[-2] * wgt[-2] + val[-1] * wgt[-1]) / merged_w
            val[-2:] = [merged_v]
            wgt[-2:] = [merged_w]
            start[-2:] = [start[-2]]
    return CalibrationMap(breakpoints=tuple(xs[i] for i in start), values=tuple(val))


def _reference_per_class_sigma(calibrator, pred, sigma, gt_class):
    """The per-(class, corner) ``evaluate_map`` loop that ``calibrated_sigma_array`` replaced."""
    width = pred[:, 2] - pred[:, 0]
    height = pred[:, 3] - pred[:, 1]
    usable = (width > DIMENSION_EPS) & (height > DIMENSION_EPS)
    dims = np.stack([width, height, width, height], axis=-1)[usable]
    x = sigma[usable] / dims
    cls = gt_class[usable]
    mapped = np.empty_like(x)
    for corner in range(4):
        for k in np.unique(cls):
            sel = cls == k
            cmap = calibrator.maps.get((int(k), corner), calibrator.global_map)
            mapped[sel, corner] = evaluate_map(cmap, x[sel, corner])
    out = sigma.copy()
    out[usable] = np.maximum(mapped * dims, SIGMA_FLOOR)
    return out


def assert_same_step_function(cmap, ref, probes):
    """Equal maps: same breakpoints, except one of two adjacent blocks whose
    values are equal up to the last bits (kept apart by one fit, pooled by
    the other), and values within 1e-12 at every probe."""
    for a, b in ((cmap, ref), (ref, cmap)):
        for j, bp in enumerate(a.breakpoints):
            if bp not in b.breakpoints:
                assert j > 0 and a.values[j] == pytest.approx(a.values[j - 1], rel=1e-12, abs=1e-12)
    assert_allclose(evaluate_map(cmap, probes), evaluate_map(ref, probes), rtol=1e-12, atol=1e-12)


def random_points(rng, n):
    """Points with tied x, tied (rounded) y and unit or non-unit weights."""
    x = rng.integers(0, max(1, n // 3), size=n).astype(float) if rng.random() < 0.5 else rng.uniform(0, 10, size=n)
    y = rng.uniform(0, 5) * x + rng.normal(size=n) * 10  # a trend leaves many blocks
    if rng.random() < 0.5:
        y = np.round(y)
    w = np.ones(n) if rng.random() < 0.5 else rng.uniform(0.1, 5.0, size=n)
    return x, y, w


# ---------------------------------------------------------------- pava


def test_pava_reproduces_monotone_input():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [0.5, 0.5, 1.0, 2.0]
    cmap = pava_fit(unit_pairs(xs, ys))
    for x, y in zip(xs, ys):
        assert evaluate_map(cmap, x) == pytest.approx(y)


def test_pava_pools_single_violation():
    cmap = pava_fit(unit_pairs([1.0, 2.0], [2.0, 1.0]))
    assert cmap.breakpoints == (1.0,)
    assert cmap.values == (1.5,)


def test_pava_three_point_example():
    cmap = pava_fit(unit_pairs([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]))
    assert evaluate_map(cmap, 1.0) == pytest.approx(1.0)
    assert evaluate_map(cmap, 2.0) == pytest.approx(2.5)
    assert evaluate_map(cmap, 3.0) == pytest.approx(2.5)


def test_pava_weighted_pooling():
    # weights tilt the pooled mean toward the heavier point
    cmap = pava_fit([(1.0, 2.0, 3.0), (2.0, 1.0, 1.0)])
    assert cmap.values == ((2.0 * 3.0 + 1.0 * 1.0) / 4.0,)


def test_pava_merges_duplicate_x():
    cmap = pava_fit([(1.0, 0.0, 1.0), (1.0, 2.0, 1.0), (2.0, 3.0, 1.0)])
    assert cmap.breakpoints == (1.0, 2.0)
    assert cmap.values == (1.0, 3.0)


def test_pava_output_always_monotone():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        xs = rng.uniform(0, 10, size=n)
        ys = rng.normal(size=n)
        ws = rng.uniform(0.1, 5.0, size=n)
        cmap = pava_fit(zip(xs, ys, ws))
        assert all(b1 < b2 for b1, b2 in zip(cmap.breakpoints, cmap.breakpoints[1:]))
        assert all(v1 <= v2 for v1, v2 in zip(cmap.values, cmap.values[1:]))


def test_pava_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        xs = np.sort(rng.uniform(0, 10, size=n))
        ys = rng.normal(size=n)
        first = pava_fit(unit_pairs(xs, ys))
        fitted = [evaluate_map(first, x) for x in xs]
        second = pava_fit(unit_pairs(xs, fitted))
        refit = [evaluate_map(second, x) for x in xs]
        assert_allclose(refit, fitted, rtol=1e-12, atol=1e-12)


def test_pava_input_validation():
    with pytest.raises(EmptyFit):
        pava_fit([])
    with pytest.raises(OutOfRange):
        pava_fit([(1.0, 1.0, 0.0)])


def test_isotonic_fit_matches_reference_pava():
    rng = np.random.default_rng(11)
    n_breakpoints_differ = 0
    for _ in range(300):
        x, y, w = random_points(rng, int(rng.integers(1, 400)))
        cmap = isotonic_fit(x, y, w)
        ref = _reference_pava(zip(x, y, w))
        n_breakpoints_differ += cmap.breakpoints != ref.breakpoints
        probes = np.concatenate([x, rng.uniform(x.min() - 1, x.max() + 1, size=50)])
        assert_same_step_function(cmap, ref, probes)
    # the equal-value edge is rare; if every fit hit it, the kernel would be wrong
    assert n_breakpoints_differ < 30


def test_isotonic_fit_linear_on_one_pool_per_pass_input():
    # the last point drags every other into its block, but each pass pools
    # only the last two blocks, so passes alone would be quadratic (n passes,
    # minutes at this n); the block stack must take over once the map's
    # passes (twice the bit length of its block count) are spent
    n = 200_000
    y = np.concatenate([np.arange(n, dtype=float), [-float(n) ** 2]])
    start = time.perf_counter()
    cmap = isotonic_fit(np.arange(n + 1, dtype=float), y)
    assert time.perf_counter() - start < 10.0
    assert cmap.breakpoints == (0.0,)
    assert cmap.values[0] == (n * (n - 1) / 2 - n**2) / (n + 1)


def test_isotonic_fit_input_validation():
    with pytest.raises(EmptyFit):
        isotonic_fit([], [])
    with pytest.raises(OutOfRange):
        isotonic_fit([1.0, 2.0], [1.0])
    for bad in ((float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0), (1.0, 1.0, float("nan")), (1.0, 1.0, -1.0)):
        with pytest.raises(OutOfRange):
            isotonic_fit([bad[0]], [bad[1]], [bad[2]])


def fit_batch(maps, weighted: bool) -> list:
    """Each map's ``(breakpoints, values)`` from one call of the kernel on all of
    ``maps`` (each an ``(x, y, w)`` triple), back to back."""
    maps = [tuple(np.asarray(col, dtype=float)[np.argsort(m[0], kind="stable")] for col in m) for m in maps]
    x, y, w = (np.concatenate(col) for col in zip(*maps))
    bounds = np.cumsum([0] + [len(m[0]) for m in maps])
    new = np.concatenate(([True], x[1:] != x[:-1]))
    new[bounds[:-1]] = True
    sums = _running_sums(w * y, bounds, compensated=True) if weighted else _running_sums(y, bounds)
    weights = _running_sums(w, bounds, compensated=True) if weighted else None
    first, values, block_maps = _pool(sums, weights, np.flatnonzero(new), bounds)
    return [(tuple(x[first[a:b]].tolist()), tuple(values[a:b].tolist())) for a, b in zip(block_maps[:-1], block_maps[1:])]


def one_pool_per_pass(n):
    """A map whose every pass pools only its last two blocks, ``n`` passes in all."""
    return np.arange(n + 1, dtype=float), np.concatenate([np.arange(n, dtype=float), [-float(n) ** 2]]), np.ones(n + 1)


map_points = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 8).map(float), st.floats(-1e3, 1e3)),
        st.one_of(st.floats(-1e3, 1e3).map(round).map(float), st.floats(-1e3, 1e3)),
        st.floats(0.01, 100.0),
    ),
    min_size=1,
    max_size=60,
).map(lambda points: tuple(np.array(col) for col in zip(*points)))


@given(st.lists(map_points, min_size=1, max_size=6), st.booleans(), st.none() | st.integers(0, 6), st.integers(20, 300))
def test_property_batched_maps_match_isotonic_fit_alone(maps, weighted, stalled_at, n_stalled):
    # a map's bits depend on its own points only, whatever else is in the
    # batch; the map that pools one block per pass runs out of passes and
    # finishes in the block stack
    if not weighted:
        maps = [(x, y, np.ones_like(x)) for x, y, _ in maps]
    else:  # isotonic_fit takes all-unit weights as no weights, so keep one weight off 1
        maps = [(x, y, np.where(np.arange(len(w)) == 0, 0.5, w) if (w == 1).all() else w) for x, y, w in maps]
    if stalled_at is not None:
        x, y, w = one_pool_per_pass(n_stalled)
        maps.insert(min(stalled_at, len(maps)), (x, y, w * (0.5 if weighted else 1.0)))
    alone = [isotonic_fit(x, y, w if weighted else None) for x, y, w in maps]
    assert fit_batch(maps, weighted) == [(cmap.breakpoints, cmap.values) for cmap in alone]


def test_recalibrate_linear_on_one_pool_per_pass_input():
    # the global map of these rows pools one tied run per pass: 50,000 rows
    # of x 1..50,000 (four tied corners each) and rising y between 1 and 2,
    # then 50,000 rows at one x with y 0 that drag every other into their block
    n = 50_000
    pred = np.tile([0.0, 0.0, 1.0, 1.0], (2 * n, 1))
    sigma = np.repeat(np.concatenate([np.arange(1.0, n + 1), np.full(n, n + 1.0)]), 4).reshape(-1, 4)
    residual = np.concatenate([1.0 + np.arange(n) / n, np.zeros(n)])
    gt = pred + residual[:, None]
    start = time.perf_counter()
    plan = sigma_plan(pred, gt, sigma, np.zeros(2 * n, dtype=int), SCOPE_GLOBAL)
    out, n_excluded, fallback = recalibrate(plan, np.ones(2 * n, dtype=bool))
    assert time.perf_counter() - start < 10.0
    expected = isotonic_fit(sigma, np.abs(pred - gt))
    assert expected.breakpoints == (1.0,)
    assert_array_equal(out, np.full((2 * n, 4), expected.values[0]))
    assert (n_excluded, fallback) == (0, ())


def test_fit_is_non_decreasing_where_running_sums_round():
    # y near 1e6 with noise below the running sums' last bit: block values
    # from prefix differences round, and the fit must still not step down
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 3000))
        x = rng.integers(0, n, size=n).astype(float)
        y = 1e6 + rng.normal(scale=1e-6, size=n)
        for w in (None, rng.uniform(0.01, 100.0, size=n)):
            cmap = isotonic_fit(x, y, w)
            assert (np.diff(cmap.values) >= 0).all()
            assert np.all(np.abs(np.array(cmap.values) - 1e6) < 1e-3)
    pred = np.tile([0.0, 0.0, 1.0, 1.0], (3000, 1))
    gt = pred + 1e6 + rng.normal(scale=1e-6, size=(3000, 4))
    sigma = rng.integers(1, 200, size=(3000, 4)).astype(float)
    labels = rng.integers(0, 3, size=3000)
    for scope in (SCOPE_GLOBAL, SCOPE_PER_CLASS):
        plan = sigma_plan(pred, gt, sigma, labels, scope)
        fit = rng.random(3000) < 0.7
        for _, _, values in fit_plan(plan, fit)[2]:
            assert (np.diff(values) >= 0).all()
        out, _, _ = recalibrate(plan, fit)
        for k in range(3):
            for c in range(4):
                rows = labels == k if scope == SCOPE_PER_CLASS else slice(None)
                order = np.argsort(sigma[rows, c], kind="stable")
                assert (np.diff(out[rows, c][order]) >= 0).all()


# ---------------------------------------------------------------- properties

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
weighted_points = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 8).map(float), finite),
        st.one_of(finite.map(round), finite),
        st.one_of(st.just(1.0), st.floats(0.01, 100.0)),
    ),
    min_size=1,
    max_size=80,
)


def fitted_at_inputs(points):
    x, y, w = (np.array(col) for col in zip(*points))
    return x, y, w, evaluate_map(isotonic_fit(x, y, w), x)


@given(weighted_points)
def test_property_fit_is_non_decreasing(points):
    x, _, _, fitted = fitted_at_inputs(points)
    order = np.argsort(x, kind="stable")
    assert (np.diff(fitted[order]) >= 0).all()


@given(weighted_points)
def test_property_refit_is_idempotent(points):
    x, _, w, fitted = fitted_at_inputs(points)
    refit = evaluate_map(isotonic_fit(x, fitted, w), x)
    assert_allclose(refit, fitted, rtol=1e-12, atol=1e-9)


@given(weighted_points)
def test_property_fit_keeps_weighted_mean(points):
    _, y, w, fitted = fitted_at_inputs(points)
    scale = float(np.sum(w * np.abs(y))) + 1.0
    assert float(np.sum(w * fitted)) == pytest.approx(float(np.sum(w * y)), rel=1e-9, abs=1e-9 * scale)


@given(weighted_points)
def test_property_pava_fit_wraps_isotonic_fit(points):
    x, y, w = (np.array(col) for col in zip(*points))
    wrapped = pava_fit(points)
    direct = isotonic_fit(x, y, w)
    assert wrapped.breakpoints == direct.breakpoints
    assert wrapped.values == direct.values


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 3))
def test_property_per_class_sigma_matches_loop(seed, n_classes, n_single):
    # the first n_single rows each make a class of their own, below MIN_CLASS_FIT,
    # so it falls back (or, on a degenerate box, has no usable row); evaluating
    # on one class more than fitted adds a class without maps
    rng = np.random.default_rng(seed)
    n = 20 * n_classes
    x0 = rng.uniform(0, 500, size=(n, 2))
    wh = rng.uniform(0, 200, size=(n, 2))
    wh[rng.random(n) < 0.05, 0] = 0.0  # some degenerate boxes keep raw sigma
    pred = np.hstack([x0, x0 + wh])
    gt = pred + rng.normal(scale=5.0, size=(n, 4))
    sigma = np.round(rng.uniform(0.5, 5.0, size=(n, 4)), 1)
    gt_class = rng.integers(0, n_classes, size=n)
    gt_class[:n_single] = n_classes + np.arange(n_single)
    calibrator = fit_calibrator_arrays(pred, gt, sigma, gt_class, SCOPE_PER_CLASS)
    usable = (pred[:, 2:] - pred[:, :2] > DIMENSION_EPS).all(axis=1)
    assert {n_classes + i for i in range(n_single) if usable[i]} <= set(calibrator.fallback_keys)
    eval_class = rng.integers(0, n_classes + n_single + 1, size=n)
    assert_array_equal(
        calibrated_sigma_array(calibrator, pred, sigma, eval_class),
        _reference_per_class_sigma(calibrator, pred, sigma, eval_class),
    )


def _reference_calibrator(pred, gt, sigma, gt_class, scope):
    """The per-map ``isotonic_fit`` loop that the presorted plan replaced."""
    if not len(pred):
        raise EmptyFit("no rows")
    dims = (pred[:, 2:] - pred[:, :2])[:, [0, 1, 0, 1]]
    usable = (dims[:, 0] > DIMENSION_EPS) & (dims[:, 1] > DIMENSION_EPS)
    if not usable.any():
        raise EmptyFit("no usable rows")
    x = sigma[usable] / dims[usable]
    y = np.abs(pred - gt)[usable] / dims[usable]
    cls = gt_class[usable]
    maps, fallback = {}, []
    for k in np.unique(cls) if scope == SCOPE_PER_CLASS else ():
        sel = cls == k
        if sel.sum() < MIN_CLASS_FIT:
            fallback.append(int(k))
            continue
        for c in range(4):
            maps[(int(k), c)] = isotonic_fit(x[sel, c], y[sel, c], scope_key=(int(k), c))
    return SigmaCalibrator(scope, isotonic_fit(x, y), maps, tuple(fallback), int((~usable).sum()))


@st.composite
def sigma_tables(draw):
    """Rows with few distinct sigmas and box sizes (so x has many ties), some
    degenerate boxes, spaced class labels, and a fit mask that leaves the rows
    from ``n_cal`` on out, as transfer rows.  Either the last class has one
    row, so some usable row may need the global map, or the leading rows fit
    every class ``MIN_CLASS_FIT`` times on usable boxes, so no row needs it."""
    n_classes = draw(st.integers(2, 4))
    lead = MIN_CLASS_FIT * n_classes if draw(st.booleans()) else 0
    n = draw(st.integers(max(lead, 2), 40))

    def ints(lo, hi, shape):
        return draw(hnp.arrays(np.int64, shape, elements=st.integers(lo, hi)))

    if lead:
        gt_class = ints(0, n_classes - 1, n)
        gt_class[:lead] = np.arange(lead) % n_classes
    else:
        gt_class = ints(0, n_classes - 2, n)
        gt_class[draw(st.integers(0, n - 1))] = n_classes - 1
    x0 = ints(0, 50, (n, 2)).astype(float)
    sides = ints(0, 6, (n, 2))  # a zero side is degenerate
    sides[:lead] = np.maximum(sides[:lead], 1)
    pred = np.hstack([x0, x0 + 8.0 * sides])
    gt = pred + ints(-6, 6, (n, 4))
    sigma = ints(1, 4, (n, 4)) / 2.0
    fit = draw(hnp.arrays(bool, n))
    fit[draw(st.integers(max(lead, 1), n)):] = False
    fit[:lead] = True
    return pred, gt, sigma, np.array([0, 3, 7, 9])[gt_class], fit


@given(sigma_tables(), st.sampled_from([SCOPE_PER_CLASS, SCOPE_GLOBAL]))
def test_property_presorted_fit_matches_isotonic_fit(table, scope):
    pred, gt, sigma, gt_class, fit = table
    plan = sigma_plan(pred, gt, sigma, gt_class, scope)
    rows = (pred[fit], gt[fit], sigma[fit], gt_class[fit])
    try:
        ref = _reference_calibrator(*rows, scope)
    except EmptyFit:
        for call in (lambda: recalibrate(plan, fit), lambda: fit_calibrator_arrays(*rows, scope)):
            with pytest.raises(EmptyFit):
                call()
        return
    _, _, fits = fit_plan(plan, fit)
    maps = {m.key: (tuple(bp.tolist()), tuple(values.tolist())) for m, bp, values in fits}
    ref_maps = {key: (cmap.breakpoints, cmap.values) for key, cmap in ref.maps.items()}
    assert maps == {"global": (ref.global_map.breakpoints, ref.global_map.values), **ref_maps}
    # a lookup fits the global map only if some usable row's class has no class map
    usable = (pred[:, 2:] - pred[:, :2] > DIMENSION_EPS).all(axis=1)
    needs_global = any((int(k), 0) not in ref.maps for k in gt_class[usable])
    _, _, looked_up = fit_plan(plan, fit, lookup=True)
    assert {m.key for m, *_ in looked_up} == set(maps) - (set() if needs_global else {"global"})
    # by one search of each fitted map's breakpoints, every row is mapped as
    # evaluate_map maps it, the unfitted rows included
    out, n_excluded, fallback = recalibrate(plan, fit)
    assert_array_equal(out, _reference_per_class_sigma(ref, pred, sigma, gt_class))
    calibrator = fit_calibrator_arrays(*rows, scope)
    assert (n_excluded, fallback) == (calibrator.n_excluded, calibrator.fallback_keys)
    assert (n_excluded, fallback) == (ref.n_excluded, ref.fallback_keys)


@given(sigma_tables(), st.sampled_from(SCOPES), st.data())
def test_property_apply_calibrated_sigma_matches_per_record_oracle(table, scope, data):
    # the tables hold degenerate boxes and, in about half the draws, a class
    # fitted on one row that falls back to the global map; class 11 is in no fit
    pred, gt, sigma, gt_class, fit = table
    try:
        calibrator = fit_calibrator_arrays(pred[fit], gt[fit], sigma[fit], gt_class[fit], scope)
    except EmptyFit:
        return
    classes = data.draw(hnp.arrays(np.int64, len(pred), elements=st.sampled_from([0, 3, 7, 9, 11])))
    out = calibrated_sigma_array(calibrator, pred, sigma, classes)
    for row, p, s, k in zip(out.tolist(), pred.tolist(), sigma.tolist(), classes.tolist()):
        record = make_record(pred=p, sigma=s, gt_class=k, class_probs=[1.0] + [0.0] * 11)
        assert tuple(row) == reference.calibrated_sigma(calibrator, record)


def test_recalibrate_reads_the_global_map_only_where_a_class_has_no_map():
    # classes 0 and 1 fit four rows each; of the transfer rows, the class-5 one
    # has no class map in the plan and must read the global map
    rng = np.random.default_rng(11)
    x0 = rng.uniform(0, 50, (10, 2))
    pred = np.hstack([x0, x0 + rng.uniform(5, 20, (10, 2))])
    gt = pred + rng.normal(scale=2.0, size=(10, 4))
    sigma = rng.uniform(0.5, 3.0, (10, 4))
    gt_class = np.array([0, 1] * 4 + [1, 5])
    fit = np.arange(10) < 8

    def recalibrated(n, fit):
        plan = sigma_plan(pred[:n], gt[:n], sigma[:n], gt_class[:n], SCOPE_PER_CLASS)
        built = pickle.dumps(plan)
        rows = (pred[fit], gt[fit], sigma[fit], gt_class[fit])
        expected = calibrated_sigma_array(fit_calibrator_arrays(*rows, SCOPE_PER_CLASS), pred[:n], sigma[:n], gt_class[:n])
        out, _, fallback = recalibrate(plan, fit[:n])
        assert_array_equal(out, expected)
        keys = {m.key for m, *_ in fit_plan(plan, fit[:n], lookup=True)[2]}
        assert pickle.dumps(plan) == built  # a fit, of the global map too, leaves the plan as built
        return out, fallback, keys

    out, fallback, keys = recalibrated(10, fit)
    assert "global" in keys and fallback == ()
    global_map = fit_calibrator_arrays(pred[fit], gt[fit], sigma[fit], gt_class[fit], SCOPE_GLOBAL).global_map
    dims = (pred[9, 2:] - pred[9, :2])[[0, 1, 0, 1]]
    assert_array_equal(out[9], np.maximum(evaluate_map(global_map, sigma[9] / dims) * dims, SIGMA_FLOOR))
    # without that row every usable row's class has a map, so the global map is not fitted
    skipped, fallback, keys = recalibrated(9, fit)
    assert "global" not in keys and fallback == ()
    assert_array_equal(skipped, out[:9])
    # class 1 fitted on one row falls back to the global map
    _, fallback, keys = recalibrated(9, fit & ~np.isin(np.arange(10), [3, 5, 7]))
    assert "global" in keys and fallback == (1,)


def test_recalibrate_checks_only_the_fit_rows():
    pred = np.tile([0.0, 0.0, 8.0, 8.0], (4, 1))
    gt = pred + 2.0
    gt[3, 0] = np.inf
    sigma = np.ones((4, 4))
    plan = sigma_plan(pred, gt, sigma, np.zeros(4, dtype=int), SCOPE_PER_CLASS)
    with pytest.raises(DataError, match=r"record 3 \(counting from 0\) corner 0"):
        recalibrate(plan, np.ones(4, dtype=bool))
    out, n_excluded, fallback = recalibrate(plan, np.array([True, True, True, False]))
    assert_array_equal(out, np.full((4, 4), 2.0))  # |residual| / side is 0.25 in every fit row
    assert (n_excluded, fallback) == (0, ())
    with pytest.raises(EmptyFit):
        recalibrate(plan, np.zeros(4, dtype=bool))
    with pytest.raises(EmptyFit):
        fit_calibrator_arrays(np.empty((0, 4)), np.empty((0, 4)), np.empty((0, 4)), np.empty(0, dtype=int), SCOPE_PER_CLASS)
    with pytest.raises(OutOfRange):
        sigma_plan(pred, gt, sigma, np.zeros(4, dtype=int), SCOPE_RAW)


# ---------------------------------------------------------------- evaluation


def test_evaluate_map_step_semantics():
    cmap = CalibrationMap(breakpoints=(1.0, 2.0, 4.0), values=(0.1, 0.5, 0.9))
    assert evaluate_map(cmap, 0.5) == 0.1  # below first breakpoint
    assert evaluate_map(cmap, 1.0) == 0.1
    assert evaluate_map(cmap, 1.9) == 0.1  # left-constant
    assert evaluate_map(cmap, 2.0) == 0.5
    assert evaluate_map(cmap, 3.9) == 0.5
    assert evaluate_map(cmap, 100.0) == 0.9  # flat extrapolation
    assert_allclose(evaluate_map(cmap, np.array([0.0, 2.5, 5.0])), [0.1, 0.5, 0.9])


# ---------------------------------------------------------------- normalization


def normalized_sigma(pred, sigma):
    """Whether one box is usable for recalibration, and its sigma over the box dimensions."""
    usable, _, x = _normalize(np.array([pred]), np.array([sigma]))
    return bool(usable[0]), x[0] if usable[0] else None


def test_normalize_sigma_by_dimension():
    usable, x = normalized_sigma((0.0, 0.0, 100.0, 50.0), (5.0, 5.0, 5.0, 0.5))
    assert usable
    assert x[0] == pytest.approx(0.05)  # x: width 100
    assert x[1] == pytest.approx(0.1)  # y: height 50
    assert x[3] == pytest.approx(0.01)


def test_normalize_sigma_equal_numerator_denominator():
    _, x = normalized_sigma((0.0, 0.0, 10.0, 0.5), (1.0, 0.5, 1.0, 0.5))
    assert x[1] == pytest.approx(1.0)


def test_normalize_sigma_degenerate_box():
    # a zero-width box cannot normalize its x corners, so the row sits out
    assert normalized_sigma((5.0, 0.0, 5.0, 10.0), (1.0, 1.0, 1.0, 1.0)) == (False, None)


# ---------------------------------------------------------------- calibrator


def fit_records(records, scope=SCOPE_GLOBAL):
    """:func:`fit_calibrator_arrays` on the columns of a list of records."""
    pred, gt, sigma, gt_class, _ = records_to_arrays(records)
    return fit_calibrator_arrays(pred, gt, sigma, gt_class, scope)


def record_sigma(calibrator, record):
    """:func:`calibrated_sigma_array` on one record's row, as a tuple."""
    pred, _, sigma, gt_class, _ = records_to_arrays([record])
    return tuple(calibrated_sigma_array(calibrator, pred, sigma, gt_class)[0].tolist())


def doubling_records(n, seed=0, n_classes=1):
    """Sigma understates the uncertainty by 2x in normalized terms.

    The predicted box is drawn first so its dimensions (the normalization
    denominators) are independent of the noise; the ground truth is the
    prediction displaced by 2 * sigma * u with u averaging one.  The isotonic
    fit should therefore recover the doubling map.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        w = rng.uniform(100, 200)
        h = rng.uniform(100, 200)
        x0, y0 = rng.uniform(0, 500, size=2)
        pred = np.array([x0, y0, x0 + w, y0 + h])
        sigma = rng.uniform(1.0, 10.0, size=4)
        u = rng.uniform(0.5, 1.5, size=4)  # mean 1
        resid = 2.0 * sigma * u * rng.choice([-1.0, 1.0], size=4)
        gt = pred - resid  # |pred - gt| = 2 sigma u, gt stays a valid box
        records.append(
            make_record(
                pred=tuple(pred),
                gt=tuple(gt),
                gt_class=i % n_classes,
                class_probs=tuple(1.0 if k == i % n_classes else 0.0 for k in range(n_classes)),
                sigma=tuple(sigma),
                image_id=f"cal-{i}",
            )
        )
    return records


def test_fit_calibrator_raw_scope_is_identity():
    records = doubling_records(20)
    calibrator = fit_records(records, scope=SCOPE_RAW)
    for rec in records[:5]:
        assert record_sigma(calibrator, rec) == rec.sigma


def test_fit_calibrator_recovers_known_doubling():
    records = doubling_records(10_000, seed=1)
    calibrator = fit_records(records, scope=SCOPE_GLOBAL)
    cmap = calibrator.global_map
    # normalized sigma lives in roughly [0.005, 0.1]; probe the interior
    for x in np.linspace(0.02, 0.08, 25):
        assert abs(evaluate_map(cmap, x) - 2.0 * x) < 0.05


def test_calibrated_sigma_positive_and_floored():
    records = doubling_records(200, seed=2)
    calibrator = fit_records(records, scope=SCOPE_GLOBAL)
    rec = make_record(pred=(0.0, 0.0, 100.0, 100.0), sigma=(1e-12, 1.0, 1.0, 1.0))
    out = record_sigma(calibrator, rec)
    assert all(v >= SIGMA_FLOOR for v in out)


def test_sigma_floor_binds_on_zero_residual_block():
    # low-sigma records predict perfectly, so the first isotonic block is 0
    records = [
        make_record(sigma=(1.0, 1.0, 1.0, 1.0), image_id=f"z-{i}") for i in range(30)
    ]
    records += [
        make_record(
            pred=(2.0, 2.0, 102.0, 102.0),
            gt=(0.0, 0.0, 100.0, 100.0),
            sigma=(5.0, 5.0, 5.0, 5.0),
            image_id=f"n-{i}",
        )
        for i in range(30)
    ]
    calibrator = fit_records(records, scope=SCOPE_GLOBAL)
    rec = make_record(sigma=(0.5, 0.5, 0.5, 0.5))
    assert record_sigma(calibrator, rec) == (SIGMA_FLOOR,) * 4


def test_apply_calibrated_sigma_degenerate_box_keeps_raw():
    records = doubling_records(50, seed=3)
    calibrator = fit_records(records, scope=SCOPE_GLOBAL)
    rec = make_record(pred=(5.0, 0.0, 5.0, 10.0), sigma=(2.0, 2.0, 2.0, 2.0))
    assert record_sigma(calibrator, rec) == (2.0, 2.0, 2.0, 2.0)


def test_fit_calibrator_rejects_an_unknown_scope():
    pred, gt, sigma, gt_class, _ = records_to_arrays(doubling_records(5))
    with pytest.raises(OutOfRange, match="unknown calibration scope 'bogus'"):
        fit_calibrator_arrays(pred, gt, sigma, gt_class, scope="bogus")


def test_fit_calibrator_excludes_degenerate_boxes():
    records = doubling_records(50, seed=4) + [make_record(pred=(5.0, 0.0, 5.0, 10.0))]
    calibrator = fit_records(records, scope=SCOPE_GLOBAL)
    assert calibrator.n_excluded == 1
    with pytest.raises(EmptyFit):
        fit_records([make_record(pred=(5.0, 0.0, 5.0, 10.0))], scope=SCOPE_GLOBAL)


def test_per_class_fallback_for_small_classes():
    # class 1 has one usable record: it must fall back to the global map
    records = doubling_records(40, seed=5, n_classes=2)
    records = [r for r in records if r.gt_class == 0][:30]
    records.append(
        make_record(gt_class=1, class_probs=(0.0, 1.0), sigma=(2.0, 2.0, 2.0, 2.0))
    )
    calibrator = fit_records(records, scope=SCOPE_PER_CLASS)
    assert calibrator.fallback_keys == (1,)
    assert (1, 0) not in calibrator.maps
    assert (0, 0) in calibrator.maps
    rec = make_record(gt_class=1, class_probs=(0.0, 1.0), sigma=(3.0, 3.0, 3.0, 3.0))
    fallback = record_sigma(calibrator, rec)
    global_only = record_sigma(
        fit_records(records, scope=SCOPE_GLOBAL), rec
    )
    assert fallback == global_only


def test_per_class_scope_uses_class_specific_maps():
    records = doubling_records(400, seed=6, n_classes=2)
    calibrator = fit_records(records, scope=SCOPE_PER_CLASS)
    assert set(calibrator.maps) == {(k, c) for k in (0, 1) for c in range(4)}


def test_global_scope_maps_every_class_through_the_global_map():
    # the global scope is the per-class one with no class maps, so every
    # (class, corner) falls back; a hand-built calibrator may leave maps None
    records = doubling_records(200, seed=8, n_classes=3)
    pred, _, sigma, gt_class, _ = records_to_arrays(records)
    calibrator = fit_records(records, scope=SCOPE_GLOBAL)
    assert calibrator.maps == {} and calibrator.fallback_keys == ()
    dims = (pred[:, 2:] - pred[:, :2])[:, [0, 1, 0, 1]]
    expected = np.maximum(evaluate_map(calibrator.global_map, sigma / dims) * dims, SIGMA_FLOOR)
    assert_array_equal(calibrated_sigma_array(calibrator, pred, sigma, gt_class), expected)
    hand_built = SigmaCalibrator(scope=SCOPE_GLOBAL, global_map=calibrator.global_map)
    assert_array_equal(calibrated_sigma_array(hand_built, pred, sigma, gt_class), expected)


def test_calibrated_sigma_array_matches_record_level():
    records = doubling_records(100, seed=7, n_classes=2)
    calibrator = fit_records(records, scope=SCOPE_PER_CLASS)
    pred, _, sigma, gt_class, _ = records_to_arrays(records)
    batch = calibrated_sigma_array(calibrator, pred, sigma, gt_class)
    for i in (0, 17, 55, 99):
        assert_allclose(batch[i], record_sigma(calibrator, records[i]))


def test_save_load_round_trip(tmp_path):
    records = doubling_records(300, seed=8, n_classes=2)
    calibrator = fit_records(records, scope=SCOPE_PER_CLASS)
    path = tmp_path / "maps.json"
    save_calibrator(calibrator, path)
    loaded = load_calibrator(path)
    assert loaded.scope == calibrator.scope
    assert loaded.fallback_keys == calibrator.fallback_keys
    assert loaded.global_map.breakpoints == calibrator.global_map.breakpoints
    assert loaded.global_map.values == calibrator.global_map.values
    assert set(loaded.maps) == set(calibrator.maps)
    key = (0, 2)
    assert loaded.maps[key].breakpoints == calibrator.maps[key].breakpoints
    assert loaded.maps[key].values == calibrator.maps[key].values


def test_per_class_fit_rejects_a_negative_class_id(tmp_path):
    # such a fit once succeeded, and load_calibrator rejected the file that
    # save_calibrator wrote for it ("class must be an integer in [0, inf)")
    pred, gt, sigma, gt_class, _ = records_to_arrays(doubling_records(40, seed=9, n_classes=2))
    labels = gt_class - 1  # classes -1 and 0
    with pytest.raises(InvalidClass, match="got -1"):
        sigma_plan(pred, gt, sigma, labels, SCOPE_PER_CLASS)
    with pytest.raises(InvalidClass, match="got -1"):
        fit_calibrator_arrays(pred, gt, sigma, labels, SCOPE_PER_CLASS)
    # the global scope fits no class maps, so its file loads back
    save_calibrator(fit_calibrator_arrays(pred, gt, sigma, labels, SCOPE_GLOBAL), tmp_path / "maps.json")
    assert load_calibrator(tmp_path / "maps.json").maps == {}


def test_saved_calibrator_gives_the_same_sigma(tmp_path):
    # class 2 has too few rows for maps of its own, so the file carries a fallback class
    pred, gt, sigma, gt_class, _ = records_to_arrays(doubling_records(300, seed=10, n_classes=2))
    gt_class[: MIN_CLASS_FIT - 1] = 2
    calibrator = fit_calibrator_arrays(pred, gt, sigma, gt_class, SCOPE_PER_CLASS)
    assert calibrator.fallback_keys == (2,)
    save_calibrator(calibrator, tmp_path / "maps.json")
    loaded = load_calibrator(tmp_path / "maps.json")
    expected = calibrated_sigma_array(calibrator, pred, sigma, gt_class)
    assert calibrated_sigma_array(loaded, pred, sigma, gt_class).tobytes() == expected.tobytes()


def _saved_doc(tmp_path):
    calibrator = fit_records(doubling_records(300, seed=8, n_classes=2), scope=SCOPE_PER_CLASS)
    save_calibrator(calibrator, tmp_path / "maps.json")
    return json.loads((tmp_path / "maps.json").read_text(encoding="utf-8"))


def _set_global(**entries):
    def edit(doc):
        doc["global"].update(entries)
    return edit


def _set_class_map(**entries):
    def edit(doc):
        doc["maps"][3].update(entries)
    return edit


@pytest.mark.parametrize(
    "edit, names",
    [
        (lambda doc: doc.update(scope="per_box"), "per_box"),
        (lambda doc: doc.update(**{"global": None}), "global map"),
        (_set_global(breakpoints=[0.02, 0.01], values=[0.05, 0.1]), "map global"),
        (_set_global(breakpoints=[0.01, 0.02], values=[float("nan"), 0.05]), "map global"),
        (_set_global(breakpoints=[0.01, float("inf")], values=[0.05, 0.1]), "map global"),
        (_set_global(breakpoints=[0.01, 0.01], values=[0.05, 0.1]), "map global"),
        (_set_global(breakpoints=[0.01, 0.02], values=[0.1, 0.05]), "map global"),
        (_set_global(breakpoints=[0.01, 0.02], values=[0.05, 0.1, 0.2]), "map global"),
        (_set_global(breakpoints=[], values=[]), "map global"),
        (_set_class_map(breakpoints=[0.01, 0.02], values=[0.1, 0.05]), "map (0, 3)"),
        (lambda doc: doc.pop("scope"), "scope"),
        (_set_class_map(corner=-1), "corner"),
        (_set_class_map(corner=7), "corner"),
        (_set_class_map(corner=2.0), "corner"),
        (_set_class_map(**{"class": 1.7}), "class"),
        (_set_class_map(**{"class": True}), "class"),
        (_set_class_map(**{"class": "1"}), "class"),
        (_set_class_map(**{"class": -1}), "class"),
        (_set_class_map(corner=2), "repeated calibration map (0, 2)"),
        (lambda doc: doc.update(fallback_classes=[2.5]), "fallback class"),
        (lambda doc: doc.update(fallback_classes=[-1]), "fallback class"),
        (lambda doc: doc.update(n_excluded=-3), "n_excluded"),
        (lambda doc: doc.update(n_excluded=1.0), "n_excluded"),
        (lambda doc: doc.update(n_excluded=False), "n_excluded"),
    ],
    ids=[
        "unknown-scope",
        "no-global-map",
        "descending-breakpoints",
        "nan-value",
        "infinite-breakpoint",
        "tied-breakpoints",
        "decreasing-values",
        "unequal-lengths",
        "empty",
        "decreasing-class-map",
        "no-scope",
        "negative-corner",
        "corner-past-3",
        "float-corner",
        "float-class",
        "bool-class",
        "string-class",
        "negative-class",
        "repeated-map",
        "float-fallback-class",
        "negative-fallback-class",
        "negative-n-excluded",
        "float-n-excluded",
        "bool-n-excluded",
    ],
)
def test_load_calibrator_rejects_malformed_maps(tmp_path, edit, names):
    doc = _saved_doc(tmp_path)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="bad.json") as excinfo:
        load_calibrator(path)
    assert names in str(excinfo.value)


def test_load_calibrator_rejects_json_nested_too_deeply(tmp_path):
    # json.load raises RecursionError on it, which once escaped as a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(DataError, match="deep.json"):
        load_calibrator(path)
