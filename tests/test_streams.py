from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwalks import streams
from kwalks.parallel import mc_moments
from kwalks.rng import substream
from kwalks.sign_families import FamilySpec, make_sampler
from kwalks.walks import sup_abs_prefix_batch

F = Fraction


def net_point_norm_growth_ok(nets):
    """Each new net point at level r grows ||z^(t)||^2 by more than
    2^(-r)||z||^2; this is what caps level sizes at 2^r."""
    for r, lvl in enumerate(nets.levels):
        norms = nets.prefix_norm_sq[lvl.times]
        growth = np.diff(norms.astype(object))
        if any((int(g) << r) <= nets.norm_sq for g in growth):
            return False
    return True


def brute_force_nets(stream, r):
    """Independent greedy oracle with explicit distance recomputation."""
    z = np.zeros((stream.m + 1, stream.n), dtype=np.int64)
    for t, p in enumerate(stream.items, start=1):
        z[t] = z[t - 1]
        z[t, p - 1] += 1
    norm_sq = int((z[-1] ** 2).sum())
    times = [0]
    while True:
        t1 = times[-1]
        nxt = None
        for t in range(t1 + 1, stream.m + 1):
            dist_sq = int(((z[t] - z[t1]) ** 2).sum())
            if dist_sq * (1 << r) > norm_sq:
                nxt = t
                break
        if nxt is None:
            return times
        times.append(nxt)


small_streams = st.builds(
    lambda items, n: streams.InsertionStream(
        items=np.array(items, dtype=np.int64), n=n),
    st.lists(st.integers(min_value=1, max_value=6), min_size=16, max_size=16),
    st.just(6))


# --------------------------------------------------------------------------
# stream plumbing

def test_stream_validation():
    with pytest.raises(ValueError):
        streams.InsertionStream(items=np.array([1, 2, 3]), n=4)   # m not 2^k
    with pytest.raises(ValueError):
        streams.InsertionStream(items=np.array([0, 1]), n=2)
    with pytest.raises(ValueError):
        streams.InsertionStream(items=np.array([1, 3]), n=2)
    with pytest.raises(ValueError):
        streams.InsertionStream(items=np.array([], dtype=np.int64), n=2)


def test_generators_basics():
    assert streams.identity_stream(16).counts().tolist() == [1] * 16
    single = streams.single_item_stream(8)
    assert single.n == 1 and single.norm_sq() == 64
    two = streams.two_phase_stream(64, n=16)
    assert two.counts()[0] > two.counts()[1]
    assert (streams.uniform_stream(32, n=8, seed=4).items
            == streams.uniform_stream(32, n=8, seed=4).items).all()
    bursts = streams.dyadic_burst_stream(32, n=8)
    assert bursts.m == 32
    assert (bursts.items[1:3] == bursts.items[1]).all()


def test_stream_io_roundtrip(tmp_path):
    stream = streams.uniform_stream(64, n=12, seed=9)
    path = tmp_path / "stream.txt"
    path.write_text("".join(f"{int(p)}\n" for p in stream.items))
    back = streams.read_stream(path, n=12)
    assert (back.items == stream.items).all()
    inferred = streams.read_stream(path)
    assert inferred.n == int(stream.items.max())


def test_prefix_inner_matches_brute_force():
    stream = streams.uniform_stream(1024, n=32, seed=5)
    rng = substream(70, 0)
    rows = rng.standard_normal((3, 32))
    w = stream.prefix_inner_rows(rows)
    assert w.shape == (3, 1025)
    assert (w[:, 0] == 0).all()
    z = np.zeros(32)
    for t, p in enumerate(stream.items, start=1):
        z[p - 1] += 1
        for x, wx in zip(rows, w):
            assert wx[t] == pytest.approx(float(z @ x), rel=1e-12, abs=1e-12)
    # the supremum takes sign rows only
    with pytest.raises(ValueError):
        streams.sup_inner_rows(stream, rows)
    with pytest.raises(ValueError):
        stream.prefix_inner_rows(rows[:, :31])
    with pytest.raises(ValueError):
        stream.prefix_inner_rows(rows[0])


def test_sup_inner_special_cases():
    ident = streams.identity_stream(64)
    rng = substream(71, 0)
    signs = (rng.integers(0, 2, size=(8, 64)) * 2 - 1).astype(np.int64)
    assert (streams.sup_inner_rows(ident, signs)
            == sup_abs_prefix_batch(signs)).all()
    single = streams.single_item_stream(16)
    assert streams.sup_inner_rows(single, [[1.0], [-1.0]]).tolist() == [16.0, 16.0]


def float_first_prefix_inner(stream, rows):
    """W_1..W_m with the whole batch converted to float64 before the gather."""
    arr = np.asarray(rows, dtype=np.float64)
    return np.cumsum(arr[:, stream.items - 1], axis=1)


@pytest.mark.parametrize("name", ["identity", "uniform", "two-phase",
                                  "single-item", "dyadic-bursts"])
def test_stream_reduction_matches_float_copy_formula(name):
    # W is the float formula's bytes for any rows; the supremum of sign rows
    # (packed-word kernel) is the float formula's bytes and, as net-audit
    # reads it, W's; Gaussian rows or a 0 in a streamed column raise
    rng = substream(72, 0)
    for m in (64, 256, 1024, 4096):
        stream = streams.STREAM_GENERATORS[name](m)
        n = stream.n
        with_zero = (rng.integers(0, 2, size=(4, n)) * 2 - 1).astype(np.int8)
        with_zero[1, stream.items[-1] - 1] = 0
        independent = make_sampler(FamilySpec(kind="FullyIndependent", n=n))
        sign_batches = [
            independent.sample_batch(substream(74, m), 100),
            (rng.integers(0, 2, size=(20, n)) * 2 - 1).astype(np.int8),
            np.ones((3, n), dtype=np.int8),
            -np.ones((3, n), dtype=np.int8),
            np.ones((0, n), dtype=np.int8),
        ]
        other_batches = [rng.standard_normal((5, n)), with_zero]
        for batch in sign_batches + other_batches:
            old = float_first_prefix_inner(stream, batch)
            w = stream.prefix_inner_rows(batch)
            assert w.dtype == np.float64
            assert w[:, 1:].tobytes() == old.tobytes() and (w[:, 0] == 0).all()
        for batch in sign_batches:
            sups = streams.sup_inner_rows(stream, batch)
            old = float_first_prefix_inner(stream, batch)
            assert sups.tobytes() == np.abs(old).max(axis=1).tobytes()
            w = stream.prefix_inner_rows(batch)
            assert sups.tobytes() == np.abs(w[:, 1:]).max(axis=1).tobytes()
        for batch in other_batches:
            with pytest.raises(ValueError):
                streams.sup_inner_rows(stream, batch)


# --------------------------------------------------------------------------
# nets

def test_identity_stream_net_levels_hand_computed():
    nets = streams.build_nets(streams.identity_stream(16))
    assert nets.norm_sq == 16
    assert nets.levels[0].times.tolist() == [0]
    assert nets.levels[1].times.tolist() == [0, 9]
    assert nets.levels[4].times.tolist() == list(range(0, 17, 2))
    assert nets.levels[5].times.tolist() == list(range(17))
    assert nets.levels[9].times.tolist() == list(range(17))
    assert len(nets.levels) == 2 * 4 + 2


@pytest.mark.parametrize("name", sorted(streams.STREAM_GENERATORS))
def test_nets_match_brute_force_oracle(name):
    stream = streams.STREAM_GENERATORS[name](32)
    nets = streams.build_nets(stream)
    for r in range(len(nets.levels)):
        assert nets.levels[r].times.tolist() == brute_force_nets(stream, r)


def test_parent_map_is_last_preceding_net_point():
    stream = streams.uniform_stream(256, n=64, seed=8)
    nets = streams.build_nets(stream)
    for r in range(1, len(nets.levels)):
        prev = nets.levels[r - 1].times
        for s, t in enumerate(nets.levels[r].times):
            parent = nets.levels[r].parents[s]
            assert prev[parent] <= t
            assert parent == len(prev) - 1 or prev[parent + 1] > t


@pytest.mark.parametrize("name", sorted(streams.STREAM_GENERATORS))
def test_net_invariants_per_generator(name):
    for m in (64, 256):
        stream = streams.STREAM_GENERATORS[name](m)
        nets = streams.build_nets(stream)
        assert nets.sizes_within_cap()
        assert net_point_norm_growth_ok(nets)
        for r in range(len(nets.levels)):
            times = nets.levels[r].times
            assert (np.diff(times) > 0).all()
            assert streams.coverage_check(nets, r)
        top = nets.levels[-1].times
        assert top.tolist() == list(range(m + 1))    # all prefixes distinct


@settings(max_examples=25, deadline=None)
@given(small_streams)
def test_net_invariants_random_streams(stream):
    nets = streams.build_nets(stream)
    assert nets.sizes_within_cap()
    assert all(streams.coverage_check(nets, r) for r in range(len(nets.levels)))


def test_coverage_check_detects_missing_point():
    stream = streams.identity_stream(16)
    nets = streams.build_nets(stream)
    # removing an interior net point at a tight level must break coverage
    level = 4
    times = nets.levels[level].times.tolist()
    broken = streams.NetHierarchy(
        stream=stream, norm_sq=nets.norm_sq,
        prefix_norm_sq=nets.prefix_norm_sq,
        levels=[streams.NetLevel(times=np.array(times[:1] + times[2:]),
                                 parents=None) if r == level else lvl
                for r, lvl in enumerate(nets.levels)])
    assert not streams.coverage_check(broken, level)


def scalar_coverage(nets, r):
    """The per-prefix scan: running squared distance to the preceding net
    point, reset at each net time, compared on exact Python integers."""
    net_times = set(int(t) for t in nets.levels[r].times)
    deltas, dist_sq = {}, 0
    for t, c in enumerate(nets.stream.items.tolist(), start=1):
        d = deltas.get(c, 0)
        dist_sq += 2 * d + 1
        deltas[c] = d + 1
        if t in net_times:
            deltas, dist_sq = {}, 0
        elif (dist_sq << r) > nets.norm_sq:
            return False
    return True


def with_level(nets, r, times, norm_sq=None, num_levels=None):
    """nets with level r's times replaced (and optionally norm_sq and the
    number of levels, padded with level 0)."""
    levels = list(nets.levels)
    if num_levels is not None:
        levels = (levels + [levels[0]] * num_levels)[:num_levels]
    levels[r] = streams.NetLevel(times=np.asarray(times, dtype=np.int64),
                                 parents=None)
    return streams.NetHierarchy(
        stream=nets.stream, norm_sq=nets.norm_sq if norm_sq is None else norm_sq,
        prefix_norm_sq=nets.prefix_norm_sq, levels=levels)


@pytest.mark.parametrize("name", sorted(streams.STREAM_GENERATORS))
def test_coverage_check_matches_scalar_scan(name):
    outcomes = set()
    for lg in range(6, 13):
        nets = streams.build_nets(streams.STREAM_GENERATORS[name](1 << lg))
        for r in range(len(nets.levels)):
            times = nets.levels[r].times
            variants = [times]
            if len(times) > 2:              # drop one interior net time
                variants.append(np.delete(times, len(times) // 2))
            for variant in variants:
                broken = with_level(nets, r, variant)
                got = streams.coverage_check(broken, r)
                assert got == scalar_coverage(broken, r), (lg, r, len(variant))
                outcomes.add(got)
    assert outcomes == {True, False}


def test_coverage_check_exact_where_shifted_distance_overflows():
    # norm_sq >> r = 1024, while dist_sq << r passes 2^63 for dist_sq >= 32
    r, norm_sq = 58, 1 << 68
    outcomes = []
    for stream in (streams.identity_stream(4096),
                   streams.uniform_stream(4096, n=512, seed=3)):
        nets = streams.build_nets(stream)
        for step in (256, 512, 1024, 1025, 1026, 2048):
            times = list(range(0, 4096, step)) + [4096]
            tall = with_level(nets, r, times, norm_sq=norm_sq, num_levels=r + 1)
            got = streams.coverage_check(tall, r)
            assert got == scalar_coverage(tall, r), step
            outcomes.append(got)
    assert outcomes == [True, True, True, True, False, False,
                        True, False, False, False, False, False]


def test_prefix_norm_sq_matches_scalar_loop():
    for name in sorted(streams.STREAM_GENERATORS):
        stream = streams.STREAM_GENERATORS[name](1024)
        seen, acc, expected = {}, 0, [0]
        for c in stream.items.tolist():
            acc += 2 * seen.get(c, 0) + 1
            seen[c] = seen.get(c, 0) + 1
            expected.append(acc)
        got = streams.build_nets(stream).prefix_norm_sq
        assert got.dtype == np.int64 and got.tolist() == expected


# --------------------------------------------------------------------------
# chain forms

def test_chain_form_zero_vector():
    nets = streams.build_nets(streams.identity_stream(16))
    w = nets.stream.prefix_inner_rows(np.zeros((2, 16)))
    quad, kth = streams.chain_forms(nets, w, 4)
    assert quad.tolist() == kth.tolist() == [0.0, 0.0]


def test_chain_form_quadratic_hand_enumerated():
    # identity stream of length 4 with x = all ones: levels give diffs
    # 9 (level 1) + 5 (level 2) + 2 (level 3) + 0 + 0 = 16
    nets = streams.build_nets(streams.identity_stream(4))
    assert nets.levels[1].times.tolist() == [0, 3]
    assert nets.levels[2].times.tolist() == [0, 2, 4]
    forms, _ = streams.chain_forms(
        nets, nets.stream.prefix_inner_rows(np.ones((1, 4))), 4)
    assert forms.shape == (1,)
    assert forms[0] == pytest.approx(16.0)


def every_level_forms(nets, rows, k):
    """Quadratic and k-th power chain forms summed over every level r >= 1
    with plain powers of the differences."""
    w = nets.stream.prefix_inner_rows(rows)
    quad, kth = np.zeros(len(w)), np.zeros(len(w))
    for r in range(1, len(nets.levels)):
        lvl, prev = nets.levels[r], nets.levels[r - 1]
        diffs = w[..., lvl.times] - w[..., prev.times[lvl.parents]]
        quad += (diffs ** 2).sum(axis=1)
        kth += 2 ** (r / 2) * (diffs ** k).sum(axis=1)
    return quad, kth


@pytest.mark.parametrize("name", sorted(streams.STREAM_GENERATORS))
def test_chain_forms_match_every_level_powers_bitwise(name):
    for m in (64, 256, 1024, 4096):
        stream = streams.STREAM_GENERATORS[name](m)
        nets = streams.build_nets(stream)
        batch = (make_sampler(FamilySpec(kind="FullyIndependent", n=stream.n))
                 .sample_batch(substream(74, m), 100))
        quad, kth = every_level_forms(nets, batch, 4)
        got_quad, got_kth = streams.chain_forms(
            nets, stream.prefix_inner_rows(batch), 4)
        assert got_quad.tobytes() == quad.tobytes()
        assert got_kth.tobytes() == kth.tobytes()


def test_quadratic_dominance_every_prefix():
    rng = substream(72, 0)
    for name in sorted(streams.STREAM_GENERATORS):
        stream = streams.STREAM_GENERATORS[name](64)
        nets = streams.build_nets(stream)
        sampler = make_sampler(FamilySpec(kind="FullyIndependent", n=stream.n))
        batch = sampler.sample_batch(rng, 50)
        w = stream.prefix_inner_rows(batch)
        forms, _ = streams.chain_forms(nets, w, 4)
        cap = 2 * np.log2(stream.m) + 1
        assert (forms[:, None] >= w ** 2 / cap - 1e-9).all()


def test_kth_dominance_with_explicit_floor():
    rng = substream(73, 0)
    floor = streams.chain_dominance_floor(4, 64)
    for name in ("identity", "uniform", "dyadic-bursts"):
        stream = streams.STREAM_GENERATORS[name](64)
        nets = streams.build_nets(stream)
        sampler = make_sampler(FamilySpec(kind="FullyIndependent", n=stream.n))
        batch = sampler.sample_batch(rng, 50)
        w = stream.prefix_inner_rows(batch)
        sups = np.abs(w[:, 1:]).max(axis=1)
        _, forms = streams.chain_forms(nets, w, 4)
        assert (forms >= floor * sups ** 4 - 1e-9).all()


def test_single_item_dominance_exact():
    stream = streams.single_item_stream(16)
    nets = streams.build_nets(stream)
    rows = np.array([[1.0], [-1.0]])
    sups = streams.sup_inner_rows(stream, rows)
    assert sups.tolist() == [16.0, 16.0]
    _, forms = streams.chain_forms(nets, stream.prefix_inner_rows(rows), 4)
    assert (forms >= streams.chain_dominance_floor(4, 16) * sups ** 4).all()


def test_chain_dominance_floor_formula():
    rho = 2 ** (-1 / 8)
    levels = 2 * 6 + 1
    expected = ((1 - rho) / (1 - rho ** levels)) ** 4
    assert streams.chain_dominance_floor(4, 64) == pytest.approx(expected)
    with pytest.raises(ValueError):
        streams.chain_dominance_floor(3, 64)
    with pytest.raises(ValueError):
        streams.chain_forms(streams.build_nets(streams.identity_stream(4)),
                            np.zeros((1, 5)), 2)


def test_expected_chain_form_contract():
    # E[form] stays below 2 * B_2 * (2 lg m + 1) * ||z||^2 for pairwise steps
    m = 256
    stream = streams.identity_stream(m)
    nets = streams.build_nets(stream)
    spec = FamilySpec(kind="AdversarialStage", n=m, stage="H")
    batch = make_sampler(spec).sample_batch(substream(4, 0), 4000)
    forms, _ = streams.chain_forms(nets, stream.prefix_inner_rows(batch), 4)
    cap = 2 * (2 * np.log2(m) + 1) * stream.norm_sq()
    stderr = forms.std(ddof=1) / len(forms) ** 0.5
    assert forms.mean() <= cap + 4 * stderr


# --------------------------------------------------------------------------
# moment checks

def test_mz_moment_pairwise_equality():
    moment, bound = streams.mz_moment_check([3, -1, 2, 5], 2)
    assert moment == 9 + 1 + 4 + 25
    assert bound == moment


def test_mz_moment_fourth_rademacher_formula():
    v = [2, 1, -3, 1, 4]
    moment, bound = streams.mz_moment_check(v, 4)
    norm_sq = sum(x * x for x in v)
    expected = 3 * F(norm_sq) ** 2 - 2 * sum(F(x) ** 4 for x in v)
    assert moment == expected
    assert bound == 3 * F(norm_sq) ** 2
    assert moment <= bound


def test_mz_moment_unit_vector():
    moment, bound = streams.mz_moment_check([1], 4)
    assert moment == 1
    assert bound == 3


def test_mz_moment_rejects():
    with pytest.raises(ValueError):
        streams.mz_moment_check([1, 2], 3)
    with pytest.raises(ValueError):
        streams.mz_moment_check([1.5, 2.0], 2)
    with pytest.raises(ValueError):
        streams.mz_moment_check([1] * 17, 2)


# --------------------------------------------------------------------------
# Monte Carlo supremum moments

def _sup_moment(stream, spec, k, trials, seed, workers=1):
    """E[sup_t |<X, z^(t)>|^k] as the ColumnMoments of a batch of one."""
    job = streams.sup_moment_job(stream, spec, k, trials, seed)
    return mc_moments([job], workers)[0]


def test_mc_sup_moment_identity_consistency():
    from kwalks.walks import estimate_sup_moment

    m = 256
    spec = FamilySpec(kind="AdversarialStage", n=m, stage="H")
    stream_est = _sup_moment(streams.identity_stream(m), spec, 2, 4000,
                             seed=12)
    walk_est = estimate_sup_moment(spec, 2, 4000, seed=12)
    assert stream_est.mean[0] == pytest.approx(walk_est.mean[0], rel=0.15)


def test_mc_sup_moment_independence_gate():
    stream = streams.identity_stream(16)
    pairwise = FamilySpec(kind="AdversarialStage", n=16, stage="H")
    with pytest.raises(ValueError):
        _sup_moment(stream, pairwise, 4, 1000, seed=0)
    _sup_moment(stream, pairwise, 2, 1000, seed=0)
    # a branch of stage H is not pairwise independent
    with pytest.raises(ValueError, match="2-wise independence"):
        streams.sup_moment_job(stream, replace(pairwise, branch="drift"), 2,
                               1000, seed=0)
    with pytest.raises(ValueError, match="got k=0"):
        streams.sup_moment_job(stream, pairwise, 0, 1000, seed=0)
    with pytest.raises(ValueError):
        _sup_moment(stream, FamilySpec(kind="PolynomialKWise", n=32, k=4),
                    4, 1000, seed=0)


def test_mc_sup_moment_workers_deterministic():
    stream = streams.uniform_stream(64, n=16, seed=1)
    spec = FamilySpec(kind="PolynomialKWise", n=16, k=4)
    a = _sup_moment(stream, spec, 4, 3000, seed=9, workers=1)
    b = _sup_moment(stream, spec, 4, 3000, seed=9, workers=3)
    assert a == b
