import pickle
import warnings

import numpy as np
import pytest

from pivotfit import (
    IdealizedBackbone,
    PivotParams,
    SignalPair,
    extract_envelope,
    idealize,
    simulate,
)
from pivotfit.resample import sign_flips


from oracles import envelope_oracle, random_cyclic_record


def assert_matches_oracle(d, f):
    """The envelope of (d, f) equals the oracle's byte for byte, so
    signed zeros count; where the oracle finds one point it is refused.
    Returns the envelope it checked."""
    expected = np.array(envelope_oracle(d.tolist(), f.tolist())).T
    if expected.shape[1] < 2:
        with pytest.raises(ValueError, match="^the envelope has one point: "):
            extract_envelope(SignalPair(d, f))
        return
    env = extract_envelope(SignalPair(d, f))
    assert env.displacement.tobytes() == expected[0].tobytes()
    assert env.load.tobytes() == expected[1].tobytes()
    return env


def test_envelope_hand_example():
    d = [0, 1, 2, 1, 0.1, -1, -2, -1, -0.1, 2.5, 3, 1, 0.1]
    f = [0.1, 5, 10, 5, 1, -5, -10, -5, -1, 12, 15, 5, 1]
    env = extract_envelope(SignalPair(d, f))
    assert type(env) is SignalPair  # the record type of every two-column curve
    np.testing.assert_array_equal(env.displacement, [-2, 2, 3])
    np.testing.assert_array_equal(env.load, [-10, 10, 15])


def test_envelope_single_half_sine_is_degenerate():
    x = np.linspace(0, np.pi, 25)
    message = "the envelope has one point: the load never changes sign"
    with pytest.raises(ValueError, match=f"^{message}$"):
        extract_envelope(SignalPair(x, np.sin(x) + 0.001))
    # two half-cycles whose peaks share one displacement
    message = "the envelope has one point: every half-cycle peaks at one displacement"
    with pytest.raises(ValueError, match=f"^{message}$"):
        extract_envelope(SignalPair([1.0, 1.0], [2.0, -1.0]))


def test_envelope_negation_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d, f = random_cyclic_record(rng)
        env = extract_envelope(SignalPair(d, f))
        neg = extract_envelope(SignalPair(-d, -f))
        np.testing.assert_array_equal(neg.displacement, -env.displacement[::-1])
        np.testing.assert_array_equal(neg.load, -env.load[::-1])


def _tied_cyclic_record(rng):
    """Half-cycles of 1-3 samples on a coarse grid with signed zeros, so
    their extremes often tie in displacement, in |load|, or in both."""
    grid = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    disp, load = [], []
    for k in range(int(rng.integers(2, 12))):
        n = int(rng.integers(1, 4))
        disp.extend(rng.choice(grid, n))
        load.extend((-1.0) ** k * rng.choice([0.0, 1.0, 2.0], n))
    return np.array(disp), np.array(load)


def test_envelope_matches_oracle_randomized():
    # on tied records; c03 checks untied random ones
    rng = np.random.default_rng(11)
    merged = 0
    for _ in range(100):
        d, f = _tied_cyclic_record(rng)
        assert_matches_oracle(d, f)
        merged += sign_flips(f).size + 1 - len(envelope_oracle(d.tolist(), f.tolist()))
    assert merged > 100  # the tie rule is exercised


def test_envelope_zero_sample_stays_with_preceding_subset():
    # exact zero at the crossing: without the zero rule the two
    # half-cycles would merge
    d = np.array([0.0, 1.0, 2.0, 1.0, 0.5, -1.0, -2.0, -0.5])
    f = np.array([0.5, 5.0, 9.0, 4.0, 0.0, -6.0, -8.0, -1.0])
    env = extract_envelope(SignalPair(d, f))
    np.testing.assert_array_equal(env.displacement, [-2, 2])
    np.testing.assert_array_equal(env.load, [-8, 9])


def _signed_zeros(rng, k):
    return np.where(rng.random(k) < 0.5, 0.0, -0.0)


def test_envelope_zero_loads_match_oracle_randomized():
    rng = np.random.default_rng(29)
    for trial in range(500):
        d, f = random_cyclic_record(rng)
        n = f.shape[0]
        if trial % 50 == 0:  # all zero but one
            f = _signed_zeros(rng, n)
            f[rng.integers(0, n)] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)
        else:
            # zero runs just before or from each sign crossing, then at
            # the start and at the end
            for i in np.flatnonzero(np.sign(f[1:]) != np.sign(f[:-1])) + 1:
                k = int(rng.integers(0, 4))
                lo = max(i - k, 0) if rng.random() < 0.5 else i
                run = slice(lo, lo + k)
                f[run] = _signed_zeros(rng, f[run].size)
            k = int(rng.integers(0, 4))
            f[:k] = _signed_zeros(rng, k)
            k = int(rng.integers(0, 4))
            f[n - k :] = _signed_zeros(rng, k)
        assert_matches_oracle(d, f)


def test_envelope_duplicate_displacement_keeps_outer():
    d = np.array([0.0, 1.0, 0.1, -1.0, 0.1, 1.0, 0.2, -1.0, 0.0])
    f = np.array([0.1, 8.0, 0.5, -7.0, 0.5, 11.0, 0.5, -5.0, -0.1])
    env = extract_envelope(SignalPair(d, f))
    i = list(env.displacement).index(1.0)
    assert env.load[i] == 11.0
    j = list(env.displacement).index(-1.0)
    assert env.load[j] == -7.0

    # a signed-zero tie keeps one whole sample, (-0.0, 5.0)
    d = np.array([0.0, 0.5, -1.0, -0.5, -0.0, 0.3])
    f = np.array([1.0, 0.5, -2.0, -1.0, 5.0, 0.2])
    env = assert_matches_oracle(d, f)
    assert (np.signbit(env.displacement[1]), env.load[1]) == (True, 5.0)

    # equal |load| of opposite signs: the earlier half-cycle's point
    # stays; the last half-cycle, [-1], keeps its own point (0, -1)
    d = np.array([0, 1, 1.5, 1, 0.5, 2, 0])
    f = np.array([0.1, 8, 2, -8, -2, 9, -1])
    env = assert_matches_oracle(d, f)
    np.testing.assert_array_equal(env.displacement, [0, 1, 2])
    np.testing.assert_array_equal(env.load, [-1, 8, 9])


def test_envelope_one_sample_half_cycle_keeps_its_own_point():
    # the half-cycle [-0.5] starts after the 9 that ends the one before
    # it: its point is (1.9, -0.5), not a sample of its neighbour
    d = np.array([0, 1, 2, 1.9, 1.8, 2.5])
    f = np.array([1, 5, 9, -0.5, 3, 10])
    env = assert_matches_oracle(d, f)
    np.testing.assert_array_equal(env.displacement, [1.9, 2, 2.5])
    np.testing.assert_array_equal(env.load, [-0.5, 9, 10])


# -- idealization -----------------------------------------------------------

def test_idealize_hand_example_degenerate_yield():
    env = SignalPair([-3, -2, -1, 1, 2, 3], [-12, -14, -9, 8, 13, 11])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ib = idealize(env)
    np.testing.assert_array_equal(ib.displacement, [-3, -2, -2, 0, 2, 2, 3])
    np.testing.assert_array_equal(ib.load, [-12, -14, -14, 0, 13, 13, 11])
    assert ib.yield_equals_peak_positive and ib.yield_equals_peak_negative
    assert any("coincides" in str(w.message) for w in caught)


def test_a_backbone_rebuilt_from_its_points_keeps_its_flags():
    for d, f, flags in (
        ([-3, -2, -1, 1, 2, 3], [-12, -14, -9, 8, 13, 11], (True, True)),
        ([-4, -3, -1, 1, 2, 4, 5], [-10, -16, -8, 7, 11, 16, 12], (False, True)),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ib = idealize(SignalPair(d, f))
        # as the CLI rebuilds it from idealized.csv, and a GA worker from a pickle
        rebuilt = IdealizedBackbone(ib.displacement.tolist(), ib.load.tolist())
        for bb in (ib, rebuilt, pickle.loads(pickle.dumps(ib))):
            got = (bb.yield_equals_peak_positive, bb.yield_equals_peak_negative)
            assert got == flags and all(type(flag) is bool for flag in got)


def test_idealize_hand_example_non_degenerate_positive():
    env = SignalPair([-4, -3, -1, 1, 2, 4, 5], [-10, -16, -8, 7, 11, 16, 12])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # negative side yield==peak
        ib = idealize(env)
    d, f = ib.displacement, ib.load  # 1-based point k is at index k - 1
    assert (d[4], f[4]) == (2, 11)  # first load > 0.65*16 = 10.4
    assert (d[5], f[5]) == (4, 16)
    assert (d[6], f[6]) == (5, 12)
    assert (d[3], f[3]) == (0, 0)
    assert (d[0], f[0]) == (-4, -10)
    assert (d[1], f[1]) == (-3, -16)
    assert not ib.yield_equals_peak_positive


def test_idealize_antisymmetric_envelope():
    d = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    # an antisymmetric envelope, and one whose negative side ties its
    # extreme load: each side takes the tied point nearer the origin
    for f in ([-11.0, -14.0, -8.0, 8.0, 14.0, 11.0], [-12, -14, -14, 8, 14, 14]):
        f = np.array(f, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ib = idealize(SignalPair(d, f))
            neg = idealize(SignalPair(-d[::-1], -f[::-1]))
        # negation maps point k to point 8-k negated
        np.testing.assert_array_equal(ib.displacement, -neg.displacement[::-1])
        np.testing.assert_array_equal(ib.load, -neg.load[::-1])


def test_idealize_refuses_descending_displacements():
    d = np.array([-3, -2, -1, -0.5, 0.5, 1, 2, 3])
    f = np.array([-12, -15, -10, -5, 5, 10, 15, 12])
    assert idealize(SignalPair(d, f)).displacement[4] == 1.0
    swap = [0, 1, 2, 3, 4, 6, 5, 7]  # points 5 and 6
    with pytest.raises(ValueError, match=r"^envelope point 6 \(d=1\) is below point 5$"):
        idealize(SignalPair(d[swap], f[swap]))
    # equal neighbours pass, as a low-precision envelope.csv can round two
    # points together
    d[6] = 1.0
    assert idealize(SignalPair(d, f)).displacement[4] == 1.0


def test_idealize_requires_three_points_per_side():
    env = SignalPair([-2, -1, 1, 2, 3], [-9, -7, 6, 9, 8])
    message = "need at least 3 envelope points per side, got 2 negative"
    with pytest.raises(ValueError, match=f"^{message}$"):
        idealize(env)
    one_signed = SignalPair([-3, -2, -1, 1, 2, 3], [1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError, match="^no negative-side point has a negative load$"):
        idealize(one_signed)


@pytest.mark.parametrize("side", ["positive", "negative"])
def test_idealize_names_a_side_without_an_elastic_limit_point(side):
    # 0.65 * 5e-324 rounds to 5e-324, so no load exceeds 65% of the extreme
    d = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    f = np.array([-10.0, -12.0, -8.0, 5e-324, 5e-324, 5e-324])
    if side == "negative":
        d, f = -d[::-1], -f[::-1]
    with pytest.raises(
        ValueError, match=f"no {side}-side point exceeds 65% of its extreme load"
    ):
        idealize(SignalPair(d, f))


def test_idealize_takes_each_side_from_its_own_points():
    # (0, 35.8) exceeds 65% of the 52 peak but lies on neither side, so
    # the positive side passes it over and stops at (1, 45); the smallest
    # load at a positive displacement, and the largest at a negative one,
    # are passed over by the side they are not the extreme of
    d = [-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2]
    cases = (
        (d, [-40, -48, -45, -20, 35.8, 30, 45, 52, 47],
         [-2, -1.5, -1, 0, 1, 1.5, 2], [-40, -48, -45, 0, 45, 52, 47]),
        ([-3, -2, -1, 1, 2, 3], [-12, -14, -9, 8, -20, 11],
         [-3, -2, -2, 0, 1, 3, 3], [-12, -14, -14, 0, 8, 11, 11]),
        ([-3, -2, -1, 1, 2, 3], [-12, 20, -9, 8, 13, 11],
         [-3, -3, -1, 0, 2, 2, 3], [-12, -12, -9, 0, 13, 13, 11]),
    )
    for d, f, ideal_d, ideal_f in cases:
        d, f = np.array(d, dtype=float), np.array(f, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ib = idealize(SignalPair(d, f))
            # and the mirrored envelope mirrors the backbone
            mirrored = idealize(SignalPair(-d[::-1], -f[::-1]))
        np.testing.assert_array_equal(ib.displacement, ideal_d)
        np.testing.assert_array_equal(ib.load, ideal_f)
        np.testing.assert_array_equal(mirrored.displacement, -ib.displacement[::-1])
        np.testing.assert_array_equal(mirrored.load, -ib.load[::-1])


def test_idealized_backbone_validates_shape():
    with pytest.raises(ValueError, match="exactly 7"):
        IdealizedBackbone([0, 1], [0, 1])
    with pytest.raises(ValueError, match="origin"):
        IdealizedBackbone([-3, -2, -1, 0.5, 1, 2, 3], [-9, -12, -8, 0, 8, 12, 9])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_idealized_backbone_rejects_non_finite_knot(bad):
    with pytest.raises(ValueError, match="finite"):
        IdealizedBackbone([-3, -2, bad, 0, 1, 2, 3], [-12, -15, -10, 0, 10, 15, 12])
    with pytest.raises(ValueError, match="finite"):
        IdealizedBackbone([-3, -2, -1, 0, 1, 2, 3], [-12, -15, -10, 0, 10, 15, bad])


def test_array_records_compare_and_hash_by_identity():
    d = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    f = [-12.0, -15.0, -10.0, 0.0, 10.0, 15.0, 12.0]
    for make in (IdealizedBackbone, SignalPair):
        a, b = make(d, f), make(d, f)
        assert (a == b) is False and a != b and a == a
        assert {a: 1}[a] == 1 and b not in {a: 1}
    bb = pickle.loads(pickle.dumps(IdealizedBackbone(d, f)))
    for points in (bb.displacement, bb.load):
        assert not points.flags.writeable


def test_idealized_backbone_owns_its_points():
    d = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    f = np.array([-12.0, -15.0, -10.0, 0.0, 10.0, 15.0, 12.0])
    bb = IdealizedBackbone(d, f)
    at = np.array([-2.5, -1.0, 0.5, 1.5, 4.0])
    expected = bb.envelope_at(at).tobytes()
    d *= 2.0  # the caller's arrays stay writeable
    f *= 3.0
    assert bb.envelope_at(at).tobytes() == expected
    assert bb.k_pos == 10.0
    for points in (bb.displacement, bb.load):
        with pytest.raises(ValueError, match="read-only"):
            points[0] = 0.0


def test_idealized_backbone_refuses_every_assignment():
    bb = IdealizedBackbone(
        [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
        [-12.0, -15.0, -10.0, 0.0, 10.0, 15.0, 12.0],
    )
    params = PivotParams(10.0, 10.0, 0.5, 0.5, 100.0)
    ramp = np.linspace(0.0, 3.0, 30)
    before = simulate(bb, params, ramp).tobytes()
    for name in ("k_pos", "displacement", "anything"):
        with pytest.raises(AttributeError):
            setattr(bb, name, 1.0)
    assert bb.k_pos == 10.0
    assert simulate(bb, params, ramp).tobytes() == before
