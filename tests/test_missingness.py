import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvmi import GroundTruth, MissingSpec, inject_missing, missing_fraction
from pvmi.missingness import MODE_EXPLICIT, MODE_FRACTION, _place_random_blocks
from tests.conftest import make_series


def _runs(mask):
    """(start, length) of each contiguous missing run."""
    out, start = [], None
    for i, m in enumerate(mask):
        if m and start is None:
            start = i
        elif not m and start is not None:
            out.append((start, i - start))
            start = None
    if start is not None:
        out.append((start, len(mask) - start))
    return out


def test_explicit_blocks():
    s = make_series(np.arange(48, dtype=float))
    spec = MissingSpec(mode=MODE_EXPLICIT, blocks=((5, 3), (20, 2)))
    masked, truth = inject_missing(s, spec)
    assert masked.mask.sum() == 5
    assert _runs(masked.mask) == [(5, 3), (20, 2)]
    assert truth.index.tolist() == [5, 6, 7, 20, 21]
    assert truth.values.tolist() == [5.0, 6.0, 7.0, 20.0, 21.0]
    # input series untouched
    assert s.n_missing() == 0


def test_explicit_restore_round_trip():
    s = make_series(np.arange(48, dtype=float))
    masked, truth = inject_missing(s, MissingSpec(MODE_EXPLICIT, blocks=((10, 8),)))
    back = truth.restore(masked)
    assert back.n_missing() == 0
    assert np.array_equal(back.power, s.power)
    assert np.array_equal(back.irradiance, s.irradiance)


def test_restore_rejects_observed_hour():
    p = np.arange(10, dtype=float)
    p[[2, 5]] = np.nan
    truth = GroundTruth(np.array([2, 3, 5, 7]), np.array([2.0, 3.0, 5.0, 7.0]))
    with pytest.raises(ValueError, match="^hour 3 is not missing"):  # the first one
        truth.restore(make_series(p))


def test_explicit_validation():
    s = make_series(np.arange(30, dtype=float))
    for blocks in (((0, 0),), ((5, -1),)):
        with pytest.raises(ValueError, match="positive"):
            inject_missing(s, MissingSpec(MODE_EXPLICIT, blocks=blocks))
    with pytest.raises(ValueError, match="bounds"):
        inject_missing(s, MissingSpec(MODE_EXPLICIT, blocks=((25, 10),)))
    with pytest.raises(ValueError, match="bounds"):
        inject_missing(s, MissingSpec(MODE_EXPLICIT, blocks=((-1, 5),)))
    with pytest.raises(ValueError, match="overlap"):
        inject_missing(s, MissingSpec(MODE_EXPLICIT, blocks=((4, 6), (8, 2))))


@pytest.mark.parametrize("blocks", [[5], [[1, 2, 3]], [[1]], ["ab"], [None]])
def test_explicit_rejects_a_block_that_is_not_a_pair(blocks):
    # each raised a bare TypeError or an unpacking ValueError naming no field
    with pytest.raises(ValueError, match=r"^blocks\[0\] must be a list of 2 integers"):
        MissingSpec(MODE_EXPLICIT, blocks=blocks)


def test_explicit_rejects_already_missing():
    p = np.arange(30, dtype=float)
    p[12] = np.nan
    with pytest.raises(ValueError, match="overlap"):
        inject_missing(make_series(p), MissingSpec(MODE_EXPLICIT, blocks=((10, 5),)))


def test_fraction_mode_hits_target():
    s = make_series(np.arange(1000, dtype=float))
    spec = MissingSpec(MODE_FRACTION, target_fraction=0.3, block_len_hours=24, seed=3)
    masked, truth = inject_missing(s, spec)
    assert masked.mask.sum() == 300  # round(0.3 * 1000)
    assert missing_fraction(masked) == pytest.approx(0.3)
    assert len(truth.values) == 300
    # every removed value is recoverable
    assert np.array_equal(truth.restore(masked).power, s.power)


def test_fraction_blocks_have_configured_length():
    s = make_series(np.arange(2000, dtype=float))
    spec = MissingSpec(MODE_FRACTION, target_fraction=0.25, block_len_hours=100, seed=9)
    masked, _ = inject_missing(s, spec)
    runs = _runs(masked.mask)
    # adjacent blocks may merge into longer runs, but total is exact and
    # every run is made of 100-hour placements
    assert sum(length for _, length in runs) == 500
    assert all(length % 100 == 0 for _, length in runs)


def test_fraction_trims_final_block():
    s = make_series(np.arange(100, dtype=float))
    spec = MissingSpec(MODE_FRACTION, target_fraction=0.25, block_len_hours=168, seed=0)
    masked, _ = inject_missing(s, spec)
    assert masked.mask.sum() == 25  # single block trimmed to the budget


def test_fraction_respects_existing_missing():
    p = np.arange(200, dtype=float)
    p[:20] = np.nan
    s = make_series(p)
    spec = MissingSpec(MODE_FRACTION, target_fraction=0.3, block_len_hours=10, seed=1)
    masked, truth = inject_missing(s, spec)
    assert masked.mask.sum() == 60
    assert len(truth.values) == 40  # only newly removed hours are recorded
    assert truth.index.min() >= 20


def test_fraction_zero_and_already_satisfied():
    p = np.arange(100, dtype=float)
    p[:30] = np.nan
    s = make_series(p)
    masked, truth = inject_missing(
        s, MissingSpec(MODE_FRACTION, target_fraction=0.2, block_len_hours=5))
    assert truth.index.size == truth.values.size == 0
    assert np.array_equal(masked.mask, s.mask)


def test_fraction_deterministic_under_seed():
    s = make_series(np.arange(500, dtype=float))
    spec = MissingSpec(MODE_FRACTION, target_fraction=0.4, block_len_hours=12, seed=77)
    a, _ = inject_missing(s, spec)
    b, _ = inject_missing(s, spec)
    assert np.array_equal(a.mask, b.mask)
    c, _ = inject_missing(
        s, MissingSpec(MODE_FRACTION, target_fraction=0.4, block_len_hours=12, seed=78))
    assert not np.array_equal(a.mask, c.mask)


def test_fraction_unreachable_raises():
    s = make_series(np.arange(100, dtype=float))
    spec = MissingSpec(MODE_FRACTION, target_fraction=0.99, block_len_hours=3, seed=0)
    with pytest.raises(ValueError, match="cannot reach"):
        inject_missing(s, spec)


def test_injection_never_touches_irradiance_or_observed_power(rng):
    s = make_series(rng.uniform(0, 5, 400), rng.uniform(0, 1, 400))
    spec = MissingSpec(MODE_FRACTION, target_fraction=0.35, block_len_hours=48, seed=5)
    masked, _ = inject_missing(s, spec)
    assert np.array_equal(masked.irradiance, s.irradiance)
    keep = ~masked.mask
    assert np.array_equal(masked.power[keep], s.power[keep])


def test_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        MissingSpec("random-holes")
    with pytest.raises(ValueError):
        MissingSpec(MODE_FRACTION, target_fraction=1.0)
    with pytest.raises(ValueError):
        MissingSpec(MODE_FRACTION, target_fraction=-0.1)
    with pytest.raises(ValueError):
        MissingSpec(MODE_FRACTION, target_fraction=0.2, block_len_hours=0)


def test_missing_fraction():
    p = np.arange(10, dtype=float)
    p[:4] = np.nan
    assert missing_fraction(make_series(p)) == 0.4


def convolve_placement(mask, spec):
    """The block placement with every window count from ``np.convolve``."""
    needed = int(round(spec.target_fraction * len(mask))) - int(mask.sum())
    rng = np.random.default_rng(spec.seed)
    taken, chosen = mask.copy(), []
    while needed > 0:
        length = min(spec.block_len_hours, needed)
        window = np.convolve((~taken).astype(int), np.ones(length, dtype=int), mode="valid")
        starts = np.flatnonzero(window == length)
        if starts.size == 0:
            raise ValueError("no room")
        start = int(starts[rng.integers(starts.size)])
        taken[start:start + length] = True
        chosen.extend(range(start, start + length))
        needed -= length
    return chosen


@settings(max_examples=200, deadline=None)
@given(t=st.integers(1, 400), density=st.floats(0.0, 0.6), fraction=st.floats(0.0, 0.95),
       block=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_fraction_placement_equals_the_convolve_oracle(t, density, fraction, block, seed):
    # running-sum window counts give the same admissible starts, so the same
    # draws place the same blocks, and an unreachable target fails alike
    mask = np.random.default_rng(seed).random(t) < density
    spec = MissingSpec(MODE_FRACTION, target_fraction=fraction, block_len_hours=block, seed=seed)
    try:
        expected = convolve_placement(mask, spec)
    except ValueError:
        with pytest.raises(ValueError, match="cannot reach the target fraction"):
            _place_random_blocks(mask, spec)
    else:
        assert _place_random_blocks(mask, spec) == expected


@settings(max_examples=200, deadline=None)
@given(t=st.integers(1, 300), density=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.0, 0.9), block=st.integers(1, 40),
       explicit=st.lists(st.tuples(st.integers(0, 299), st.integers(1, 30)), max_size=6))
def test_restore_undoes_an_injection_bit_for_bit(t, density, seed, fraction, block, explicit):
    # signed zeros and subnormals as well as ordinary powers, in both modes
    rng = np.random.default_rng(seed)
    power = rng.choice([0.0, -0.0, 5e-324, 1.0 / 3.0, 7.25], size=t) * rng.uniform(0, 2, t)
    power[rng.random(t) < density] = np.nan
    s = make_series(power)
    taken, blocks = s.mask.copy(), []
    for start, length in explicit:  # the admissible ones, in the drawn order
        if start + length <= t and not taken[start:start + length].any():
            taken[start:start + length] = True
            blocks.append((start, length))
    specs = [MissingSpec(MODE_FRACTION, target_fraction=fraction, block_len_hours=block,
                         seed=seed),
             MissingSpec(MODE_EXPLICIT, blocks=tuple(blocks))]
    for spec in specs:
        try:
            masked, truth = inject_missing(s, spec)
        except ValueError:
            assert spec.mode == MODE_FRACTION  # an unreachable fraction
            continue
        assert not s.mask[truth.index].any()  # only newly removed hours are stored
        assert truth.restore(masked).power.tobytes() == s.power.tobytes()
        assert np.array_equal(masked.mask, s.mask | np.isin(np.arange(t), truth.index))
