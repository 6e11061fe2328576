import math

import numpy as np
import pytest
from scipy import stats

from pvmi import SynthSpec, generate


def true_conditional_cdf(spec: SynthSpec, irradiance: float, x: float) -> float:
    """Exact CDF of power given irradiance under the generator.

    For zero irradiance the law is a point mass at zero. Otherwise it is a
    normal with mean ``efficiency * irradiance`` and standard deviation
    ``noise_scale * efficiency * irradiance`` whose negative mass is clipped
    onto an atom at zero.
    """
    if irradiance < 0:
        raise ValueError("irradiance must be non-negative")
    if x < 0:
        return 0.0
    if irradiance == 0:
        return 1.0  # point mass at zero, x >= 0 here
    mean = spec.efficiency * irradiance
    sd = spec.noise_scale * mean
    if sd == 0:
        return 1.0 if x >= mean else 0.0
    z = (x - mean) / sd
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_length_and_reproducibility():
    spec = SynthSpec(days=365, seed=4)
    s = generate(spec)
    assert len(s) == 8760
    assert s.n_missing() == 0
    t = generate(SynthSpec(days=365, seed=4))
    assert np.array_equal(s.power, t.power)
    assert np.array_equal(s.irradiance, t.irradiance)
    u = generate(SynthSpec(days=365, seed=5))
    assert not np.array_equal(s.power, u.power)


def test_night_hours_exactly_zero():
    s = generate(SynthSpec(days=30, seed=1))
    night = s.irradiance == 0.0
    assert night.reshape(30, 24).sum(axis=1).tolist() == [13] * 30
    assert np.all(s.power[night] == 0.0)


def test_power_non_negative_and_noisy_by_day():
    s = generate(SynthSpec(days=50, seed=2))
    assert np.all(s.power >= 0)
    day = s.irradiance > 0
    assert not np.allclose(s.power[day], 5.0 * s.irradiance[day])


def test_zero_noise_is_deterministic_conversion():
    spec = SynthSpec(days=10, noise_scale=0.0, seed=3)
    s = generate(spec)
    assert np.array_equal(s.power, spec.efficiency * s.irradiance)


def test_per_day_cloud_factor():
    spec = SynthSpec(days=40, seed=6)
    s = generate(spec)
    irr = s.irradiance.reshape(40, 24)
    # within a day, irradiance / clear-sky shape is one constant in [0.3, 1]
    shape = irr[np.argmax(irr.max(axis=1))]  # brightest day as reference, c=cmax
    factors = []
    for d in range(40):
        pos = irr[d] > 0
        ratio = irr[d][pos] / (shape[pos] / shape[pos].max())
        assert ratio.max() - ratio.min() < 1e-9 * (1 + ratio.max())
        factors.append(ratio[0] / spec.peak_irradiance)
    factors = np.array(factors)
    assert factors.min() >= 0.3 - 1e-12 and factors.max() <= 1.0 + 1e-12
    assert factors.std() > 0.05  # actually varies between days


def test_peak_scaling():
    a = generate(SynthSpec(days=5, peak_irradiance=1.0, seed=7))
    b = generate(SynthSpec(days=5, peak_irradiance=3.0, seed=7))
    np.testing.assert_allclose(b.irradiance, 3.0 * a.irradiance, rtol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(days=2)
    for kw in ({"peak_irradiance": 0.0}, {"efficiency": -1.0}, {"noise_scale": -0.1}):
        with pytest.raises(ValueError):
            SynthSpec(days=10, **kw)


def test_cdf_zero_irradiance_point_mass():
    spec = SynthSpec(days=3)
    assert true_conditional_cdf(spec, 0.0, 0.0) == 1.0
    assert true_conditional_cdf(spec, 0.0, 5.0) == 1.0
    assert true_conditional_cdf(spec, 0.0, -0.1) == 0.0


def test_cdf_matches_clipped_normal_oracle():
    spec = SynthSpec(days=3, efficiency=5.0, noise_scale=0.15)
    irr = 0.6
    mu, sd = 5.0 * irr, 0.15 * 5.0 * irr
    for x in (0.0, 1.0, 2.5, mu, 4.0, 8.0):
        want = stats.norm.cdf(x, loc=mu, scale=sd) if x >= 0 else 0.0
        assert true_conditional_cdf(spec, irr, x) == pytest.approx(want, abs=1e-12)
    assert true_conditional_cdf(spec, irr, mu) == pytest.approx(0.5, abs=1e-9)


def test_cdf_nondecreasing_and_empirical_match():
    spec = SynthSpec(days=200, seed=11)
    xs = np.linspace(-1, 8, 120)
    cdf = np.array([true_conditional_cdf(spec, 0.45, x) for x in xs])
    assert np.all(np.diff(cdf) >= -1e-15)

    # Monte-Carlo oracle via the probability integral transform: evaluating
    # the claimed CDF at every generated day-hour's own (irradiance, power)
    # must give uniform values if and only if the CDF is the generator's law
    s = generate(spec)
    day = s.irradiance > 0
    pit = np.sort([
        true_conditional_cdf(spec, i, p)
        for i, p in zip(s.irradiance[day], s.power[day])
    ])
    grid = np.arange(1, pit.size + 1) / pit.size
    assert pit.size == 200 * 11
    assert np.max(np.abs(pit - grid)) < 0.04
