"""Synthetic-year generation: determinism, rank structure, JSON spec form."""

import json

import numpy as np
import pytest

import spotvol as sv
from spotvol import InvalidSpec
from spotvol.synth import (
    constant_amplitude,
    cosine_amplitude,
    daily_sine_profile,
    double_peak_profile,
    flat_modulation,
    flat_profile,
    linear_amplitude,
    u_shaped_modulation,
)
from conftest import rank2_spec


def test_noiseless_spec_is_exactly_low_rank():
    spec = rank2_spec(mu=0.0, seed=5)
    matrix = sv.calendarize(sv.generate(spec))
    dec = sv.decompose(matrix)
    assert dec.singular_values[2] / dec.singular_values[0] < 1e-12
    resid = sv.residual_series(matrix, sv.truncate(dec, 2))
    assert np.max(np.abs(resid.values)) < 1e-9


def test_series_length_and_flags():
    for year, n in ((2016, 8784), (2015, 8760)):
        series = sv.generate(rank2_spec(year=year))
        assert len(series) == n
        assert series.zone == "UTC"
        assert not np.isnan(series.values).any()


def test_deterministic_per_seed_distinct_across_seeds():
    a = sv.generate(rank2_spec(seed=7))
    b = sv.generate(rank2_spec(seed=7))
    c = sv.generate(rank2_spec(seed=8))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sign_mix_controls_noise_sign():
    flat = [(flat_profile() * 0.0, constant_amplitude(0.0))]
    neg = sv.generate(sv.SynthSpec(2016, flat, residual_mu=2.0, sign_mix=1.0, seed=0))
    pos = sv.generate(sv.SynthSpec(2016, flat, residual_mu=2.0, sign_mix=0.0, seed=0))
    assert np.all(neg.values <= 0)
    assert np.all(pos.values >= 0)
    mixed = sv.generate(sv.SynthSpec(2016, flat, residual_mu=2.0, sign_mix=0.5, seed=0))
    assert np.any(mixed.values > 0) and np.any(mixed.values < 0)


def test_absolute_noise_is_exponential_with_requested_scale():
    flat = [(flat_profile() * 0.0, constant_amplitude(0.0))]
    series = sv.generate(sv.SynthSpec(2016, flat, residual_mu=3.0, seed=1))
    magnitudes = np.abs(series.values)
    assert magnitudes.mean() == pytest.approx(3.0, rel=0.05)
    assert np.median(magnitudes) == pytest.approx(3.0 * np.log(2), rel=0.05)


def test_signal_noise_separation():
    for seed in range(5):
        signal = sv.generate(rank2_spec(mu=0.0, seed=seed)).values
        noise = sv.generate(rank2_spec(mu=3.0, seed=seed)).values - signal
        assert abs(np.corrcoef(signal, noise)[0, 1]) < 0.05


def test_u_shaped_modulation_profile():
    mod = u_shaped_modulation(2.0)
    d = np.arange(1.0, 367.0)
    values = mod(d)
    assert values[0] == pytest.approx(3.0, rel=0.02)
    assert values[-1] == pytest.approx(3.0, rel=0.02)
    assert values[182] == pytest.approx(1.0, abs=0.01)


def test_modulated_noise_concentrates_at_edges():
    spec = rank2_spec(mu=3.0, seed=3, modulation=u_shaped_modulation(2.0))
    series = sv.generate(spec)
    matrix = sv.calendarize(series)
    resid = sv.residual_series(matrix, sv.truncate(sv.decompose(matrix), 2))
    test = sv.permutation_test(resid, 1000, seed=3)
    assert test.p_value <= 0.01


def test_amplitude_helpers():
    d = np.arange(1.0, 11.0)
    assert np.all(constant_amplitude(4.0)(d) == 4.0)
    lin = linear_amplitude(0.0, 9.0)(d)
    assert lin[0] == 0.0 and lin[-1] == 9.0
    cos = cosine_amplitude(1.0, 0.5, 10.0)(d)
    assert np.max(np.abs(cos)) <= 1.5 + 1e-12


def test_invalid_specs_rejected():
    good_profile = [(flat_profile(), constant_amplitude(1.0))]
    with pytest.raises(InvalidSpec):
        sv.SynthSpec(2016, [], residual_mu=1.0)
    with pytest.raises(InvalidSpec):
        sv.SynthSpec(2016, [(np.ones(23), constant_amplitude(1.0))], residual_mu=1.0)
    with pytest.raises(InvalidSpec):
        sv.SynthSpec(2016, good_profile, residual_mu=-1.0)
    with pytest.raises(InvalidSpec):
        sv.SynthSpec(2016, good_profile, residual_mu=1.0, sign_mix=1.5)
    with pytest.raises(InvalidSpec):
        sv.SynthSpec(0, good_profile, residual_mu=1.0)
    with pytest.raises(InvalidSpec):
        sv.SynthSpec(2016, [(np.ones(24), 3.0)], residual_mu=1.0)


def test_json_spec_round_trip():
    doc = {
        "year": 2016,
        "residual_mu": 3.0,
        "seed": 4,
        "profiles": [
            {
                "hourly": "double_peak",
                "amplitude": {"kind": "cosine", "mean": 1.0, "amplitude": 0.15,
                              "period_days": 366},
            },
            {
                "hourly": "daily_sine",
                "amplitude": {"kind": "cosine", "mean": 0.0, "amplitude": 6.0,
                              "period_days": 7},
            },
        ],
    }
    from_json = sv.generate(sv.spec_from_json(doc))
    direct = sv.generate(rank2_spec(seed=4))
    assert np.array_equal(from_json.values, direct.values)


def test_json_spec_with_explicit_vector_and_presets():
    doc = {
        "year": 2015,
        "residual_mu": 0.0,
        "profiles": [
            {"hourly": list(range(24)), "amplitude": {"kind": "constant", "level": 2.0}},
        ],
    }
    series = sv.generate(sv.spec_from_json(doc))
    assert len(series) == 8760
    matrix = sv.calendarize(series)
    assert np.allclose(matrix.values[:, 0], 2.0 * np.arange(24))


def test_json_spec_errors():
    base = {
        "year": 2016,
        "residual_mu": 1.0,
        "profiles": [{"hourly": "flat", "amplitude": {"kind": "constant", "level": 1.0}}],
    }
    for mangle in (
        lambda d: d.pop("year"),
        lambda d: d.pop("profiles"),
        lambda d: d.update(profiles=[]),
        lambda d: d.update(bogus=1),
        lambda d: d["profiles"][0].update(hourly="unknown_preset"),
        lambda d: d["profiles"][0].update(amplitude={"kind": "sawtooth"}),
        lambda d: d["profiles"][0].update(amplitude={"kind": "cosine", "mean": 1.0}),
        lambda d: d.update(seasonal_modulation={"kind": "w_shaped"}),
    ):
        doc = {
            "year": base["year"],
            "residual_mu": base["residual_mu"],
            "profiles": [
                {"hourly": "flat", "amplitude": {"kind": "constant", "level": 1.0}}
            ],
        }
        mangle(doc)
        with pytest.raises(InvalidSpec):
            sv.spec_from_json(doc)
    with pytest.raises(InvalidSpec):
        sv.spec_from_json("not a dict")


def test_preset_profiles_have_expected_shape():
    peaks = double_peak_profile()
    assert peaks.shape == (24,)
    # morning and late-afternoon local maxima
    assert peaks[8] > peaks[12] and peaks[19] > peaks[12]
    assert daily_sine_profile().shape == (24,)


@pytest.mark.parametrize(
    "amplitude_doc, amplitude",
    [
        ({"kind": "constant", "level": 2.0}, constant_amplitude(2.0)),
        ({"kind": "linear", "start": 1.0, "end": 3.0}, linear_amplitude(1.0, 3.0)),
        (
            {"kind": "cosine", "mean": 1.0, "amplitude": 0.5, "period_days": 30, "phase_days": 4},
            cosine_amplitude(1.0, 0.5, 30.0, 4.0),
        ),
    ],
    ids=["constant", "linear", "cosine"],
)
@pytest.mark.parametrize(
    "modulation_doc, modulation",
    [
        ({"kind": "flat"}, flat_modulation()),
        ({"kind": "u_shaped", "beta": 2.0}, u_shaped_modulation(2.0)),
    ],
    ids=["flat", "u_shaped"],
)
def test_json_kind_builds_the_spec_its_factory_builds(
    amplitude_doc, amplitude, modulation_doc, modulation
):
    doc = {
        "year": 2015,
        "residual_mu": 2.0,
        "seed": 3,
        "profiles": [{"hourly": "double_peak", "amplitude": amplitude_doc}],
        "seasonal_modulation": modulation_doc,
    }
    direct = sv.SynthSpec(
        2015, [(double_peak_profile(), amplitude)], residual_mu=2.0,
        seasonal_modulation=modulation, seed=3,
    )
    assert np.array_equal(sv.generate(sv.spec_from_json(doc)).values, sv.generate(direct).values)


def _profile(**item):
    return lambda doc: doc["profiles"][0].update(item)


_NOT_HOURLY = "profile 0: hourly must be a preset name or a list of numbers"


@pytest.mark.parametrize("mangle, message", [
    pytest.param(_profile(hourly=[float("nan")] * 24), "profile 0: hourly vector must be finite",
                 id="nan-hourly"),
    pytest.param(lambda doc: doc.update(seasonal_modulation={"kind": "u_shaped", "beta": -5}),
                 "modulation must be finite and nonnegative", id="negative-modulation"),
    pytest.param(lambda doc: doc.update(profiles=[
                     {"hourly": [1.7e308] * 24, "amplitude": {"kind": "constant", "level": 1}},
                 ] * 2), "profiles and noise sum to non-finite prices", id="overflowing-sum"),
    pytest.param(_profile(hourly=["1"] * 24), _NOT_HOURLY, id="string-hourly"),
    pytest.param(_profile(hourly=[True] * 24), _NOT_HOURLY, id="boolean-hourly"),
    pytest.param(_profile(hourly=None), _NOT_HOURLY, id="null-hourly"),
    pytest.param(_profile(hourly=[10**400] * 24), _NOT_HOURLY, id="hourly-overflow"),
    pytest.param(lambda doc: doc.update(profiles={"hourly": "flat"}), "profiles must be a list",
                 id="profiles-not-a-list"),
    pytest.param(lambda doc: doc["profiles"][0].pop("amplitude"),
                 "profile 0: need 'hourly' and 'amplitude'", id="no-amplitude"),
])
def test_json_spec_errors_name_their_cause(mangle, message):
    doc = {"year": 2016, "residual_mu": 1.0,
           "profiles": [{"hourly": "flat", "amplitude": {"kind": "constant", "level": 1.0}}]}
    mangle(doc)
    with pytest.raises(InvalidSpec) as info:
        sv.generate(sv.spec_from_json(json.loads(json.dumps(doc))))  # as a spec file reads
    assert str(info.value) == message


@pytest.mark.parametrize("field, message", [
    pytest.param({"profiles": [(flat_profile(), lambda d: np.ones(3))]},
                 "amplitude function returned shape (3,)", id="amplitude"),
    pytest.param({"seasonal_modulation": lambda d: np.ones(3)},
                 "modulation function returned shape (3,)", id="modulation"),
])
def test_a_function_of_the_wrong_length_is_refused(field, message):
    spec = sv.SynthSpec(**{"year": 2016, "residual_mu": 1.0,
                           "profiles": [(flat_profile(), constant_amplitude(1.0))], **field})
    with pytest.raises(InvalidSpec) as info:
        sv.generate(spec)
    assert str(info.value) == message
