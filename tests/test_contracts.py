"""Bad inputs raise a DynsampError that names the problem."""

import json

import numpy as np
import pytest

import dynsamp as ds
import dynsamp.cli as cli
from dynsamp import recon, systems
from dynsamp.errors import (DynsampError, EvenM, LengthMismatch, MalformedSamples,
                            NonDivisibleLength, PreconditionViolated)

L, M, N_EXTRA, OMEGA = 72, 3, 3, (1,)


def samples():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    return ds.forward(f, ds.filter_raised_cosine(L, 1.0), M, M, N_EXTRA, OMEGA)


def rebuild(s, y=None, extras=None, m=None):
    return ds.SampleSet(y=s.y if y is None else y, extras=s.extras if extras is None else extras,
                        m=s.m if m is None else m, n=s.n, omega=s.omega)


def test_short_extras_rejected():
    s = samples()
    with pytest.raises(LengthMismatch, match="extras"):
        rebuild(s, extras={1: s.extras[1][:-1]})


def test_doubled_extras_rejected():
    s = samples()
    with pytest.raises(LengthMismatch, match="extras"):
        rebuild(s, extras={1: np.concatenate([s.extras[1], s.extras[1]])})


def test_nan_sample_rejected():
    s = samples()
    y = [v.copy() for v in s.y]
    y[1][4] = np.nan
    with pytest.raises(DynsampError, match=r"y\[1\]"):
        rebuild(s, y=y)


def test_empty_snapshots_rejected():
    with pytest.raises(MalformedSamples, match="snapshot"):
        ds.SampleSet(y=[], m=M)


@pytest.mark.parametrize("extras", [{}, {2: None}, {1: None, 2: None}])
def test_extras_keys_not_matching_omega_rejected(extras):
    s = samples()
    extras = {c: s.extras[1] for c in extras}
    with pytest.raises(MalformedSamples, match="omega"):
        rebuild(s, extras=extras)


def test_nonpositive_m_rejected():
    with pytest.raises(DynsampError, match="m=0"):
        ds.SampleSet(y=[np.ones(4)], m=0)


@pytest.mark.parametrize("key", ["m", "n", "omega", "y", "extras"])
def test_from_json_missing_field_named(key):
    obj = json.loads(samples().to_json())
    del obj[key]
    with pytest.raises(DynsampError, match=repr(key)):
        ds.SampleSet.from_json(json.dumps(obj))


@pytest.mark.parametrize("key, bad", [("y", [0.5, 1.0, 2.0]), ("extras", [[1.0]])])
def test_from_json_bad_pair_named(key, bad):
    obj = json.loads(samples().to_json())
    if key == "y":
        obj["y"][0][0] = bad
    else:
        obj["extras"]["1"][0] = bad
    with pytest.raises(DynsampError, match=repr(key)):
        ds.SampleSet.from_json(json.dumps(obj))


def test_from_json_fractional_shift_rejected():
    obj = json.loads(samples().to_json())
    obj["omega"] = [1.7]
    with pytest.raises(MalformedSamples, match="omega"):
        ds.SampleSet.from_json(json.dumps(obj))


def test_stability_report_rejects_even_m():
    with pytest.raises(EvenM):
        ds.stability_report(ds.filter_raised_cosine(64, 1.0), 4, 1, grid=64)


def test_extended_solves_reject_even_m():
    # m = 4 holds the guarantee shifts {1}, yet packet 3 is rank deficient
    a, f = ds.filter_raised_cosine(L, 1.0), np.ones(L, dtype=complex)
    with pytest.raises(EvenM, match="m=4"):
        ds.reconstruct_extended(ds.forward(f, a, 4, 4, 3, (1,)), a, 4, 3, (1,))
    with pytest.raises(EvenM, match="m=4"):
        ds.noise_trial(f, a, 4, 3, (1,), 1e-3, trials=2, pinv_norm=1.0)


@pytest.mark.parametrize("mode", ["stability_report", "bounds_table"])
def test_validate_reports_even_m(mode):
    cfg = cli.ExperimentConfig(mode=mode, filter={"kind": "raised_cosine", "L": 72, "p": 1.0},
                               m=4, n=3, L=72)
    assert any("odd m" in msg for msg in cli.validate(cfg))


BSPLINE = ds.make_generator({"kind": "bspline", "order": 3})


def test_sis_forward_rejects_nonpositive_P():
    with pytest.raises(PreconditionViolated, match="P=0"):
        ds.sis_forward(np.ones(24), BSPLINE, ds.identity_response(), 3, P=0)


def test_periodize_phi_rejects_nonpositive_K():
    with pytest.raises(PreconditionViolated, match="K=0"):
        ds.periodize_phi(BSPLINE, ds.identity_response(), 1, 24, 0)


def test_build_sis_system_rejects_nonpositive_K():
    with pytest.raises(PreconditionViolated, match="K=0"):
        ds.build_sis_system(BSPLINE, ds.identity_response(), 3, 24, 0)


@pytest.mark.parametrize("field, value", [("P", 0), ("K", 0)])
def test_validate_reports_span_discretization(field, value):
    cfg = cli.ExperimentConfig(mode="sis_roundtrip", generator={"kind": "bspline", "order": 3},
                               line_filter={"kind": "identity"}, m=3, n=3, L=72,
                               **{field: value})
    assert any(f"{field}={value}" in msg for msg in cli.validate(cfg))


def test_noise_trial_rejects_zero_trials():
    f = np.ones(L, dtype=complex)
    with pytest.raises(PreconditionViolated, match="trials=0"):
        ds.noise_trial(f, ds.filter_raised_cosine(L, 1.0), M, N_EXTRA, OMEGA, 1e-3, trials=0)


@pytest.mark.parametrize("order", [-1, 2.5, "3", True])
def test_make_generator_rejects_bad_bspline_order(order):
    with pytest.raises(PreconditionViolated, match="order"):
        ds.make_generator({"kind": "bspline", "order": order})


def test_bspline_order_zero_is_unit_box():
    gen = ds.make_generator({"kind": "bspline", "order": 0})
    x = np.array([-0.75, -0.5, -0.25, 0.0, 0.25, 0.4999, 0.5, 0.75])
    assert np.array_equal(gen.time_at(x), [0, 1, 1, 1, 1, 1, 0, 0])


def test_bspline_order_zero_synthesis_holds_each_coefficient():
    # f = sum_k c_k box(. - k) is c_k on [k - 1/2, k + 1/2): at k + r/P it
    # reads c_k for r/P < 1/2 and c_{k+1} from 1/2 on.
    c = np.arange(1.0, 7.0)
    fine = ds.sis._synthesize_fine(c, ds.make_generator({"kind": "bspline", "order": 0}), 4)
    expected = np.stack([c, c, np.roll(c, -1), np.roll(c, -1)], axis=1).ravel()
    assert np.array_equal(fine, expected)


@pytest.mark.parametrize("order", [-1, 2.5])
def test_validate_reports_bad_bspline_order(tmp_path, order):
    cfg = cli.ExperimentConfig(mode="sis_roundtrip", generator={"kind": "bspline", "order": order},
                               line_filter={"kind": "identity"}, m=3, n=3, L=72)
    assert any("B-spline order" in msg for msg in cli.validate(cfg))
    assert cli.run(cfg, out_dir=tmp_path) == 1


def test_sis_reconstruct_rejects_system_of_other_size():
    a_hat = ds.gaussian_response(2.0)
    s = ds.sis_forward(np.ones(72), BSPLINE, a_hat, 3, 3, (1, 2), P=4)
    system = ds.build_sis_system(BSPLINE, a_hat, 3, 144, 384)
    with pytest.raises(PreconditionViolated, match="built for"):
        ds.sis_reconstruct(s, BSPLINE, a_hat, 3, 3, (1, 2), K=384, system=system)


# One table of bad sampling layouts (L, m, n, omega) over every entry point
# that takes one; each raises the named error of spectral._layout, or
# PreconditionViolated where a solve is asked for another (m, n) than its
# sample set's.
LAYOUTS = {
    "m does not divide L": ((72, 5, 1, ()), NonDivisibleLength),
    "m n does not divide L": ((72, 3, 5, (1,)), NonDivisibleLength),
    "n = 0 with extras": ((72, 3, 0, (1,)), NonDivisibleLength),
    "duplicated omega": ((72, 3, 3, (1, 1)), MalformedSamples),
    "omega >= m n": ((72, 3, 3, (9,)), MalformedSamples),
}
SINC = ds.make_generator({"kind": "sinc"})
ID = ds.identity_response()


def rc(L):
    return ds.filter_raised_cosine(L, 1.0)


def raw_samples(L, m, n, omega):
    """Sequences of the layout's lengths, unchecked: (y, extras)."""
    return ([np.zeros(L // m, dtype=complex)] * m,
            {c: np.zeros(L // (m * max(n, 1)), dtype=complex) for c in omega})


def valid_samples():
    """A sample set at (72, 3, 3, (1,)), for the solves that take one."""
    return ds.forward(np.ones(72), rc(72), 3, 3, 3, (1,))


# entry points that take only m: a bad omega or n cannot reach them
M_ONLY = {
    "subsample": lambda L, m, n, om: ds.subsample(np.zeros(L), m),
    "fold": lambda L, m, n, om: ds.fold(np.zeros(L), m),
    "build_plain": lambda L, m, n, om: ds.build_plain(rc(L), m, m, 0),
    "plain_family": lambda L, m, n, om: systems.plain_family(ds.PlainSystem(rc(L), m, m)),
    "build_sis_system": lambda L, m, n, om: ds.build_sis_system(SINC, ID, m, L, 8),
}
# entry points whose L comes from their sample data, so m always divides it
FROM_DATA = {
    "SampleSet": lambda L, m, n, om: ds.SampleSet(*raw_samples(L, m, n, om), m=m, n=n, omega=om),
    "_solve": lambda L, m, n, om: recon._solve(*raw_samples(L, m, n, om), m,
                                                np.ones((m, L // m * m)), n, om),
}
FULL = {
    "forward": lambda L, m, n, om: ds.forward(np.zeros(L), rc(L), m, m, n, om),
    "dense_oracle": lambda L, m, n, om: ds.dense_oracle(rc(L), m, m, n, om),
    "build_extended": lambda L, m, n, om: ds.build_extended(rc(L), m, n, om, 0),
    "sis_forward": lambda L, m, n, om: ds.sis_forward(np.zeros(L), SINC, ID, m, n, om, P=2),
}
# entry points that match a request against valid_samples(): another (m, n)
# is a mismatch before it is a bad layout
MATCHED = {
    "reconstruct_extended": lambda L, m, n, om: ds.reconstruct_extended(
        valid_samples(), rc(72), m, n, om),
    "sis_reconstruct": lambda L, m, n, om: ds.sis_reconstruct(
        valid_samples(), SINC, ID, m, n, om, K=8),
}
BAD_LAYOUT_CASES = (
    [(e, "m does not divide L") for e in M_ONLY]
    + [(e, c) for e in FULL for c in LAYOUTS]
    + [(e, c) for e in FROM_DATA for c in LAYOUTS if c != "m does not divide L"]
    + [(e, c) for e in MATCHED for c in LAYOUTS])


@pytest.mark.parametrize("entry, case", BAD_LAYOUT_CASES)
def test_bad_layout_raises_named_error(entry, case):
    (L, m, n, omega), error = LAYOUTS[case]
    if entry in MATCHED and (m, n) != (3, 3):
        error = PreconditionViolated
    call = {**M_ONLY, **FROM_DATA, **FULL, **MATCHED}[entry]
    with pytest.raises(error, match="omega" if error is MalformedSamples else None):
        call(L, m, n, omega)
