"""Bad inputs raise a DynsampError that names the problem."""

import json
import re

import numpy as np
import pytest

import dynsamp as ds
import dynsamp.cli as cli
from dynsamp import recon, systems
from dynsamp.errors import (DynsampError, EvenM, LengthMismatch, MalformedSamples,
                            NonDivisibleLength, PreconditionViolated, ShapeMismatch)

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


# Shifts are read by spectral._shift: a fractional extras key used to be
# truncated (1.5 read as 1), and a bool shift read as 1.
@pytest.mark.parametrize("key, omega, match", [
    (1.5, (1,), "extras key c must be an integer, got c=1.5"),
    (True, (1,), "extras key c must be an integer, got c=True"),
    (1, (True,), "omega shift c must be an integer, got c=True"),
    (True, (True,), "extras key c must be an integer, got c=True"),
])
def test_shift_that_is_no_integer_rejected(key, omega, match):
    s = samples()
    with pytest.raises(MalformedSamples, match=re.escape(match)):
        ds.SampleSet(y=s.y, extras={key: s.extras[1]}, m=M, n=N_EXTRA, omega=omega)


def test_numpy_integer_shifts_accepted():
    s = samples()
    t = ds.SampleSet(y=s.y, extras={np.int64(1): s.extras[1]}, m=M, n=N_EXTRA,
                     omega=(np.int64(1),))
    assert t.omega == (1,) and list(t.extras) == [1] and type(t.omega[0]) is int


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


@pytest.mark.parametrize("text, problem", [
    ("{", "does not parse"),
    ("", "does not parse"),
    ("3", "object, got int"),
    ("[1, 2]", "object, got list"),
    ("null", "object, got NoneType"),
])
def test_from_json_not_an_object_rejected(text, problem):
    with pytest.raises(MalformedSamples, match=problem):
        ds.SampleSet.from_json(text)


def test_from_json_fractional_shift_rejected():
    obj = json.loads(samples().to_json())
    obj["omega"] = [1.7]
    with pytest.raises(MalformedSamples, match="omega"):
        ds.SampleSet.from_json(json.dumps(obj))


def test_from_json_fractional_factor_rejected():
    # "m": 3.5 used to be read as m = 3.
    obj = json.loads(samples().to_json())
    obj["m"] = 3.5
    with pytest.raises(MalformedSamples, match=re.escape("field m must be an integer, got m=3.5")):
        ds.SampleSet.from_json(json.dumps(obj))


@pytest.mark.parametrize("length", [72.5, "72"])
def test_filter_from_spec_rejects_a_length_that_is_no_integer(length):
    # Both used to build a 72-point filter, and a roundtrip at L = 72 ran.
    spec = {"kind": "raised_cosine", "L": length, "p": 1.0}
    with pytest.raises(PreconditionViolated,
                       match=re.escape(f"L must be an integer, got L={length!r}")):
        ds.filter_from_spec(spec)
    cfg = cli.ExperimentConfig(mode="roundtrip", filter=spec, m=3, n=3, omega=[1], L=72, seed=11)
    assert any(f"L={length!r}" in msg for msg in cli.validate(cfg))


@pytest.mark.parametrize("parse, name", [(ds.filter_from_spec, "filter"),
                                         (ds.make_generator, "generator"),
                                         (ds.line_filter_from_spec, "line_filter")])
def test_spec_without_kind_raises_value_error_naming_the_field(parse, name):
    # Each used to raise a bare KeyError: 'kind'.  The CLI keeps its wording.
    message = f"{name} spec lacks field 'kind'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse({})
    # An empty spec is a missing one to the CLI, so the config's spec holds a field.
    span = name != "filter"
    cfg = cli.ExperimentConfig(
        mode="sis_roundtrip" if span else "roundtrip", filter={"L": 72},
        generator={"order": 3} if name == "generator" else {"kind": "bspline", "order": 3},
        line_filter={"alpha": 2.0} if name == "line_filter" else {"kind": "identity"},
        m=3, n=0 if span else 3, omega=[1], L=72, seed=11)
    assert message in cli.validate(cfg)


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


@pytest.mark.parametrize("spec", [{"kind": "sinc"},
                                  {"kind": "table", "L": 1, "K": 1, "fourier_values": [0, 1, 0]}],
                         ids=["sinc", "table"])
def test_sis_forward_rejects_nonpositive_P_every_generator(spec):
    # The sinc route never reads P, and still checks it.
    with pytest.raises(PreconditionViolated, match="P=-1"):
        ds.sis_forward(np.ones(24), ds.make_generator(spec), ds.identity_response(), 3, P=-1)


def test_periodize_phi_rejects_nonpositive_K():
    with pytest.raises(PreconditionViolated, match="K=0"):
        ds.periodize_phi(BSPLINE, ds.identity_response(), 1, 24, 0)


def test_build_sis_system_rejects_nonpositive_K():
    with pytest.raises(PreconditionViolated, match="K=0"):
        ds.build_sis_system(BSPLINE, ds.identity_response(), 3, 24, 0)


@pytest.mark.parametrize("K", [2.5, np.float64(8.0), True])
@pytest.mark.parametrize("call", [
    lambda K: ds.periodize_phi(BSPLINE, ds.identity_response(), 1, 24, K),
    lambda K: ds.build_sis_system(BSPLINE, ds.identity_response(), 3, 24, K),
    lambda K: ds.sis_reconstruct(
        ds.sis_forward(np.ones(24), SINC, ds.identity_response(), 3), SINC,
        ds.identity_response(), 3, 1, (), K,
        system=ds.build_sis_system(SINC, ds.identity_response(), 3, 24, 8)),
], ids=["periodize_phi", "build_sis_system", "sis_reconstruct"])
def test_span_system_rejects_fractional_K(call, K):
    # K = 2.5 used to reach the tail check and fail there as TailTooLarge "|k|=2.5".
    with pytest.raises(PreconditionViolated, match=re.escape(f"K must be an integer, got K={K!r}")):
        call(K)


def test_periodize_phi_rejects_fractional_row():
    # j = 1.5 used to return a_hat**1.5-weighted sums with tail 0.0.
    with pytest.raises(PreconditionViolated, match=re.escape("j must be an integer, got j=1.5")):
        ds.periodize_phi(BSPLINE, ds.gaussian_response(2.0), 1.5, 24, 384)


@pytest.mark.parametrize("K, match", [(2.5, "K must be an integer, got K=2.5"),
                                      (0, "K must be at least 1, got K=0"),
                                      (-3, "K must be at least 1, got K=-3"),
                                      (True, "K must be an integer, got K=True"),
                                      (np.float64(2.0), re.escape(
                                          "K must be an integer, got K=np.float64(2.0)"))])
def test_reducibility_check_rejects_bad_K(K, match):
    # These used to return the witness (0.0, -2), return reducible, and raise
    # a bare ValueError.
    with pytest.raises(PreconditionViolated, match=match):
        ds.reducibility_check(BSPLINE, ds.identity_response(), 24, K)


@pytest.mark.parametrize("P", [2.5, np.float64(4.0), True])
@pytest.mark.parametrize("spec", [{"kind": "bspline", "order": 3}, {"kind": "sinc"}],
                         ids=["bspline", "sinc"])
def test_sis_forward_rejects_fractional_P(spec, P):
    with pytest.raises(PreconditionViolated, match=re.escape(f"P must be an integer, got P={P!r}")):
        ds.sis_forward(np.ones(24), ds.make_generator(spec), ds.identity_response(), 3, P=P)


def test_sis_forward_takes_an_integer_P_of_any_type():
    c, a_hat = np.arange(24.0), ds.gaussian_response(2.0)
    ref = ds.sis_forward(c, BSPLINE, a_hat, 3, P=4)
    got = ds.sis_forward(c, BSPLINE, a_hat, 3, P=np.int64(4))
    assert all(np.array_equal(u, v) for u, v in zip(got.y, ref.y, strict=True))


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


@pytest.mark.parametrize("trials", [2.5, True, np.float64(2.0)])
def test_noise_trial_rejects_fractional_trials(trials):
    # trials=True used to end in a bare TypeError.
    f = np.ones(L, dtype=complex)
    with pytest.raises(PreconditionViolated, match=re.escape(f"trials={trials!r}")):
        ds.noise_trial(f, ds.filter_raised_cosine(L, 1.0), M, N_EXTRA, OMEGA, 1e-3, trials=trials)


@pytest.mark.parametrize("order", [-1, 2.5, "3", True, 3.0, np.float64(2.0)])
def test_make_generator_rejects_bad_bspline_order(order):
    with pytest.raises(PreconditionViolated, match="order"):
        ds.make_generator({"kind": "bspline", "order": order})


def test_make_generator_rejects_fractional_table_K():
    # K = 1.9 used to be read as K = 1.
    spec = {"kind": "table", "L": 1, "K": 1.9, "fourier_values": [0, 1, 0]}
    with pytest.raises(PreconditionViolated,
                       match=re.escape("table K must be an integer, got K=1.9")):
        ds.make_generator(spec)


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


@pytest.mark.parametrize("order", [-1, 2.5, 3.0])
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
# that takes one; each raises the named error of spectral._layout, with a
# message that matches the last field, or PreconditionViolated where a solve
# is asked for another (m, n) than its sample set's.
LAYOUTS = {
    "m does not divide L": ((72, 5, 1, ()), NonDivisibleLength, None),
    "m n does not divide L": ((72, 3, 5, (1,)), NonDivisibleLength, None),
    "n = 0 with extras": ((72, 3, 0, (1,)), NonDivisibleLength, None),
    "duplicated omega": ((72, 3, 3, (1, 1)), MalformedSamples, "omega"),
    "omega >= m n": ((72, 3, 3, (9,)), MalformedSamples, "omega"),
    "m not an integer": ((72, 3.0, 1, ()), NonDivisibleLength, "m=3.0"),
    "n not an integer": ((72, 3, 3.0, (1,)), NonDivisibleLength, "n=3.0"),
    "m a bool": ((72, True, 1, ()), NonDivisibleLength, "m=True"),
    "m a numpy float": ((72, np.float64(2.0), 1, ()), NonDivisibleLength,
                        re.escape("m=np.float64(2.0)")),
}
M_CASES = ["m does not divide L", "m not an integer", "m a bool", "m a numpy float"]
SINC = ds.make_generator({"kind": "sinc"})
ID = ds.identity_response()


def rc(L):
    return ds.filter_raised_cosine(L, 1.0)


def raw_samples(L, m, n, omega):
    """Sequences of the layout's lengths, unchecked: (y, extras).  The
    lengths read the factors as integers."""
    m, n = int(m), int(n)
    return ([np.zeros(L // m, dtype=complex)] * m,
            {c: np.zeros(L // (m * max(n, 1)), dtype=complex) for c in omega})


def valid_samples():
    """A sample set at (72, 3, 3, (1,)), for the solves that take one."""
    return ds.forward(np.ones(72), rc(72), 3, 3, 3, (1,))


# entry points that take only m: a bad omega or n cannot reach them
M_ONLY = {
    "subsample": lambda L, m, n, om: ds.subsample(np.zeros(L), m),
    "build_plain": lambda L, m, n, om: ds.build_plain(rc(L), m, 3, 0),
    "plain_family": lambda L, m, n, om: systems.plain_family(ds.PlainSystem(rc(L), m, 3)),
    "build_sis_system": lambda L, m, n, om: ds.build_sis_system(SINC, ID, m, L, 8),
}
# entry points whose L comes from their sample data, so m always divides it
FROM_DATA = {
    "SampleSet": lambda L, m, n, om: ds.SampleSet(*raw_samples(L, m, n, om), m=m, n=n, omega=om),
    "_solve": lambda L, m, n, om: recon._solve(*raw_samples(L, m, n, om), m, n, om,
                                                table=np.ones((int(m), L))),
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
    [(e, c) for e in M_ONLY for c in M_CASES]
    + [(e, c) for e in FULL for c in LAYOUTS]
    + [(e, c) for e in FROM_DATA for c in LAYOUTS if c != "m does not divide L"]
    + [(e, c) for e in MATCHED for c in LAYOUTS])


@pytest.mark.parametrize("entry, case", BAD_LAYOUT_CASES)
def test_bad_layout_raises_named_error(entry, case):
    (L, m, n, omega), error, match = LAYOUTS[case]
    if entry in MATCHED and (m, n) != (3, 3):
        error, match = PreconditionViolated, None
    call = {**M_ONLY, **FROM_DATA, **FULL, **MATCHED}[entry]
    with pytest.raises(error, match=match):
        call(L, m, n, omega)


# One table of entry points that take a count N of time rows: N must be an
# integer, read through spectral._count, and a float or a bool raises
# PreconditionViolated naming N, not numpy's TypeError.
N_ENTRIES = {
    "build_plain": lambda N: ds.build_plain(rc(72), 3, N, 0),
    "plain_family": lambda N: systems.plain_family(ds.PlainSystem(rc(72), 3, N)),
    "build_plain_at": lambda N: ds.build_plain_at(rc(72), 3, N, 0.1),
    "power_rows": lambda N: systems.power_rows(rc(72).response, N),
    "forward": lambda N: ds.forward(np.zeros(72), rc(72), 3, N, 3, (1,)),
    "dense_oracle": lambda N: ds.dense_oracle(rc(72), 3, N, 3, (1,)),
}


@pytest.mark.parametrize("entry", N_ENTRIES)
@pytest.mark.parametrize("N", [3.0, "3", True, np.float64(2.0)],
                         ids=["N float", "N string", "N bool", "N numpy float"])
def test_N_not_an_integer_raises_named_error(entry, N):
    with pytest.raises(PreconditionViolated, match=re.escape(f"N={N!r}")):
        N_ENTRIES[entry](N)


@pytest.mark.parametrize("entry", ["build_plain", "power_rows", "forward", "dense_oracle"])
@pytest.mark.parametrize("N", [0, -1, -2])
def test_no_time_rows_raises_named_error(entry, N):
    # forward and dense_oracle used to return one snapshot block for N = 0 and N = -2.
    with pytest.raises(PreconditionViolated, match=re.escape(f"N must be at least 1, got N={N}")):
        N_ENTRIES[entry](N)


# The m and n of the stability entry points are counts of at least 1: n = 0
# used to end in ZeroDivisionError, m = "3" in TypeError, n = 3.0 in
# lower_bound_stablow in IndexError, and bound_beta1(a, 3, 3.0) returned a value.
STABILITY_COUNTS = {
    "empirical_pinv_norm m": ("m", lambda v: ds.empirical_pinv_norm(rc(72), v, 3, (), 720)),
    "empirical_pinv_norm n": ("n", lambda v: ds.empirical_pinv_norm(rc(72), 3, v, (), 720)),
    "bound_beta1 m": ("m", lambda v: ds.bound_beta1(rc(72), v, 3)),
    "bound_beta1 n": ("n", lambda v: ds.bound_beta1(rc(72), 3, v)),
    "bound_beta2 m": ("m", lambda v: ds.bound_beta2(rc(72), v, 3)),
    "bound_beta2 n": ("n", lambda v: ds.bound_beta2(rc(72), 3, v)),
    "bound_beta3 m": ("m", lambda v: ds.bound_beta3(rc(72), v, 3)),
    "bound_beta3 n": ("n", lambda v: ds.bound_beta3(rc(72), 3, v)),
    "lower_bound_stablow m": ("m", lambda v: ds.lower_bound_stablow(rc(72), v, 3)),
    "lower_bound_stablow n": ("n", lambda v: ds.lower_bound_stablow(rc(72), 3, v)),
    "gautschi_bound m": ("m", lambda v: ds.gautschi_bound(rc(72), v, 0.1)),
    "stability_report m": ("m", lambda v: ds.stability_report(rc(72), v, 3)),
    "stability_report n": ("n", lambda v: ds.stability_report(rc(72), 3, v)),
    "guard_band_points n": ("n", lambda v: ds.guard_band_points(v, 720)),
}


# The scan grids and the factors of the choice of n are counts too, read by
# spectral._count: a float grid used to end in numpy's TypeError, or give
# bound_beta2 a bound on a fractional grid, and choose_n(n_min=0) returned 0.
# An integer grid below 4 m n keeps its ValueError.
COUNT_ENTRIES = {
    "empirical_pinv_norm grid": ("grid", lambda v: ds.empirical_pinv_norm(rc(72), 3, 3, (1,), v)),
    "stability_report grid": ("grid", lambda v: ds.stability_report(rc(72), 3, 3, grid=v)),
    "bound_beta1 grid": ("grid", lambda v: ds.bound_beta1(rc(72), 3, 3, grid=v)),
    "bound_beta2 grid": ("grid", lambda v: ds.bound_beta2(rc(72), 3, 3, grid=v)),
    "bound_beta3 grid": ("grid", lambda v: ds.bound_beta3(rc(72), 3, 3, grid=v)),
    "choose_n n_min": ("n_min", lambda v: ds.choose_n([0, 0.5], 5, n_min=v)),
    "choose_n n_max": ("n_max", lambda v: ds.choose_n([0, 0.5], v)),
    "n_is_admissible n": ("n", lambda v: ds.n_is_admissible([0, 0.5], v)),
    "guard_band_points grid": ("grid", lambda v: ds.guard_band_points(3, v)),
    **STABILITY_COUNTS,
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
@pytest.mark.parametrize("value", [720.0, 719.9, True, "3"])
def test_count_that_is_no_integer_raises_named_error(entry, value):
    name, call = COUNT_ENTRIES[entry]
    with pytest.raises(PreconditionViolated,
                       match=re.escape(f"{name} must be an integer, got {name}={value!r}")):
        call(value)


@pytest.mark.parametrize("entry", ["choose_n n_min", "n_is_admissible n", *STABILITY_COUNTS])
@pytest.mark.parametrize("value", [0, -3])
def test_count_below_one_raises_named_error(entry, value):
    # n_is_admissible(xis, 0) and (xis, -3) used to return True.
    name, call = COUNT_ENTRIES[entry]
    with pytest.raises(PreconditionViolated,
                       match=re.escape(f"{name} must be at least 1, got {name}={value}")):
        call(value)


# Signals are 1-d: a 2-d one used to end in numpy's broadcast ValueError, and
# a span c of shape (2, 24) in NonDivisibleLength naming "L=2".
SIGNAL_ENTRIES = {
    "evolve": ("f", lambda x: ds.evolve(x, rc(72), 1)),
    "forward": ("f", lambda x: ds.forward(x, rc(72), 3, 3)),
    "sis_forward bspline": ("c", lambda x: ds.sis_forward(x, BSPLINE, ID, 3, P=4)),
    "sis_forward sinc": ("c", lambda x: ds.sis_forward(x, SINC, ID, 3)),
}


@pytest.mark.parametrize("entry", SIGNAL_ENTRIES)
@pytest.mark.parametrize("shape", [(72, 2), (3, 24), (24, 3), (2, 24), ()])
def test_signal_that_is_not_1d_raises_shape_mismatch(entry, shape):
    name, call = SIGNAL_ENTRIES[entry]
    with pytest.raises(ShapeMismatch,
                       match=re.escape(f"{name} must be a 1-d signal, got shape {shape}")):
        call(np.ones(shape))


@pytest.mark.parametrize("samples", [[np.ones(24)] * 3, {"y": []}, None],
                         ids=["list", "dict", "None"])
@pytest.mark.parametrize("call", [
    lambda s: ds.reconstruct_plain(s, rc(72), 3),
    lambda s: ds.reconstruct_extended(s, rc(72), 3, 3, (1,)),
    lambda s: ds.sis_reconstruct(s, SINC, ID, 3, 3, (1, 2), K=8),
], ids=["reconstruct_plain", "reconstruct_extended", "sis_reconstruct"])
def test_samples_that_are_no_sample_set_rejected(call, samples):
    # A list used to end in AttributeError: 'list' object has no attribute 'm'.
    with pytest.raises(PreconditionViolated,
                       match=f"samples must be a SampleSet, got {type(samples).__name__}"):
        call(samples)


@pytest.mark.parametrize("l, match", [(1.5, "l must be an integer, got l=1.5"),
                                      (True, "l must be an integer, got l=True"),
                                      (np.float64(2.0), "l must be an integer, got l=np.float64"),
                                      (-1, "l must be at least 0, got l=-1")])
def test_evolve_step_that_is_no_count_rejected(l, match):
    # l = 1.5 used to apply the fractional power response**1.5, and l = -1
    # raised a bare ValueError.
    with pytest.raises(PreconditionViolated, match=re.escape(match)):
        ds.evolve(np.ones(72), rc(72), l)


def test_evolve_takes_an_integer_step_of_any_type():
    f = np.arange(72.0)
    assert np.array_equal(ds.evolve(f, rc(72), np.int64(2)), ds.evolve(f, rc(72), 2))
