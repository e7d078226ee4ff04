import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from bondtaylor import genpoly as gp
from bondtaylor import model
from bondtaylor.errors import ConfigError, DomainError
from bondtaylor.genpoly import GenPoly
from bondtaylor.model import (CIRParams, DothanParams, ShortRateModel, make_cir,
                              make_ckls, make_custom, make_dothan, make_dothan_sigma2,
                              parse_model_config, parse_model_text)
from reference import approx_equal, pairs


def test_make_cir_benchmark_params(cir_model):
    assert gp.to_text(cir_model.drift) == "0.00315:0, -0.0555:1"
    assert approx_equal(cir_model.vol2, gp.from_text("0.00799236:1"), 1e-15)


def test_make_cir_degenerate_and_squaring():
    zero = make_cir(CIRParams(0.0, 0.0, 0.0))
    assert zero.drift == GenPoly() and zero.vol2 == GenPoly()
    assert make_cir(CIRParams(1.0, 0.0, 2.0)).vol2 == gp.from_text("4:1")


def test_make_cir_rejects_negative_sigma():
    p = CIRParams(0.1, 0.0, -0.01)  # a plain record stores it
    with pytest.raises(ValueError, match="^sigma must be nonnegative, got -0.01$"):
        make_cir(p)


def test_make_dothan_examples():
    m = make_dothan(DothanParams(0.005, math.sqrt(0.02)))
    assert gp.to_text(m.drift) == "0.005:1"
    assert approx_equal(m.vol2, gp.from_text("0.02:2"), 1e-15)
    m2 = make_dothan(DothanParams(-0.005, math.sqrt(0.01)))
    assert approx_equal(m2.vol2, gp.from_text("0.01:2"), 1e-15)
    z = make_dothan(DothanParams(0.0, 0.0))
    assert z.drift == GenPoly() and z.vol2 == GenPoly()


def test_dothan_config_keeps_sigma2_exact():
    m = parse_model_text("model = dothan\nmu = 0.005\nsigma2 = 0.01\n")
    assert m.vol2 == gp.from_text("0.01:2")


def test_make_dothan_rejects_negative_sigma():
    p = DothanParams(0.005, -0.1)  # a plain record stores it
    with pytest.raises(ValueError, match="^sigma must be nonnegative, got -0.1$"):
        make_dothan(p)


def test_ckls_reduces_to_presets():
    cir = make_cir(CIRParams(0.00315, -0.0555, 0.0894))
    ckls = make_ckls(0.00315, -0.0555, 0.0894, 0.5)
    assert ckls.drift == cir.drift
    assert ckls.vol2 == cir.vol2
    dothan = make_dothan(DothanParams(-0.2, 0.3))
    ckls2 = make_ckls(0.0, -0.2, 0.3, 1.0)
    assert ckls2.drift == dothan.drift
    assert ckls2.vol2 == dothan.vol2
    # drawn parameters keep the bits of sigma * sigma at q = 2 gamma, Dothan's
    # sigma taken as sqrt(s2) as perfbench/workloads.py builds it, sigma2 kept
    # as given, and gamma off the half-integer lattice
    rng = random.Random(28)
    for _ in range(200):
        a, b, s = rng.uniform(-0.1, 0.1), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)
        mu, s2, g = rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.1), rng.uniform(0.5, 1.5)
        assert (repr(make_cir(CIRParams(a, b, s)))
                == repr(make_custom([(a, 0.0), (b, 1.0)], [(s * s, 1.0)])))
        sigma = math.sqrt(s2)
        assert (repr(make_dothan(DothanParams(mu, sigma)))
                == repr(make_custom([(0.0, 0.0), (mu, 1.0)], [(sigma * sigma, 2.0)])))
        assert (repr(make_dothan_sigma2(mu, s2))
                == repr(make_custom([(0.0, 0.0), (mu, 1.0)], [(s2, 2.0)])))
        assert (repr(make_ckls(a, b, s, g))
                == repr(make_custom([(a, 0.0), (b, 1.0)], [(s * s, 2.0 * g)])))


ONE_CONSTRUCTOR = {
    "make_cir": lambda: make_cir(CIRParams(0.00315, -0.0555, 0.0894)),
    "make_dothan": lambda: make_dothan(DothanParams(0.005, 0.1)),
    "make_ckls": lambda: make_ckls(0.01, -0.2, 0.1, 0.75),
    "make_dothan_sigma2": lambda: make_dothan_sigma2(0.005, 0.01),
    "cir": lambda: parse_model_text("model = cir\nalpha = 0.1\nbeta = 0\nsigma = 0.1\n"),
    "dothan": lambda: parse_model_text("model = dothan\nmu = 0.005\nsigma2 = 0.01\n"),
    "ckls": lambda: parse_model_text(
        "model = ckls\nalpha = 0.01\nbeta = -0.2\nsigma = 0.1\ngamma = 0.75\n"),
}


@pytest.mark.parametrize("name", sorted(ONE_CONSTRUCTOR))
def test_every_model_is_built_by_make_custom_once(monkeypatch, name):
    calls = []

    def spy(drift_terms, vol2_terms):
        calls.append((drift_terms, vol2_terms))
        return make_custom(drift_terms, vol2_terms)

    monkeypatch.setattr(model, "make_custom", spy)
    built = ONE_CONSTRUCTOR[name]()
    assert len(calls) == 1
    assert built == make_custom(*calls[0])


def test_ckls_fractional_elasticity():
    m = make_ckls(0.01, -0.2, 0.1, 1.5)
    assert approx_equal(m.vol2, gp.from_text("0.01:3"), 1e-15)
    with pytest.raises(ValueError):
        make_ckls(0.0, 0.0, -1.0, 0.5)
    # presets pass make_custom's vol2 check too: r^-400 overflows at r = 0.001
    with pytest.raises(DomainError, match="^evaluation overflowed at r=0.001$"):
        make_ckls(0.0, 0.0, 1.0, -200.0)


def test_make_custom_round_trips():
    cir = make_cir(CIRParams(0.00315, -0.0555, 0.0894))
    for drift, vol2 in ((cir.drift, cir.vol2), (pairs(cir.drift), pairs(cir.vol2))):
        m = make_custom(drift, vol2)  # GenPolys as they are, term lists canonicalized
        assert m.drift == cir.drift and m.vol2 == cir.vol2
    z = make_custom([], [])
    assert z.drift == GenPoly() and z.vol2 == GenPoly()


def test_make_custom_rejects_negative_vol2():
    with pytest.raises(DomainError):
        make_custom([], [(-1.0, 1.0)])
    # negative only beyond the sampled (0, 1] passes; a series refuses such a
    # rate (test_cli.py::test_price_refuses_a_rate_past_the_sampled_interval)
    make_custom([], [(1.0, 0.0), (-0.5, 1.0)])


def _custom_text(vol2_terms):
    return f"model = custom\ndrift_terms = 0.01:0, -0.1:1\nvol2_terms = {vol2_terms}\n"


@pytest.mark.parametrize("vol2_terms", ["0.0001:0", "0.00799236:1", "0.01:0, 0.02:0.5, 3:2"])
def test_nondecreasing_vol2_costs_one_evaluation(monkeypatch, vol2_terms):
    # no negative coefficient or exponent: vol2 is nonnegative and
    # nondecreasing on (0, 1], so the last sample decides
    rates = []
    real = gp.evaluate

    def counting(a, r):
        rates.append(r)
        return real(a, r)
    monkeypatch.setattr(gp, "evaluate", counting)
    parse_model_text(_custom_text(vol2_terms))
    assert rates == [1.0]
    make_custom([], gp.from_text(vol2_terms))
    assert rates == [1.0, 1.0]


@pytest.mark.parametrize("vol2_terms, message", [
    ("0.01:1, -0.02:2", "line 3: vol2 is negative at r=0.501"),
    # nondecreasing, but overflowing: the message names the first sample that overflows
    ("1e308:0, 1e308:1", "line 3: evaluation overflowed at r=0.798"),
    ("1e308:0, 1e308:3", "line 3: evaluation overflowed at r=0.928"),
])
def test_vol2_rejections_keep_their_messages(vol2_terms, message):
    with pytest.raises(ConfigError) as info:
        parse_model_text(_custom_text(vol2_terms))
    assert str(info.value) == message


CIR_TEXT = """\
# benchmark parameters
model = cir
alpha = 0.00315
beta = -0.0555
sigma = 0.0894
"""


def test_parse_cir_round_trip(cir_model):
    m = parse_model_text(CIR_TEXT)
    assert m.drift == cir_model.drift and m.vol2 == cir_model.vol2


def test_parse_dothan_three_lines():
    m = parse_model_text("model = dothan\nmu = 0.005\nsigma2 = 0.02\n")
    ref = make_dothan(DothanParams(0.005, math.sqrt(0.02)))
    assert approx_equal(m.vol2, ref.vol2, 1e-15)
    assert m.drift == ref.drift


def test_parse_ckls_and_custom():
    m = parse_model_text(
        "model = ckls\nalpha = 0.01\nbeta = -0.2\nsigma = 0.1\ngamma = 0.75\n")
    assert approx_equal(m.vol2, gp.from_text("0.01:1.5"), 1e-15)
    c = parse_model_text(
        "model = custom\ndrift_terms = 0.00315:0, -0.0555:1\n"
        "vol2_terms = 0.00799236:1\n")
    assert gp.to_text(c.drift) == "0.00315:0, -0.0555:1"


def test_custom_config_keeps_every_digit_of_an_exponent():
    # 1.50000000000000000001 is 1.5 as a double; the config keeps all 21 digits
    c = parse_model_text("model = custom\ndrift_terms = 0.01:0\n"
                         "vol2_terms = 0.0001:1.50000000000000000001\n")
    assert c.vol2 == GenPoly(((0.0001, 150000000000000000001),), 10 ** 20)
    assert gp.to_text(c.vol2) == "0.0001:1.50000000000000000001"


def test_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_model_text("model = cir\nthis is garbage\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_model_text("model = cir\nalpha = 1\nbeta = not_a_number\nsigma = 0\n")
    for text, message in [
        ("model = cir\nalpha = inf\nbeta = 0\nsigma = 0\n",
         "line 2: value for 'alpha' must be finite, got 'inf'"),
        ("model = ckls\nalpha = 0\nbeta = 0\nsigma = 0.1\ngamma = nan\n",
         "line 5: value for 'gamma' must be finite, got 'nan'"),
        ("model = cir\n = 0.1\n", "line 2: empty key"),
    ]:
        with pytest.raises(ConfigError) as info:
            parse_model_text(text)
        assert str(info.value) == message


def test_parse_unknown_model_and_keys():
    with pytest.raises(ConfigError, match="unknown model"):
        parse_model_text("model = vasicek\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_model_text("model = cir\nalpha = 0\nbeta = 0\nsigma = 0\nfoo = 1\n")
    with pytest.raises(ConfigError, match="sigma"):
        parse_model_text("model = cir\nalpha = 0\nbeta = 0\n")
    with pytest.raises(ConfigError, match="model"):
        parse_model_text("alpha = 0\n")


# a config body of each kind, and the model it must build
KIND_CONFIGS = {
    "cir": ("alpha = 0.00315\nbeta = -0.0555\nsigma = 0.0894\n",
            make_cir(CIRParams(0.00315, -0.0555, 0.0894))),
    "dothan": ("mu = 0.005\nsigma2 = 0.01\n", make_dothan_sigma2(0.005, 0.01)),
    "ckls": ("alpha = 0.01\nbeta = -0.2\nsigma = 0.1\ngamma = 0.75\n",
             make_ckls(0.01, -0.2, 0.1, 0.75)),
    "custom": ("drift_terms = 0.01:0, -0.1:1\nvol2_terms = 0.0001:0\n",
               make_custom([(0.01, 0.0), (-0.1, 1.0)], [(0.0001, 0.0)])),
}


def test_unknown_model_message_lists_each_kind_that_parses():
    message = "line 2: unknown model 'vasicek'; expected one of cir, dothan, ckls, custom"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_model_text("# no such preset\nmodel = vasicek\n")
    kinds = message.rpartition("expected one of ")[2].split(", ")
    assert sorted(kinds) == sorted(KIND_CONFIGS)
    for kind in kinds:
        body, want = KIND_CONFIGS[kind]
        assert parse_model_text(f"model = {kind}\n{body}") == want


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_model_text("model = cir\nalpha = 1\nalpha = 2\nbeta = 0\nsigma = 0\n")


@pytest.mark.parametrize("text,message", [
    ("model = cir\nalpha = 0.1\nbeta = 0\nsigma = -0.1\n",
     "line 4: sigma must be nonnegative, got -0.1"),
    ("model = ckls\nalpha = 0.1\nbeta = 0\nsigma = -0.1\ngamma = 0.75\n",
     "line 4: sigma must be nonnegative, got -0.1"),
    ("model = dothan\nmu = 0.005\nsigma2 = -0.01\n",
     "line 3: sigma2 must be nonnegative, got -0.01"),
    # the constructor's other refusals name the same line: sigma^2 = inf, a
    # term canonicalize refuses, and sigma^2 r^-400, which overflows at the
    # vol2 check's first sample
    ("model = cir\nalpha = 0.1\nbeta = 0\nsigma = 1e200\n",
     "line 4: non-finite term (coeff=inf, exponent=1.0)"),
    ("model = ckls\nalpha = 0.1\nbeta = 0\nsigma = 1\ngamma = -200\n",
     "line 4: evaluation overflowed at r=0.001"),
], ids=["cir", "ckls", "dothan", "cir-sigma-overflows", "ckls-vol2-overflows"])
def test_parse_negative_sigma_names_its_line(text, message):
    with pytest.raises(ConfigError) as info:
        parse_model_text(text)
    assert str(info.value) == message


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e200, -1e200, 1e308, -200.0, -1.0]),
    st.floats(-1e300, 1e300), st.floats(allow_nan=True, allow_infinity=True))
_TERMS = st.lists(st.tuples(_VALUES, _VALUES), max_size=3).map(
    lambda terms: ", ".join(f"{c!r}:{e!r}" for c, e in terms))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(["cir", "ckls", "dothan", "custom"]), data=st.data())
def test_parse_refuses_only_with_a_config_error_naming_a_line(kind, data):
    keys = {"cir": ("alpha", "beta", "sigma"), "ckls": ("alpha", "beta", "sigma", "gamma"),
            "dothan": ("mu", "sigma2"), "custom": ("drift_terms", "vol2_terms")}[kind]
    lines = [f"model = {kind}"] + [
        f"{key} = {data.draw(_TERMS if key.endswith('_terms') else _VALUES.map(repr))}"
        for key in keys]
    try:
        m = parse_model_text("\n".join(lines) + "\n")
    except ConfigError as exc:
        n = re.match(r"line (\d+): ", str(exc))
        assert n and 2 <= int(n.group(1)) <= len(lines), str(exc)
    else:
        assert isinstance(m, ShortRateModel)


def test_parse_custom_bad_terms_named_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_model_text("model = custom\ndrift_terms = 1;2\nvol2_terms = 0\n")


def test_parse_model_config_file(tmp_path, cir_model):
    path = tmp_path / "m.cfg"
    path.write_text(CIR_TEXT, encoding="utf-8")
    m = parse_model_config(path)
    assert m.drift == cir_model.drift
    with pytest.raises(ConfigError):
        parse_model_config(tmp_path / "missing.cfg")


def test_model_is_frozen(cir_model):
    with pytest.raises(AttributeError):
        cir_model.drift = GenPoly()
    assert isinstance(cir_model, ShortRateModel)
