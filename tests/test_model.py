import math

import pytest

from bondtaylor import genpoly as gp
from bondtaylor.errors import ConfigError, DomainError
from bondtaylor.genpoly import GenPoly
from bondtaylor.model import (CIRParams, DothanParams, ShortRateModel,
                              make_cir, make_ckls, make_custom, make_dothan,
                              parse_model_config, parse_model_text)


def test_make_cir_benchmark_params(cir_model):
    assert gp.to_text(cir_model.drift) == "0.00315:0, -0.0555:1"
    assert gp.approx_equal(cir_model.vol2, gp.from_text("0.00799236:1"), 1e-15)


def test_make_cir_degenerate_and_squaring():
    zero = make_cir(CIRParams(0.0, 0.0, 0.0))
    assert zero.drift == GenPoly() and zero.vol2 == GenPoly()
    assert make_cir(CIRParams(1.0, 0.0, 2.0)).vol2 == gp.from_text("4:1")


def test_cir_params_reject_negative_sigma():
    with pytest.raises(ValueError):
        CIRParams(0.1, 0.0, -0.01)


def test_make_dothan_examples():
    m = make_dothan(DothanParams(0.005, math.sqrt(0.02)))
    assert gp.to_text(m.drift) == "0.005:1"
    assert gp.approx_equal(m.vol2, gp.from_text("0.02:2"), 1e-15)
    m2 = make_dothan(DothanParams(-0.005, math.sqrt(0.01)))
    assert gp.approx_equal(m2.vol2, gp.from_text("0.01:2"), 1e-15)
    z = make_dothan(DothanParams(0.0, 0.0))
    assert z.drift == GenPoly() and z.vol2 == GenPoly()


def test_dothan_config_keeps_sigma2_exact():
    m = parse_model_text("model = dothan\nmu = 0.005\nsigma2 = 0.01\n")
    assert m.vol2 == gp.from_text("0.01:2")


def test_dothan_params_reject_negative_sigma():
    with pytest.raises(ValueError):
        DothanParams(0.005, -0.1)


def test_ckls_reduces_to_presets():
    cir = make_cir(CIRParams(0.00315, -0.0555, 0.0894))
    ckls = make_ckls(0.00315, -0.0555, 0.0894, 0.5)
    assert ckls.drift == cir.drift
    assert ckls.vol2 == cir.vol2
    dothan = make_dothan(DothanParams(-0.2, 0.3))
    ckls2 = make_ckls(0.0, -0.2, 0.3, 1.0)
    assert ckls2.drift == dothan.drift
    assert ckls2.vol2 == dothan.vol2


def test_ckls_fractional_elasticity():
    m = make_ckls(0.01, -0.2, 0.1, 1.5)
    assert gp.approx_equal(m.vol2, gp.from_text("0.01:3"), 1e-15)
    with pytest.raises(ValueError):
        make_ckls(0.0, 0.0, -1.0, 0.5)


def test_make_custom_round_trips():
    cir = make_cir(CIRParams(0.00315, -0.0555, 0.0894))
    m = make_custom(cir.drift.terms, cir.vol2.terms)
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
    make_custom([], gp.from_text(vol2_terms).terms)
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
    assert gp.approx_equal(m.vol2, ref.vol2, 1e-15)
    assert m.drift == ref.drift


def test_parse_ckls_and_custom():
    m = parse_model_text(
        "model = ckls\nalpha = 0.01\nbeta = -0.2\nsigma = 0.1\ngamma = 0.75\n")
    assert gp.approx_equal(m.vol2, gp.from_text("0.01:1.5"), 1e-15)
    c = parse_model_text(
        "model = custom\ndrift_terms = 0.00315:0, -0.0555:1\n"
        "vol2_terms = 0.00799236:1\n")
    assert gp.to_text(c.drift) == "0.00315:0, -0.0555:1"


def test_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_model_text("model = cir\nthis is garbage\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_model_text("model = cir\nalpha = 1\nbeta = not_a_number\nsigma = 0\n")


def test_parse_unknown_model_and_keys():
    with pytest.raises(ConfigError, match="unknown model"):
        parse_model_text("model = vasicek\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_model_text("model = cir\nalpha = 0\nbeta = 0\nsigma = 0\nfoo = 1\n")
    with pytest.raises(ConfigError, match="sigma"):
        parse_model_text("model = cir\nalpha = 0\nbeta = 0\n")
    with pytest.raises(ConfigError, match="model"):
        parse_model_text("alpha = 0\n")


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_model_text("model = cir\nalpha = 1\nalpha = 2\nbeta = 0\nsigma = 0\n")


def test_parse_negative_sigma2_rejected():
    with pytest.raises(ConfigError):
        parse_model_text("model = dothan\nmu = 0.005\nsigma2 = -0.01\n")


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
