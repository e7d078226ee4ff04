"""Every printed number agrees with an independent reference, or is refused.

The `fd` route against the CIR closed form, which shares no code with the
Crank-Nicolson march: an exit-0 price must carry the closed form's six
decimals, and a price the march's Richardson estimate cannot certify must
exit 2 with one error line and nothing on stdout.
"""

import contextlib
import io
from pathlib import Path

from bondtaylor import cli
from bondtaylor.closedform import cir_exact_price

# configs/cir.cfg holds the parameters of the cir_params fixture
CIR = Path(__file__).resolve().parents[1] / "configs" / "cir.cfg"
FD_RATES = (0.0, 1e-9, 0.01, 0.035, 0.05, 0.1, 0.2)
FD_TAUS = (0.25, 1.0, 5.0, 10.0, 30.0)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_fd_prints_the_cir_closed_form_or_refuses(cir_params):
    # before the refusal, 11 of these 35 points printed a wrong last digit
    # with exit 0: r <= 1e-9 at tau >= 5, r = 0.01 at tau = 10, and every rate
    # but 0.05 at tau = 30
    refused = []
    for r in FD_RATES:
        for tau in FD_TAUS:
            code, out, err = _run(["fd", "--model", str(CIR), "--r", repr(r),
                                   "--tau", repr(tau)])
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                refused.append((r, tau))
            else:
                assert (code, out) == (0, cli._fixed(cir_exact_price(cir_params, tau, r), 6) + "\n")
    # r <= 1e-9 at tau >= 5, r = 0.01 at tau >= 10, r = 0.2 at tau >= 10 and
    # every rate at tau = 30; no maturity up to 1 is refused
    assert len(refused) == 13
