#!/usr/bin/env python3
"""Print the order-30 partial sums of every shipped config as float hex.

    python3 scripts/hex_sweep.py > sweep.txt

One line per model, target (price, then log), rate and maturity: the order-30
sum of partial_sums as float.hex, or the message of the DomainError that
refuses it.  The models are the configs in configs/, then one CKLS model built
here at the ranges of the benchmark's deep workload with a 17-digit gamma, so
that its exponents' numerators and dens are multi-digit ints.  That is 8 models
x 2 targets x 11 rates x 5 maturities = 880 lines, in a fixed order, so the
sweeps of two source trees compare with diff: a change that keeps every bit
prints the same file.  The rates -1e200, -0.01, 0.0 and 1e200 pin which
refusal comes first where a rate is nonpositive or a value overflows.
"""

from pathlib import Path

from bondtaylor import (DomainError, log_coeffs, make_ckls, parse_model_config, partial_sums,
                        price_coeffs)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CKLS_17_DIGITS = ("ckls_gamma_0.78341234567891234", make_ckls(0.01, -0.2, 0.075, 0.78341234567891234))
ORDER = 30
RATES = (-1e200, -0.01, 0.0, 0.00041, 0.005, 0.01, 0.035, 0.05, 0.2, 3.0, 1e200)
TAUS = (0.0, 0.25, 1.0, 3.0, 10.0)


def main() -> int:
    models = [(path.name, parse_model_config(path)) for path in sorted(CONFIGS.glob("*.cfg"))]
    for name, model in [*models, CKLS_17_DIGITS]:
        for target, build in (("price", price_coeffs), ("log", log_coeffs)):
            series = build(model, ORDER)
            for r in RATES:
                for tau in TAUS:
                    try:
                        value = partial_sums(series, tau, r)[-1].hex()
                    except DomainError as exc:
                        value = f"DomainError: {exc}"
                    print(f"{name} {target} r={r!r} tau={tau!r} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
