"""Cold-start probe: seconds from `import bondtaylor` until the models are built.

    python perfbench/setup_probe.py [--cli] [--fd] CONFIG...

Run in a fresh interpreter with bondtaylor's source on PYTHONPATH.  `--cli`
also imports the command-line module; `--fd` also runs a two-step solve on a
tiny grid, so whatever the solver loads on first use is loaded.  Prints the
elapsed seconds on stdout.
"""

import sys
import time


def main() -> int:
    flags = {a for a in sys.argv[1:] if a.startswith("--")}
    paths = [a for a in sys.argv[1:] if not a.startswith("--")]
    start = time.perf_counter()
    import bondtaylor
    if "--cli" in flags:
        import bondtaylor.cli  # noqa: F401
    models = [bondtaylor.parse_model_config(p) for p in paths]
    if "--fd" in flags:
        bondtaylor.fd_solve(models[0], 0.01, bondtaylor.FDGrid(0.5, 8, 2))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
