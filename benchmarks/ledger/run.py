"""Entry point: ``python3 benchmarks/ledger/run.py`` (``BENCHMARK.json``)
or ``python -m benchmarks.ledger``.

Re-executes itself with ``PYTHONHASHSEED=0`` so set and dict iteration
order — and with it allocation order and GC placement — repeat from run
to run, then hands over to :mod:`benchmarks.ledger.cli`.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, str(pathlib.Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    # The script's own directory must not shadow top-level modules.
    sys.path[:] = [p for p in sys.path if pathlib.Path(p or ".").resolve() != ROOT / "benchmarks" / "ledger"]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.ledger.cli import main as cli_main

    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
