"""Byte oracle: digest the reports and trials CSVs of every shipped config.

Runs ``fracharm verify`` on each ``configs/*.json`` in a new Python
interpreter, writing ``<out>/<config stem>/<experiment>.{report.json,
trials.csv}``, and prints two digests in the form of
``(cd OUT && sha256sum */* | sha256sum)``: one over the one-dimensional
configs and one over the ``*_2d.json`` configs.  A change that keeps every
report byte-identical leaves both digests unchanged.

    python3 scripts/byte_oracle.py    # about 27 s on 2 CPUs

The verdict line of each config goes to standard error, followed by the
wall time in seconds of the child's ``from fracharm.cli import cli_main``
and of its ``cli_main`` call alone (trials serial), and the first 16 hex
digits of the sha256 of that config's report and of its trials CSV
(``report=... csv=...``).  So a change that moves numbers on purpose names
the configs it moved, one that only drops report keys shows every CSV
unchanged, and one that makes the package slower to import shows it on
every line; the times are not part of any digest.  A fresh interpreter per config keeps each
time free of what earlier configs left in the process: imports, caches and
allocator state.  Exits 1 if any config fails to verify.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one verify call; the import time and the time around cli_main are its
# last two stdout lines
_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from fracharm.cli import cli_main
t1 = time.perf_counter()
try:
    code = cli_main(sys.argv[2:])
finally:
    print(t1 - t0)
    print(time.perf_counter() - t1)
sys.exit(code)
"""


def _digest(out: Path) -> str:
    """sha256 of the ``sha256sum */*`` listing of ``out``, in byte order."""
    names = sorted(f.relative_to(out).as_posix() for f in out.glob("*/*"))
    listing = "".join(
        f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}\n"
        for name in names)
    return hashlib.sha256(listing.encode()).hexdigest()


def _config_digests(out: Path) -> str:
    """``report=<hex> csv=<hex>``: the first 16 hex digits of the sha256 of
    one config's report and of its trials CSV, ``-`` for a missing file."""
    parts = []
    for label, pattern in (("report", "*.report.json"), ("csv", "*.trials.csv")):
        f = next(out.glob(pattern), None)
        parts.append(f"{label}={hashlib.sha256(f.read_bytes()).hexdigest()[:16] if f else '-'}")
    return " ".join(parts)


def _run_group(configs, out: Path) -> bool:
    ok = True
    for path in configs:
        experiment = json.loads(path.read_text())["experiment"]
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(ROOT / "src"), "verify",
             experiment, "--config", str(path), "--out", str(out / path.stem)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        *verdict, load, wall = proc.stdout.splitlines() or ["nan", "nan"]
        print(f"{path.name}: {' '.join(verdict)} "
              f"[import {float(load):.3f} s, run {float(wall):.3f} s] "
              f"{_config_digests(out / path.stem)}", file=sys.stderr)
        ok = ok and proc.returncode == 0
    return ok


def main() -> int:
    configs = sorted((ROOT / "configs").glob("*.json"))
    groups = (("1-D", [c for c in configs if not c.stem.endswith("_2d")]),
              ("2-D", [c for c in configs if c.stem.endswith("_2d")]))
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for label, group in groups:
            out = Path(tmp) / label
            ok = _run_group(group, out) and ok
            print(f"{label} ({len(group)} configs): {_digest(out)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
