"""Byte oracle: digest the reports and trials CSVs of every shipped config.

Runs ``fracharm verify`` on each ``configs/*.json`` in a new Python
interpreter, writing ``<out>/<config stem>/<experiment>.{report.json,
trials.csv}``, and prints two digests in the form of
``(cd OUT && sha256sum */* | sha256sum)``: one over the one-dimensional
configs and one over the ``*_2d.json`` configs.  A change that keeps every
report byte-identical leaves both digests unchanged.

    python3 scripts/byte_oracle.py    # about 60 s on 2 CPUs

The verdict line of each config goes to standard error, followed by the
wall time in seconds of its ``cli_main`` call alone (trials serial); the
time is not part of any digest.  A fresh interpreter per config keeps each
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

# one verify call, timed around cli_main; the time is its last stdout line
_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from fracharm.cli import cli_main
t0 = time.perf_counter()
try:
    code = cli_main(sys.argv[2:])
finally:
    print(time.perf_counter() - t0)
sys.exit(code)
"""


def _digest(out: Path) -> str:
    """sha256 of the ``sha256sum */*`` listing of ``out``, in byte order."""
    names = sorted(f.relative_to(out).as_posix() for f in out.glob("*/*"))
    listing = "".join(
        f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}\n"
        for name in names)
    return hashlib.sha256(listing.encode()).hexdigest()


def _run_group(configs, out: Path) -> bool:
    ok = True
    for path in configs:
        experiment = json.loads(path.read_text())["experiment"]
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(ROOT / "src"), "verify",
             experiment, "--config", str(path), "--out", str(out / path.stem)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        *verdict, wall = proc.stdout.splitlines() or ["nan"]
        print(f"{path.name}: {' '.join(verdict)} [{float(wall):.3f} s]",
              file=sys.stderr)
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
