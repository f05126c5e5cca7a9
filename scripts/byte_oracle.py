"""Byte oracle: digest the reports and trials CSVs of every shipped config.

Runs ``fracharm verify`` in-process on each ``configs/*.json``, writing
``<out>/<config stem>/<experiment>.{report.json,trials.csv}``, and prints two
digests in the form of ``(cd OUT && sha256sum */* | sha256sum)``: one over
the one-dimensional configs and one over the ``*_2d.json`` configs.  A change
that keeps every report byte-identical leaves both digests unchanged.

    python3 scripts/byte_oracle.py    # about 15 s on 2 CPUs

The verdict line of each config goes to standard error, followed by the
config's wall time in seconds (in-process, trials serial); the time is not
part of any digest.  Exits 1 if any config fails to verify.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fracharm.cli import cli_main  # noqa: E402


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
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["verify", experiment, "--config", str(path),
                             "--out", str(out / path.stem)])
        wall = time.perf_counter() - t0
        print(f"{path.name}: {buf.getvalue().strip()} [{wall:.3f} s]",
              file=sys.stderr)
        ok = ok and code == 0
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
