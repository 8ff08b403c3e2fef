"""Time of ``import qlayout`` in fresh interpreters.

Starts ``--runs`` fresh interpreters of each of two kinds, alternating,
and prints the median and quartiles of each kind's time, in ms:

- ``import qlayout``: numpy is imported first and not timed, then
  ``import qlayout`` is;
- ``+ policy stack``: the same, then one policy-stack name,
  ``qlayout.PolicyNetwork``, is read inside the timed span, which loads
  ``policy``, ``diffcore`` and ``training`` if the import did not.

It also prints the qlayout modules that a bare ``import qlayout`` leaves
in ``sys.modules``, and the value of ``PYTHONDONTWRITEBYTECODE``: when it
is set, no ``.pyc`` is written, so every interpreter compiles the modules
it imports from source. The children inherit this process's environment.
The script reads only the public ``qlayout`` API, so it runs against any
checkout's ``src``:

    PYTHONPATH=src python3 tools/cold_import.py
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = """
import json, sys, time
import numpy
t0 = time.perf_counter()
import qlayout
if {stack}:
    qlayout.PolicyNetwork
t1 = time.perf_counter()
print(json.dumps({{"ms": 1000.0 * (t1 - t0), "modules": sorted(
    m for m in sys.modules if m == "qlayout" or m.startswith("qlayout."))}}))
"""

KINDS = (("import qlayout", False), ("+ policy stack", True))


def child(stack):
    """``(ms, modules)`` of one fresh interpreter."""
    run = subprocess.run([sys.executable, "-c", CHILD.format(stack=stack)],
                         capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    return out["ms"], out["modules"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=11,
                   help="fresh interpreters of each kind (at least 2)")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    times = {name: [] for name, _ in KINDS}
    bare = None
    for _ in range(args.runs):
        for name, stack in KINDS:
            ms, modules = child(stack)
            times[name].append(ms)
            if not stack:
                bare = modules
    print("PYTHONDONTWRITEBYTECODE:",
          os.environ.get("PYTHONDONTWRITEBYTECODE", "(unset)"))
    for name, values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{name:>16}: median {median:.1f} ms, quartiles "
              f"{q1:.1f}-{q3:.1f} ms over {len(values)} interpreters")
    print("loaded by import qlayout:", " ".join(bare))
    return 0


if __name__ == "__main__":
    sys.exit(main())
