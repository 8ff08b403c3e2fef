"""``tools/equivalence.py compare`` reads two JSON records and nothing else,
so it runs where ``qlayout`` cannot be imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
# run the tool as a script with ``import qlayout`` failing, whether or not
# the package is installed
NO_QLAYOUT = ("import runpy, sys; sys.modules['qlayout'] = None; "
              "sys.argv = sys.argv[1:]; "
              "runpy.run_path(sys.argv[0], run_name='__main__')")


def compare(tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-c", NO_QLAYOUT, str(TOOL), "compare",
         *map(str, paths)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


RECORD = {"parse": {"crlf": {"num_qubits": 2, "gates": ["h 0", "cx 0 1"]}},
          "brute_force": {"b0/grid2x2/literal": {"layout": [0, 3],
                                                 "cost": 1.0}}}


def test_identical_records_compare_without_qlayout(tmp_path):
    run = compare(tmp_path, RECORD, RECORD)
    assert run.returncode == 0, run.stderr
    assert "parse: 2 of 2 outputs identical" in run.stdout
    assert "brute_force: 2 of 2 outputs identical" in run.stdout


@pytest.mark.parametrize("gates", [["h 0", "CX 0 1"], ["h 0"]])
def test_a_differing_parse_output_fails_compare(tmp_path, gates):
    other = json.loads(json.dumps(RECORD))
    other["parse"]["crlf"]["gates"] = gates
    run = compare(tmp_path, RECORD, other)
    assert run.returncode == 1, run.stderr
    assert "differs: crlf/gates" in run.stdout
