"""``import qlayout`` loads what parse -> cost -> local search needs; the
policy stack (``policy``, ``diffcore``, ``training``) loads as one group on
the first read of one of its names. Each test runs in a fresh interpreter,
so that no other test's imports are in ``sys.modules``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STACK = ["qlayout.diffcore", "qlayout.policy", "qlayout.training"]
LAZY = ["DecodeStrategy", "DecoderConfig", "EncoderConfig", "PolicyNetwork",
        "TrainConfig", "decode", "gen_random_instance", "rollout", "train",
        "train_new"]


def run_python(*args):
    """``python args``, with this checkout's ``src`` first on the path."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, *args],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def fresh(code):
    """The JSON that ``code``, run after ``import json, sys`` in a fresh
    interpreter, prints."""
    return json.loads(run_python("-c", "import json, sys\n" + code))


LOADED = ("sorted(m for m in sys.modules if m == 'qlayout' "
          "or m.startswith('qlayout.'))")


def test_import_leaves_the_policy_stack_unloaded():
    loaded = fresh(f"import qlayout\nprint(json.dumps({LOADED}))")
    assert loaded == ["qlayout", "qlayout.circuit", "qlayout.errors",
                      "qlayout.objective", "qlayout.postprocess",
                      "qlayout.topology"]


def test_the_first_lazy_name_loads_the_whole_stack():
    for name in ("DecoderConfig", "decode"):
        loaded = fresh(f"import qlayout\nqlayout.{name}\n"
                       f"print(json.dumps({LOADED}))")
        assert set(STACK) <= set(loaded), name


def test_every_public_name_is_its_defining_modules_object():
    found = fresh(
        "import qlayout\n"
        "from qlayout import *\n"
        "star = dict(globals())\n"
        "out = {}\n"
        "for name in qlayout.__all__:\n"
        "    value = getattr(qlayout, name)\n"
        "    home = sys.modules[value.__module__]\n"
        "    out[name] = [value.__module__, getattr(home, name) is value,\n"
        "                 star.get(name) is value]\n"
        "print(json.dumps({'names': out, 'dir': dir(qlayout),\n"
        "                  'all': qlayout.__all__}))")
    assert set(LAZY) <= set(found["all"])
    assert set(found["all"]) <= set(found["dir"])
    for name, (module, same, starred) in found["names"].items():
        assert module.startswith("qlayout."), name
        assert same and starred, name
    assert {found["names"][name][0] for name in LAZY} == {
        "qlayout.policy", "qlayout.training"}


def test_an_unknown_name_raises_attribute_error_naming_it():
    found = fresh(
        "import qlayout\n"
        "out = []\n"
        "for name in ('no_such_name', 'policy', 'bench'):\n"
        "    try:\n"
        "        getattr(qlayout, name)\n"
        "        out.append(None)\n"
        "    except AttributeError as exc:\n"
        "        out.append(str(exc))\n"
        f"print(json.dumps([out, {LOADED}]))")
    messages, loaded = found
    assert messages == [f"module 'qlayout' has no attribute '{name}'"
                        for name in ("no_such_name", "policy", "bench")]
    assert not set(STACK) & set(loaded)


def test_reading_a_lazy_name_binds_no_callable_in_the_package():
    added = fresh(
        "import qlayout\n"
        "before = {k for k, v in vars(qlayout).items() if callable(v)}\n"
        + "".join(f"qlayout.{name}\n" for name in LAZY) +
        "after = {k for k, v in vars(qlayout).items() if callable(v)}\n"
        "print(json.dumps(sorted(after - before)))")
    assert added == []


def test_cold_import_tool_prints_both_kinds_and_the_bare_modules():
    tool = SRC.parent / "tools" / "cold_import.py"
    lines = run_python(str(tool), "--runs", "2").splitlines()
    assert lines[0].startswith("PYTHONDONTWRITEBYTECODE: ")
    assert "import qlayout: median" in lines[1]
    assert "+ policy stack: median" in lines[2]
    assert lines[3] == ("loaded by import qlayout: qlayout qlayout.circuit "
                        "qlayout.errors qlayout.objective qlayout.postprocess "
                        "qlayout.topology")
