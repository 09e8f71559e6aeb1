"""Smoke test of the opt-in line map, tests/tools/linemap.py."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "linemap", Path(__file__).parent / "tools" / "linemap.py")
linemap = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(linemap)


def test_line_map_of_one_fixture():
    # check and kernel classify D, which applies it, and never fall back
    # to the PRS gcd
    runs = [linemap.cli_run([cmd, "--example", "inice"]) for cmd in ("check", "kernel")]
    missed = linemap.never_entered(linemap.entered(runs))
    names = {module: [name for name, _, _ in defs] for module, (defs, _) in missed.items()}
    assert "_gcd_prs" in names["polyring"]
    assert "apply" not in names.get("derivation", [])
    assert "apply" in [name for name, _, _ in linemap.functions()["derivation"]]


def test_line_mode_of_one_fixture():
    # check on notlnd sees the iterates of X recur: classify runs that
    # branch, and never the one of a D it cannot decide
    ran = linemap.lines_run([linemap.cli_run(["check", "--example", "notlnd"])])
    missed = dict(linemap.never_run(ran)["derivation"])
    source = (linemap.PACKAGE / "derivation.py").read_text().splitlines()
    shown = [source[k - 1].strip() for k in missed["classify"]]
    assert "lnd = None" in shown and "recurring.append(var)" not in shown
    # the def line runs at import, not in the call
    assert all(not line.startswith("def ") for line in shown)
    assert linemap._spans([3, 4, 5, 9]) == "3-5, 9"
