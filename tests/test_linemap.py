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
