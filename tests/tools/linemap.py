"""Functions of src/plinth that no pinned run enters, and with --lines the
lines that no pinned run reaches inside the functions they do enter.

A stdlib line map: sys.settrace records the code objects each run calls,
and the functions of src/plinth (found with ast, methods and nested
functions included) that none of them entered are printed per module,
with the lines they span.  With --lines it records the line events of
each src/plinth function as well, and prints per module and function the
lines that function's code holds and no run reached; the def and
decorator lines, which run at import, are left out.  The runs are

- the 1,056 command lines of the CLI sweep (tests/test_sweep.py);
- the 240 command lines of the formula sweep (tests/test_formula_sweep.py);
- rounds 0-2 at seed 1 of each perfbench workload: the set-up and the
  requests themselves, not the benchmark's checks of their outputs
  (perfbench/workloads.py is read, nothing under perfbench/ is written).

Run from anywhere; it takes about ten seconds:

    python tests/tools/linemap.py
    python tests/tools/linemap.py --lines   # about fifteen seconds

It is not part of the tier-1 suite; tests/test_linemap.py runs it on one
fixture to keep it working.
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "plinth"
WORKLOADS = ("formula", "verify", "discover")


def functions():
    """{module: [(qualified name, first line, last line)]} for every def in
    src/plinth; the first line is the first decorator's, as the code
    object's co_firstlineno has it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found[path.stem] = defs = []
        _collect(ast.parse(path.read_text()), "", defs)
    return found


def _collect(node, prefix, defs):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            defs.append((prefix + child.name, first, child.end_lineno))
            _collect(child, prefix + child.name + ".", defs)
        elif isinstance(child, ast.ClassDef):
            _collect(child, prefix + child.name + ".", defs)
        else:
            _collect(child, prefix, defs)


def _traced(runs, tracer):
    """Call each of runs under the global trace function tracer, their
    output discarded."""
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for run in runs:
                run()
    finally:
        sys.settrace(previous)


def _in_package(code):
    return Path(code.co_filename).resolve().parent == PACKAGE


def entered(runs):
    """{(module, first line)} of the src/plinth functions that the calls
    in runs enter."""
    codes = set()

    def tracer(frame, event, arg):
        codes.add(frame.f_code)  # only call events reach a global trace function

    _traced(runs, tracer)
    return {(Path(c.co_filename).stem, c.co_firstlineno) for c in codes if _in_package(c)}


def lines_run(runs):
    """{code object: {line numbers run}} of the src/plinth functions that
    the calls in runs enter."""
    ran, package = {}, {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in package:
            package[code.co_filename] = _in_package(code)
        if not package[code.co_filename]:
            return None
        seen = ran.setdefault(code, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    _traced(runs, tracer)
    return ran


def never_run(ran):
    """{module: [(qualified name, [line numbers])]} of the lines of each
    entered function in ran, the dict lines_run returns, that no run
    reached.  A code object's first line is its def's, or its first
    decorator's: it runs at import and raises no line event of its own."""
    out = {}
    for code, seen in ran.items():
        held = {line for _, _, line in code.co_lines() if line is not None}
        missed = sorted(held - seen - {code.co_firstlineno})
        if missed:
            name = getattr(code, "co_qualname", code.co_name)  # Python 3.11 names methods
            out.setdefault(Path(code.co_filename).stem, []).append((name, missed))
    return {module: sorted(found, key=lambda f: f[1]) for module, found in out.items()}


def _spans(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


def never_entered(hit):
    """{module: ([(name, first, last)], lines)} of the functions not in
    hit, the set entered() returns; lines counts each source line once,
    nested functions included."""
    out = {}
    for module, defs in functions().items():
        missed = [d for d in defs if (module, d[1]) not in hit]
        lines = {k for _, first, last in missed for k in range(first, last + 1)}
        if missed:
            out[module] = (missed, len(lines))
    return out


def cli_run(argv):
    from plinth.cli import main
    return lambda: main(argv)


def sweep_runs():
    import test_sweep
    return [cli_run(argv) for argv in test_sweep._runs()]


def formula_runs(directory):
    """The formula sweep's runs; each writes its problem to a file in
    directory, as the sweep does."""
    import test_formula_sweep

    def runs_of(k, text):
        path = Path(directory) / ("problem%d.txt" % k)
        path.write_text(text)
        return [cli_run(cmd + [str(path)] + output)
                for cmd in test_formula_sweep.COMMANDS for output in ([], ["--json"])]

    return [run for k, text in enumerate(test_formula_sweep.problems())
            for run in runs_of(k, text)]


def perfbench_runs():
    """Rounds 0-2 of each workload at seed 1, the seed of the stored
    discover spans."""
    import workloads
    reference = workloads.load_reference()

    def round_run(workload, rnd):
        def run():
            for req in workloads.setup(workload, 1, rnd, reference):
                req.execute()
        return run

    return [round_run(w, rnd) for w in WORKLOADS for rnd in range(3)]


def print_lines(missed):
    """Print never_run's lines per module and function."""
    for module, found in sorted(missed.items()):
        print("%s: %d lines in %d entered functions"
              % (module, sum(len(lines) for _, lines in found), len(found)))
        for name, lines in found:
            print("  %-40s lines %s" % (name, _spans(lines)))
    print("never run in entered functions: %d lines"
          % sum(len(lines) for found in missed.values() for _, lines in found))
    return 0


def main():
    sys.dont_write_bytecode = True  # leave no cache under perfbench/ or tests/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    by_line = "--lines" in sys.argv[1:]
    with tempfile.TemporaryDirectory() as directory:
        runs = sweep_runs() + formula_runs(directory) + perfbench_runs()
        if by_line:
            return print_lines(never_run(lines_run(runs)))
        missed = never_entered(entered(runs))
    total = sum(p.read_text().count("\n") for p in PACKAGE.glob("*.py"))  # as wc -l
    for module, (defs, lines) in sorted(missed.items()):
        print("%s: %d functions, %d lines" % (module, len(defs), lines))
        for name, first, last in defs:
            print("  %-40s lines %d-%d" % (name, first, last))
    print("never entered: %d functions, %d lines of %d in src/plinth"
          % (sum(len(d) for d, _ in missed.values()),
             sum(n for _, n in missed.values()), total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
