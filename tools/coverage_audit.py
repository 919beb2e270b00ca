"""List the lines of src/bmrnn/ that the test suite never runs.

Runs the tests (all but acceptance test 4, the ablation, which trains six
models and would take most of the traced run) under the standard library's
``trace.Trace`` and prints each executable line of the package that no test
reached, as ``path:line  source``.  Run from the repository root:

    python tools/coverage_audit.py [extra pytest arguments]

``trace``'s own ignore list caches its verdicts by bare module name, so
ignoring numpy's ``numeric.py`` would also hide ``bmrnn/numeric.py``.  This
script replaces it with a check keyed on the file path: only files under
src/bmrnn/ are traced, which also keeps the run fast.  The exit status is
pytest's.
"""

from __future__ import annotations

import dis
import inspect
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bmrnn"


class _PackageOnly:
    """The ``names`` check ``trace.Trace`` asks before tracing a call:
    0 (trace) for a file of the package, 1 (ignore) for any other."""

    def __init__(self):
        self._verdict: dict[str, int] = {}

    def names(self, filename, modulename) -> int:
        verdict = self._verdict.get(filename)
        if verdict is None:
            inside = filename is not None and Path(filename).resolve().is_relative_to(PACKAGE)
            verdict = self._verdict[filename] = 0 if inside else 1
        return verdict


def executable_lines(path: Path) -> set[int]:
    """Line numbers at which some instruction of the file starts."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _PackageOnly()
    status = tracer.runfunc(pytest.main, [
        "-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
        "-k", "not test_4_ablation_direction", *argv])
    run: dict[str, set[int]] = {}
    for (filename, line) in tracer.results().counts:
        run.setdefault(str(Path(filename).resolve()), set()).add(line)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - run.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} unrun lines in {PACKAGE.relative_to(ROOT)}/")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
