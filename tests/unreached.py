"""List the package functions that no command reaches; exit 1 on any not allowed.

Run from anywhere with `python tests/unreached.py`: the package is imported
from ../src and the request pools from ../perfbench.  Under sys.setprofile
the script imports the package and runs, through `arczeta.cli.run`, every
argv of tests/golden/cli.jsonl, the seed-1 `series` and `germ` pools of
perfbench/workloads.py and `selfcheck --max 12 --json`.  A function is
every `def` and `lambda` compiled from src/arczeta; it is reached when a
call of its code object is seen.  An unreached function is listed with its
line count (a function nested in an unreached one is not counted again).

ALLOWED names the functions that stay although no command calls them, each
with its reason.  The exit is 1 when an unreached function is not in
ALLOWED, and also when an ALLOWED name is reached or names no function, so
the list cannot go stale.  pytest does not collect this file.
"""

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arczeta"

# the reasons shared by several entries
_PROTOCOL = "a protocol method: Python calls it when a value is hashed, shown or compared"
_FROZEN = "keeps a value immutable: assignment and deletion raise"
_PICKLE = "lets copy, deepcopy and pickle rebuild the value through its constructor"
_PUBLIC = "public API: germ arithmetic for library callers; no command adds germs"
_FRACTIONS = "public API: the Fraction view of a germ's terms"

ALLOWED = {
    "__init__.__getattr__": (
        "imports germ on first use: a germ command reaches it in a fresh process, "
        "but here perfbench's workloads.py has imported germ before any command runs"
    ),
    "cli.main": "the console-script entry point; it wraps run, which this script calls",
    "arcspace.coefficient_closed_form": "one coefficient by the closed form, a route of its identity",
    "algebra.LaurentPolynomial.__pow__": (
        "beta_eval of a Product built in Python with a repeated multi-term child"
    ),
    "algebra.LaurentPolynomial.__bool__": _PROTOCOL,
    "algebra.LaurentPolynomial.__hash__": _PROTOCOL,
    "algebra.LaurentPolynomial.__repr__": _PROTOCOL,
    "algebra.TruncatedSeries.__hash__": _PROTOCOL,
    "algebra.TruncatedSeries.__repr__": _PROTOCOL,
    "germ.PolynomialGerm.__add__": _PUBLIC,
    "germ.PolynomialGerm.__neg__": _PUBLIC,
    "germ.PolynomialGerm.__sub__": _PUBLIC,
    "germ.PolynomialGerm.terms": _FRACTIONS,
    "germ.PolynomialGerm.terms_of_degree": _FRACTIONS,
    "germ.PolynomialGerm.__eq__": _PROTOCOL,
    "germ.PolynomialGerm.__hash__": _PROTOCOL,
    "germ.PolynomialGerm.__repr__": _PROTOCOL,
    "germ.PolynomialGerm.__reduce__": _PICKLE,
    "germ.PolynomialGerm.__setattr__": _FROZEN,
    "scissor.Product._key": (
        "the key of ==, hash, repr and pickle, expanded from the runs; "
        "no command compares a Product"
    ),
    "_record.Record.__reduce__": _PICKLE,
    "_record.Record.__setattr__": _FROZEN,
    "_record.Record.__delattr__": _FROZEN,
}


def _functions(code, prefix: str, parent_key, found: dict) -> None:
    """Every function compiled into code: key -> (qualified name, lines, parent key)."""
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        name = f"{prefix}.{const.co_name}" if prefix else const.co_name
        is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)
        key = parent_key
        if is_function and (const.co_name == "<lambda>" or not const.co_name.startswith("<")):
            key = (const.co_filename, const.co_firstlineno, const.co_name)
            lines = [line for _, _, line in const.co_lines() if line is not None]
            found[key] = (name, max(lines) - const.co_firstlineno + 1, parent_key)
        _functions(const, name, key, found)


def package_functions() -> dict:
    found: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        _functions(code, path.stem, None, found)
    return found


def reached_keys() -> set:
    """Run every argv under a profile hook; the keys of the code objects called."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.setprofile(hook)
    import arczeta.cli

    sys.setprofile(None)
    import workloads  # building the pools is not a command: no hook meanwhile

    corpus = (ROOT / "tests" / "golden" / "cli.jsonl").read_text(encoding="utf-8")
    argvs = [json.loads(line)["argv"] for line in corpus.splitlines()]
    for pool in (workloads.series_pool, workloads.germ_pool, workloads.selfcheck_pool):
        argvs += [list(request.argv) for request in pool(1)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            for argv in argvs:
                arczeta.cli.run(argv)
                sink.seek(0)
                sink.truncate()
        finally:
            sys.setprofile(None)
    print(f"{len(argvs)} argvs run")
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in called}


def main() -> int:
    functions = package_functions()
    reached = reached_keys()
    unreached = {key for key in functions if key not in reached}
    # a function inside an unreached one is never even defined: count the outer one only
    outermost = [key for key in unreached if functions[key][2] not in unreached]
    names = {functions[key][0]: functions[key][1] for key in outermost}
    lines = sum(names.values())
    print(f"{len(functions)} functions, {len(outermost)} unreached ({lines} lines)")
    bad = []
    for name, count in sorted(names.items()):
        reason = ALLOWED.get(name)
        print(f"  {name} ({count} lines): {reason or 'NOT ALLOWED'}")
        if reason is None:
            bad.append(name)
    all_names = {name for name, _, _ in functions.values()}
    for name in sorted(ALLOWED):
        if name not in all_names:
            print(f"  {name}: allowed, but no such function")
            bad.append(name)
        elif name not in names:
            print(f"  {name}: allowed, but reached")
            bad.append(name)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
