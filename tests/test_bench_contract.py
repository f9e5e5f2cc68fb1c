"""Every pdrslink name the benchmark in ``pdrsbench/`` uses must resolve,
and every call it makes to one must bind to that name's signature.

The benchmark's own tests (``pdrsbench/test_bench.py``) run in this suite
too, but they execute only some of the benchmark's calls: the replay and
probe paths they skip would otherwise break only in the benchmark run.  The
benchmark sources are parsed, not imported: collecting them must not run
anything.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "pdrsbench"


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def bench_references() -> list[str]:
    """Dotted pdrslink names the benchmark imports or reads, as ``file: name``."""
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pdrslink":
                refs.update(f"{path.name}: {node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                refs.update(
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.split(".")[0] == "pdrslink"
                )
            elif isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name and name.startswith("pdrslink."):
                    refs.add(f"{path.name}: {name}")
    return sorted(refs)


def bench_calls() -> list[tuple[str, str, int, list[str]]]:
    """Calls the benchmark makes to pdrslink names.

    Each is (``file:line``, dotted name, positional count, keyword names).
    A call that passes ``*args`` or ``**kw`` has no fixed shape and is left out.
    """
    calls = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pdrslink"
            for alias in node.names
        }
        for node in ast.walk(tree):
            name = _dotted(node.func) if isinstance(node, ast.Call) else None
            if name is None:
                continue
            head, dot, rest = name.partition(".")
            if head in imported:
                name = imported[head] + dot + rest
            elif head != "pdrslink":
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                continue
            calls.append(
                (f"{path.name}:{node.lineno}", name, len(node.args), [k.arg for k in node.keywords])
            )
    return calls


def resolve(dotted: str):
    """The object a dotted name denotes, importing submodules on the way."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(head)
    for part in rest:
        if not hasattr(obj, part):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def test_the_benchmark_uses_known_names():
    # the names a simplification is most likely to delete are among them
    refs = {ref.split(": ")[1] for ref in bench_references()}
    for name in (
        "pdrslink.harness.worker_count",
        "pdrslink._kernels.implementations",
        "pdrslink.linalg.DEFAULT_PINV_RTOL_SCALE",
    ):
        assert name in refs


def test_every_bench_reference_resolves():
    unresolved = []
    for ref in bench_references():
        try:
            resolve(ref.split(": ")[1])
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{ref} ({exc})")
    assert not unresolved, "benchmark names missing from pdrslink: " + "; ".join(unresolved)


def test_every_bench_call_binds():
    calls = bench_calls()
    # tracing.py passes detect_bomp's unused svd_cost positionally
    assert ("pdrslink.detect_bomp", 4) in {(name, npos) for _, name, npos, _ in calls}
    unbound = []
    for where, name, npos, keywords in calls:
        try:
            inspect.signature(resolve(name)).bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where}: {name} ({exc})")
    assert not unbound, "benchmark calls that no longer bind: " + "; ".join(unbound)
