"""Every pdrslink name the benchmark in ``pdrsbench/`` uses must resolve.

The benchmark's own tests are not part of this suite, so a change that
deletes or renames a name the benchmark imports would otherwise pass here
and break only the benchmark run.  The benchmark sources are parsed, not
imported: collecting them must not run anything.
"""

import ast
import importlib
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
