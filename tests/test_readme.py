import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_names_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    named = re.findall(r"^  (\w+\.py)\b", block, flags=re.MULTILINE)
    package = ROOT / "src" / "pdrslink"
    modules = sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")
    assert sorted(named) == modules
    assert len(named) == len(set(named))
