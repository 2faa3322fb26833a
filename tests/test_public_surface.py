"""The documented example runs, and the public surface holds only used names."""

import contextlib
import io
import re
from pathlib import Path

import jacobiscatter

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_prints_its_documented_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # the comments on the print(t) and print(abs(t) ... lines end with the value
    documented = [
        line.split("#")[1].split()[-1]
        for line in block.splitlines()
        if line.startswith(("print(t)", "print(abs(t)"))
    ]
    assert documented == ["(0.9411764705882353+0.23529411764705882j)", "1.0"]
    assert printed[:2] == documented


def test_every_public_name_is_used():
    """Each name in __all__ resolves, appears once, and is used somewhere
    outside the package: in the README, the CLI, the tests or the bench."""
    names = jacobiscatter.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(jacobiscatter, name)
    sources = [ROOT / "README.md", ROOT / "src" / "jacobiscatter" / "cli.py"]
    sources += [path for path in (ROOT / "tests").glob("*.py") if path != Path(__file__).resolve()]
    sources += [path for path in (ROOT / "bench").rglob("*") if path.suffix in (".py", ".md")]
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    unused = [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
