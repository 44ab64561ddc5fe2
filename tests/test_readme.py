"""The README's library example runs against the package as it is, so
the documented API cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library entry points"."""
    match = re.search(r"^## Library entry points\n+```python\n(.*?)^```",
                      README.read_text(), re.DOTALL | re.MULTILINE)
    assert match is not None, "no python block under '## Library entry points' in README.md"
    return match.group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    code = library_example()
    assert "coverage_at_altitude" in code
    (tmp_path / "scenario.ini").write_text("[layout]\nradius_m = 1500\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    coverage = [float(v) for v in lines[1].strip("[]").split()]
    assert len(coverage) == 3 and all(0.0 <= c <= 1.0 for c in coverage)
