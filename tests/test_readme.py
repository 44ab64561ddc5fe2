"""The README's library example runs and its configuration example
loads against the package as it is, so neither can drift from the code."""

import configparser
import re
from pathlib import Path

from uavcov.config import DEFAULTS, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``heading``."""
    match = re.search(rf"^## {heading}\n.*?^```{language}\n(.*?)^```",
                      README.read_text(), re.DOTALL | re.MULTILINE)
    assert match is not None, f"no {language} block under '## {heading}' in README.md"
    return match.group(1)


def library_example() -> str:
    return readme_block("Library entry points", "python")


def test_readme_config_example_loads_at_the_defaults(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(readme_block("Configuration", "ini"))
    cfg = load_config(str(path))
    assert len(cfg.build_layout()) == 367
    assert cfg.loading[7] == 0.9 and cfg.loading[6] == 0.5
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    entries = {section: dict(parser.items(section)) for section in parser.sections()}
    assert entries["loading"].pop("omega_site_7") == "0.9"     # the one non-default
    assert entries == DEFAULTS


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
