"""The README's "Library entry points" and config-key tables match the package."""
import re
from pathlib import Path

import rsmasec
from rsmasec import harness

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def table_names(text: str) -> dict[str, list[str]]:
    """Each table row's code spans in its first cell mapped to those in its last."""
    names = {}
    for line in text.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            for name in re.findall(r"`([^`]+)`", cells[1]):
                names[name] = re.findall(r"`([^`]+)`", cells[-2])
    return names


def test_entry_point_table_lists_exactly_the_exports():
    names = {re.match(r"\w+", span).group() for span in table_names(section("Library entry points"))}
    assert names == set(rsmasec.__all__)


def test_entry_point_example_runs(capsys):
    example = re.search(r"```python\n(.*?)```", section("Library entry points"), re.S).group(1)
    exec(compile(example, str(README), "exec"), {})
    iterations, converged, score = capsys.readouterr().out.split()
    assert int(iterations) >= 1 and converged in ("True", "False") and float(score) >= 0


def test_config_key_table_lists_exactly_the_parsers_keys():
    rows = table_names(section("Configuration files"))
    assert set(rows) == harness._ALL_KEYS
    assert rows["methods"] == list(harness.METHODS)
    assert rows["sweep_axis"] == [a for a in harness.SWEEP_AXES if a != "none"]
