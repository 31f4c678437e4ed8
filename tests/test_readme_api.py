"""The README's "Library entry points" section matches the package."""
import re
from pathlib import Path

import rsmasec

README = Path(__file__).resolve().parent.parent / "README.md"


def api_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library entry points")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def test_entry_point_table_lists_exactly_the_exports():
    names = set()
    for line in api_section().splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            names.update(re.match(r"\w+", span).group()
                         for span in re.findall(r"`([^`]+)`", first_cell))
    assert names == set(rsmasec.__all__)


def test_entry_point_example_runs(capsys):
    example = re.search(r"```python\n(.*?)```", api_section(), re.S).group(1)
    exec(compile(example, str(README), "exec"), {})
    iterations, converged, score = capsys.readouterr().out.split()
    assert int(iterations) >= 1 and converged in ("True", "False") and float(score) >= 0
