"""README's examples run as written."""

import json
import re
from pathlib import Path

from kgcharge.cli import DEFAULT_CONFIG

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (## Library)", "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()]
    # one row per order 0..4: order, tree count, residual
    assert [(int(order), int(count)) for order, count, _ in rows] == [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14)]


def test_the_config_block_is_the_default_config():
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == DEFAULT_CONFIG
