"""The README's examples run against the package as it stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    """The example runs with a RuntimeWarning as an error, as the suite does."""
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _field_groups(readme: str) -> dict:
    """README field table: object cell -> the backticked names of its field cells.

    A row with an empty object cell continues the group above it.
    """
    table = re.search(r"^\| object \| field \|.*?\n\| ---.*?\n((?:\|.*\n)+)", readme, re.MULTILINE)
    groups, current = {}, None
    for row in table.group(1).splitlines():
        obj, field = (cell.strip() for cell in row.split("|")[1:3])
        current = obj or current
        groups.setdefault(current, set()).update(re.findall(r"`([^`]+)`", field))
    return groups


def test_readme_field_table_matches_the_cli_tables():
    from tpcsim import cli

    readme = (ROOT / "README.md").read_text()
    expected = {
        "(top level)": set(cli._ROOT),
        "`circuit`": set(cli._CIRCUIT),
        "`modulation`": set(cli._MODULATION),
        "`bits` (object)": set(cli._ALTERNATING),
        "`ic`": {"steady", "v2_0", "dv2_0"},
        "`run` (every type)": {"type"},
        **{f"`run` (`{name}`)": set(fields) for name, fields in cli._RUN.items()},
        **{f"`run.topology` (`{kind}`)": set(fields) for kind, fields in cli._TOPOLOGY.items()},
    }
    assert _field_groups(readme) == expected
    sentence = re.search(r"Run types:\s(.*?)\(", readme, re.DOTALL).group(1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(cli._RUN)
