"""``tools/code_lines.py``: the code-line count each change reports."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts

# a comment alone does not


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return math.pi
'''


def test_counts_lines_with_code_only(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "other.py").write_text("x = 1\n\ny = 2\n")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    counts = [line.split()[0] for line in result.stdout.splitlines()]
    # import, class, def, the two lines of the string, return; x and y
    assert counts == ["6", "2", "8"], result.stdout


def test_missing_path_exits_2(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path / "none")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "no such file or directory" in result.stderr
