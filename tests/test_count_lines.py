"""scripts/count_lines.py on a small module and on the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("count_lines", ROOT / "scripts" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

_MODULE = '''"""A module docstring
over two lines."""

# a comment line
import os


def f(a,
      b):
    """One line."""
    text = ("first part "
            "second part")  # a trailing comment
    return os.path.join(a, b, text)


class C:
    """A class docstring."""
    value = """not a docstring"""
'''


def test_count_skips_blank_comment_and_docstring_lines():
    total, code = count_lines.count(_MODULE)
    assert total == 18
    # import, def (two lines), the text statement (two lines), return, class, value
    assert code == 8


def test_count_reads_the_package():
    done = subprocess.run([sys.executable, "scripts/count_lines.py"], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    files = sorted((ROOT / "src" / "splitmin").glob("*.py"))
    total = sum(len(p.read_text().splitlines()) for p in files)
    assert done.stdout.startswith(f"{total} total lines, ")
    assert done.stdout.rstrip().endswith(f"in {len(files)} files")
