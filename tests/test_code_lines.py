"""The rules of the code-line counter, tests/code_lines.py."""

import subprocess
import sys
import textwrap
from pathlib import Path

from code_lines import code_lines

SNIPPET = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    import math  # a comment after code counts

    # a comment line does not


    class Point:
        """Class docstring."""

        def norm(self):
            """Function docstring,

            with a blank line inside."""
            return math.hypot(
                self.x,
                self.y,
            )

    def one_line(): """Docstring after code on its line."""; return 1

    TEXT = """a string that is
    not a docstring"""
    ''')


def test_counts_code_and_only_code():
    # import, class, def, the four lines of the return, def one_line and
    # the two lines of TEXT
    assert code_lines(SNIPPET) == 10


def test_blank_comment_and_docstring_only_source_has_none():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = [\n    2,\n]\n")
    script = Path(__file__).with_name("code_lines.py")
    r = subprocess.run([sys.executable, str(script), str(tmp_path)],
                       capture_output=True, text=True, check=True)
    assert [line.split()[0] for line in r.stdout.splitlines()] == ["10", "4", "14"]
    assert r.stdout.splitlines()[-1].split() == ["14", "total"]
