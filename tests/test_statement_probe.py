"""The rules of the statement probe, tests/statement_probe.py, on a small
snippet; none of these runs tier-1."""

import subprocess
import sys
import textwrap

from statement_probe import missed, run_probed

SNIPPET = textwrap.dedent('''\
    """Module docstring."""
    import os


    def deco(fn):
        return fn


    @deco
    def f(x):
        """Function docstring."""
        global COUNT
        if x > 0:
            x = x - 1
        elif x < -5:
            return 2
        else:
            x = -x
        try:
            y = (x +
                 1)
        except ValueError:
            y = 0
        while x > 10:
            y = 3
        return y


    class C:
        """Class docstring."""
        value = 1

        def never(self):
            return 3


    f(1)
    f(-1)
    os._exit(0)
    ''')

# return 2, y = 0, y = 3 and return 3
NEVER_RAN = [16, 23, 25, 34]


def test_a_compound_statement_runs_through_its_header_or_its_body():
    # the if ran where only its body did, the def where only its decorator
    # did; docstrings and global are no statements
    assert missed("if x:\n    y = 1\n", {2}) == []
    assert missed("@deco\ndef f():\n    pass\n", {1, 3}) == []
    assert missed('def f():\n    """Doc."""\n    global y\n    y = 1\n', {1}) == [4]
    assert missed("if x:\n    y = 1\nelse:\n    y = 2\n", {1, 2}) == [4]


def test_a_statement_runs_on_any_line_it_spans():
    assert missed("y = (1 +\n     2)\nz = 3\n", {2}) == [3]
    assert missed("y = (1 +\n     2)\nz = 3\n", set()) == [1, 3]


def test_a_docstring_only_opens_a_body():
    assert missed('x = 1\n"""not a docstring"""\n', {1}) == [2]


def test_the_probe_traces_a_child_to_its_os_exit(tmp_path):
    # the snippet ends through os._exit, which skips atexit
    (tmp_path / "snippet.py").write_text(SNIPPET)
    status, ran = run_probed([sys.executable, "-c", "import snippet"], tmp_path, cwd=tmp_path,
                             stdout=subprocess.DEVNULL)
    assert status == 0
    assert list(ran) == [str((tmp_path / "snippet.py").resolve())]
    assert missed(SNIPPET, *ran.values()) == NEVER_RAN
