"""Print the statements of src/bvpseries that tier-1 never runs.

    python tests/statement_probe.py [PYTEST_ARGS...]

runs ``python -m pytest -q -p no:cacheprovider
--continue-on-collection-errors PYTEST_ARGS`` from the repository root,
with src on PYTHONPATH, and a line tracer in every Python process the run
starts: a ``sitecustomize`` module put first on PYTHONPATH installs
``sys.settrace`` and ``threading.settrace`` for the files under
src/bvpseries, and each process writes the lines that ran to a file of its
own when it exits, through ``os._exit`` too. The script then prints each
statement that no process ran, as ``path:line: text``, and a count. It
exits 0 whatever pytest's outcome, since the tracer slows the timed tests:
it reports and gates nothing.

The rules (``missed``): a simple statement ran if a line event fired on
one of the lines it spans. A compound statement (if, for, while, with,
try, def, class) ran if one fired on its header, from its first decorator
to the line before its body, or if a statement in one of its bodies ran.
Docstrings and ``global`` and ``nonlocal`` declarations compile to no code
and are not statements here. Line events only come from the interpreter
a tracer is installed in: a process started with -S or -I, or without
the environment, is not seen.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The sitecustomize of every traced process. It only reads its two
# variables, so that importing it costs a run little more than the tracing.
_SITECUSTOMIZE = '''\
import os
import sys
import threading

_TRACED = os.environ.get("STATEMENT_PROBE_TRACED")
_OUT = os.environ.get("STATEMENT_PROBE_OUT")
_ran = set()
_files = {}  # co_filename -> its real path if traced, else None


def _line(frame, event, arg):
    if event == "line" and frame.f_lineno is not None:
        _ran.add((_files[frame.f_code.co_filename], frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _files:
        path = os.path.realpath(name) if os.path.isabs(name) else ""
        _files[name] = path if path.startswith(_TRACED + os.sep) else None
    return _line if _files[name] else None


def _dump():
    if _ran:
        name = os.path.join(_OUT, f"{os.getpid()}-{os.urandom(8).hex()}.lines")
        with open(name, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line} {path}\\n" for path, line in _ran)
        _ran.clear()


def _exit(status, _os_exit=os._exit):
    _dump()
    _os_exit(status)


if _TRACED and _OUT:
    import atexit

    atexit.register(_dump)
    os._exit = _exit
    threading.settrace(_call)
    sys.settrace(_call)
'''


def run_probed(command, traced, **kwargs):
    """Run ``command`` (a ``subprocess.run`` argv) with the tracer in each
    Python process it starts, tracing the files under the directory
    ``traced``. Returns its exit status and {real path: lines that ran}."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "lines")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE, encoding="utf-8")
        env = kwargs.pop("env", os.environ)
        path = os.pathsep.join(filter(None, [str(site), env.get("PYTHONPATH")]))
        env = {**env, "PYTHONPATH": path, "STATEMENT_PROBE_TRACED": os.path.realpath(traced),
               "STATEMENT_PROBE_OUT": str(out)}
        status = subprocess.run(command, env=env, **kwargs).returncode
        ran = {}
        for name in out.iterdir():
            for record in name.read_text(encoding="utf-8").splitlines():
                line, path = record.split(" ", 1)
                ran.setdefault(path, set()).add(int(line))
    return status, ran


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _bodies(stmt):
    """The statement lists nested in ``stmt``, except handlers' included."""
    bodies = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
    bodies += [handler.body for handler in getattr(stmt, "handlers", [])]
    return [body for body in bodies if body and isinstance(body[0], ast.stmt)]


def missed(source, ran):
    """The first lines of the statements of ``source`` that did not run,
    in order, where ``ran`` is the set of lines on which a line event
    fired (see the module docstring for the rules)."""
    lines = []

    def walk(body, owner):
        """Whether a statement of ``body`` ran; the ones that did not go
        into ``lines``. ``owner`` is a module, class or function, whose
        first statement may be a docstring, or None."""
        any_ran = False
        for k, stmt in enumerate(body):
            if (isinstance(stmt, (ast.Global, ast.Nonlocal))
                    or (k == 0 and owner is not None and _is_docstring(stmt))):
                continue
            bodies = _bodies(stmt)
            first = min([stmt.lineno] + [d.lineno for d in
                                         getattr(stmt, "decorator_list", [])])
            last = max(bodies[0][0].lineno - 1, first) if bodies else stmt.end_lineno
            owns = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            inner = [walk(nested, stmt if owns else None) for nested in bodies]
            if any(inner) or not ran.isdisjoint(range(first, last + 1)):
                any_ran = True
            else:
                lines.append(stmt.lineno)
        return any_ran

    tree = ast.parse(source)
    walk(tree.body, tree)
    return sorted(lines)


def main(args):
    traced = ROOT / "src" / "bvpseries"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    status, ran = run_probed(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *args],
        traced, cwd=ROOT, env={**os.environ, "PYTHONPATH": path})
    count = 0
    for name in sorted(traced.rglob("*.py")):
        source = name.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in missed(source, ran.get(os.path.realpath(name), set())):
            print(f"{name.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            count += 1
    print(f"{count} statements of src/bvpseries never ran (pytest exited {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
