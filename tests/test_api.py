"""The package's top-level names are the ones README's Library section documents."""

from pathlib import Path

import bvpseries

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("## Library")
    return text[start:text.index("\n## ", start + 1)]


def test_every_exported_name_resolves_and_is_documented():
    section = _library_section()
    assert len(set(bvpseries.__all__)) == len(bvpseries.__all__)
    for name in bvpseries.__all__:
        assert getattr(bvpseries, name) is not None
        assert f"`{name}`" in section, name


def test_library_example_runs(capsys):
    code = _library_section().split("```python\n")[1].split("```")[0]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True 23"
