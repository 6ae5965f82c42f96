"""The code the README shows runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
