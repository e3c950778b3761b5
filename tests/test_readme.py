"""The README's Python API example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_block() -> str:
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1, "the Python API section holds one python block"
    return blocks[0]


def test_the_python_api_example_runs(capsys):
    code = _python_api_block()
    exec(compile(code, f"{README.name}: Python API", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0 <= int(printed[0]) < 1000
