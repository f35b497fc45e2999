"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].factorization == "sparse"
    assert capsys.readouterr().out.strip()
