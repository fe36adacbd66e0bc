"""README's library example runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    prints = [ln for ln in code.splitlines() if ln.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints) > 0
    # A comment on a print gives its output, before any ": " remark.
    for line, got in zip(prints, printed):
        if "# " in line:
            assert got == line.split("# ", 1)[1].split(": ")[0], line
