"""The README's library quick start, run exactly as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs_as_written():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), namespace)
    sol = namespace["sol"]
    assert sol.tau_star == 37
    # The last line printed is the MDP's gain: the closed-form cost at tau*.
    assert float(printed.getvalue().split()[-1]) == sol.cost_at_tau_star
    assert 36.2173913 < sol.cost_at_tau_star < 36.2173914
