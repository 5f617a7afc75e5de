"""README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from royaltyshare import exact_shapley, royalty_shares

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_example_runs_and_prints_shares(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    shares = royalty_shares(exact_shapley(namespace["game"])).shares
    assert capsys.readouterr().out == f"{shares}\n"
    assert len(shares) == 3 and abs(sum(shares) - 1.0) <= 1e-12
