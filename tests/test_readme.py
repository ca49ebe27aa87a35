"""The README's library example runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_prints_documented_ratio():
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "2.0"
