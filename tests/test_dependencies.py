"""trace-lab has no runtime dependencies: importing the package and its command
line loads only the standard library.  Test-only oracles such as sympy must
not leak into src."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import tracelab, tracelab.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_the_package_loads_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "tracelab" in loaded
    assert [name for name in loaded if name != "tracelab" and name not in sys.stdlib_module_names] == []
