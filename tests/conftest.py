"""Child processes that the tests start import umbra from this tree's src/ too.

``pythonpath`` in pyproject.toml covers imports inside the pytest process only.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
