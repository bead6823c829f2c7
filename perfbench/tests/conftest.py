"""Put the ecount source tree and the benchmark modules on sys.path."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for path in (_HERE.parent.parent / "src", _HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
