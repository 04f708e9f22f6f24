"""Make the engine importable for ``python -m pytest perfbench -q``.

(pytest puts the checkout root on the path because ``perfbench`` is a
package; the engine lives under ``src``.)
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
