"""``python -m pytest perf/tests`` - outside tier-1's ``testpaths``."""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
for path in (os.path.join(ROOT, "src"), PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
