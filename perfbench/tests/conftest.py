"""Make the benchmark's modules and the checkout's sources importable.

Run the benchmark's own tests from the checkout root with::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from source import use_checkout_sources  # noqa: E402

use_checkout_sources()
