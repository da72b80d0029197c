"""Run the suite on this checkout's src/, installed or not.

The CLI tests start subprocesses, so src/ goes first on PYTHONPATH as
well as on sys.path.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
