import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# Commands the tests start in a subprocess (`python -m ettag.cli`) import the
# same sources as the tests themselves.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
