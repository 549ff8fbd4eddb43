"""The interpreters the CLI tests start import the package from ``src/``,
as the tests themselves do, so a bare ``pytest`` in a checkout runs them."""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
