"""Run the ``repro`` command line with the layer timers installed.

Used by the traced ``http-zipf`` run: ``python serve_traced.py serve
--http HOST:PORT ...`` behaves exactly like ``python -m repro serve
--http HOST:PORT ...``, except that every response's ``timings`` also
carries the ``probe.*`` layer times.  ``src`` must be on ``PYTHONPATH``.
"""

import sys

import layers
from repro.cli import main

if __name__ == "__main__":
    layers.install()
    sys.exit(main(sys.argv[1:]))
