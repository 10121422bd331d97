"""A fixed stand-in for a singlet call, timed to follow the machine's speed.

Importing this module does what a short ``singlet`` call does, with none of
the program's code: it loads the standard-library modules ``singlet.cli``
loads, then does a fixed amount of exact arithmetic on dictionaries keyed by
small tuples of integers and fractions, and renders the result as JSON.  The
benchmark runs it in a fresh ``python -S`` between its operations; on a
shared machine whose speed drifts by a quarter within minutes, its time
moves with the operations' times (see README.md), and it never changes with
the program.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import json
import re  # noqa: F401
from fractions import Fraction

_acc: dict = {}
for _i in range(6000):
    _key = (_i % 61, Fraction(_i % 13, 7))
    _acc[_key] = _acc.get(_key, 0) + Fraction(_i, 3)
json.dumps(sorted((str(k), str(v)) for k, v in _acc.items()))
