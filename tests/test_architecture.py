"""Layout rules of the package that no behaviour test would notice.

The coordinate arithmetic of O has one home: `field` defines it on int
pairs, and every other module calls those helpers.  So the basis constants
`_norm_s` and `_norm_t` of a `FieldTag` are read nowhere but in `field.py`.
"""

import re
from pathlib import Path

import hermfj

SRC = Path(hermfj.__file__).parent


def test_norm_constants_are_read_only_in_field():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(r"_norm_[st]\b", line):
                found.append("%s:%d: %s" % (path.name, number, line.strip()))
    assert not found, "\n".join(found)
