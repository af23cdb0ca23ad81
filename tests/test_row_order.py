"""Row order of every output table must not depend on PYTHONHASHSEED.

Ray workers do not pin the hash seed, so any iteration over a `set` of
property or statement ids in the differ would make the emitted row order
differ between workers and runs.
"""
import json
import os
import subprocess
import sys

_SCRIPT = """
import json, sys
sys.path.insert(0, {tests!r})
import golden
tables, _ = golden.extract(golden.golden_docs())
print(json.dumps(golden.ordered_digests(tables)))
"""


def _ordered_digests(hash_seed: str) -> dict:
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(tests=tests)], env=env,
        cwd=os.path.dirname(tests), capture_output=True, text=True,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_row_order_independent_of_hash_seed():
    a, b = _ordered_digests("1"), _ordered_digests("2")
    assert len(a) == 12
    assert a == b, sorted(k for k in a if a[k] != b[k])
