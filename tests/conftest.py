"""Assert statements vanish under ``python -O``; the certificate and invariant
checks of ``partctl`` must not.  One ``-O`` interpreter runs every such check
for the whole session, so the suite pays for one start-up and one import of
the test modules; each ``*_under_python_O`` test reads its own section."""

import json
import os
import subprocess
import sys

import pytest

import partctl

PYTHON_O_SCRIPT = """\
import json, traceback, pytest, test_bounds, test_splits
from partctl import nested_split_sequence, random_tree
from partctl.errors import ConstructionFailedError
assert False, 'asserts are live'

def certificates():
    for test in (test_bounds.test_path_cut_certificate_rejects_a_non_path,
                 test_bounds.test_path_cut_certificate_rejects_an_unreached_outside_component,
                 test_bounds.test_ordered_certificate_rejects_a_non_path,
                 test_bounds.test_ordered_certificate_rejects_unattached_outside_component):
        with pytest.MonkeyPatch.context() as mp:
            test(mp)
    test_bounds.test_single_edge_split_needs_a_pendant_edge()

def truncated_sequence():
    seq = nested_split_sequence(random_tree(12, seed=1))
    seq.check()
    seq.items = seq.items[:2]
    with pytest.raises(ConstructionFailedError):
        seq.check()

failures = {}
for check in (certificates, truncated_sequence,
              test_splits.test_check_rejects_every_b_not_growing_corruption,
              test_splits.test_check_matches_two_pass_reference):
    try:
        check()
    except BaseException:
        failures[check.__name__] = traceback.format_exc()
print(json.dumps(failures))
"""


@pytest.fixture(scope="session")
def python_O_run():
    src = os.path.dirname(os.path.dirname(partctl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-O", "-c", PYTHON_O_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def python_O_check(python_O_run):
    """Assert that the named section of the one ``-O`` run passed."""
    def check(name):
        assert python_O_run.returncode == 0, python_O_run.stderr
        failures = json.loads(python_O_run.stdout.splitlines()[-1])
        assert name not in failures, failures[name]
    return check
