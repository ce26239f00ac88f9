import subprocess
import sys
from pathlib import Path

import psc


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; a user's process must not pay for it
    src = Path(psc.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import psc; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


FAILING_GIVEN_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_given_test_does_not_hide_the_tests_after_it(tmp_path):
    # under filterwarnings = ["error"], a warning raised while hypothesis
    # reports a failure ended the run in INTERNALERROR after "1 failed"
    (tmp_path / "test_two.py").write_text(FAILING_GIVEN_THEN_PASSING)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_two.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1
