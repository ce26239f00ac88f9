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
