import ast
import subprocess
import sys
from pathlib import Path

import psc

PACKAGE = Path(psc.__file__).resolve().parent


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; a user's process must not pay for it,
    # neither on import nor when a fit solves its dual
    src = Path(psc.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import psc; "
            "data = psc.simulate_hdlss(50, 6, 4, 1); "
            "psc.fit_psc(data, psc.Hyperparams()); psc.fit_cssvm(data); "
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


def package_imports(module: str) -> set[str]:
    """The psc modules that src/psc/<module>.py imports, read from its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("psc."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "psc":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(a.name for a in node.names)
    return found


IMPORT_GRAPH = {
    "__init__": {"classifier", "crossval", "dataset", "intercept", "metrics", "qp", "smw"},
    "classifier": {"dataset", "intercept", "qp", "smw"},
    "cli": {"classifier", "crossval", "dataset", "metrics"},
    "crossval": {"classifier", "dataset", "metrics"},
    "dataset": set(),
    "intercept": set(),
    "metrics": set(),
    "qp": set(),
    "smw": {"dataset"},
}


def test_import_layering():
    # one module owns the population factor and its inverse, crossval
    # reaches the fit's layers only through classifier, and metrics is
    # arithmetic on labels and decisions that knows no other module
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    assert modules == sorted(IMPORT_GRAPH)
    for module in modules:
        assert package_imports(module) == IMPORT_GRAPH[module], module


def test_every_artifact_format_is_written_in_dataset():
    # one module knows the JSON layout and the 17-digit float text of the
    # files psc writes, so a second writer cannot drift from it
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for mark in ("json.dump", ".17g"):
            assert (mark in text) == (path.stem == "dataset"), (path.name, mark)
