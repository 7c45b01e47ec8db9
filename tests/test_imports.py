import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# list the top-level modules that importing the package adds to those the
# interpreter loaded at start-up
PROBE = """
import sys
before = set(sys.modules)
import margin_forge
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_only_numpy_and_the_standard_library():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    loaded = run.stdout.split()
    assert "margin_forge" in loaded and "numpy" in loaded
    foreign = [name for name in loaded if name not in sys.stdlib_module_names
               and name not in ("numpy", "margin_forge")]
    assert foreign == []


def test_public_names_resolve():
    import margin_forge
    missing = [name for name in margin_forge.__all__ if not hasattr(margin_forge, name)]
    assert missing == []
    # the reweighting helpers that apply_scheme replaced stay gone
    for name in ("mm_weights", "sm1_weights", "uws_r", "ews_r", "pws_r"):
        assert not hasattr(margin_forge, name)
