"""confbel._special: scipy.special behind a first-use import."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

from scipy import special

import confbel
from confbel import _special


def _fresh():
    """A new module object of confbel._special whose hook has not run."""
    spec = importlib.util.spec_from_file_location(_special.__name__, _special.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_read_is_scipys_function_and_later_reads_skip_getattr():
    module = _fresh()
    assert "__getattr__" in vars(module) and "betainc" not in vars(module)
    assert module.betainc is special.betainc
    # the hook is gone and the namespace is the module's own, dunders kept
    assert "__getattr__" not in vars(module)
    assert vars(module)["betainc"] is special.betainc and vars(module)["ndtr"] is special.ndtr
    assert module.__name__ == "confbel._special" and module.__file__ == _special.__file__


def test_unknown_name_raises_attribute_error():
    assert not hasattr(_fresh(), "no_such_function")
    assert not hasattr(_special, "no_such_function")


def test_dunder_probe_imports_no_scipy():
    code = "\n".join([
        "import sys",
        "from confbel import _special",
        "print(hasattr(_special, '__wrapped__'), hasattr(_special, '__path__'),",
        "      any(m.split('.')[0] == 'scipy' for m in sys.modules), '__getattr__' in vars(_special))",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confbel.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False", "True"]
