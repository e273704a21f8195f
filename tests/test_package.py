import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import ctxground
import ctxground.evaluate


def test_data_imports_no_model_module_and_no_scipy():
    src = str(Path(ctxground.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = ("import sys, ctxground.data; print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith(('ctxground.', 'scipy')))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["ctxground.data"]


def test_package_binds_its_submodules_and_no_function_or_class():
    assert isinstance(ctxground.evaluate, types.ModuleType)
    assert [name for name, value in vars(ctxground).items()
            if inspect.isfunction(value) or inspect.isclass(value)] == []
