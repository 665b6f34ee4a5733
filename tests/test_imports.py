import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runtime_modules_do_not_import_scipy_signal():
    # scipy.signal alone adds tens of MiB to every process that imports rnx
    code = (
        "import sys\n"
        "import rnx.pipeline, rnx.dataset, rnx.training, rnx.cli\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_training_imports_no_scipy():
    # the training engine's logistic is numpy; scipy stays out of its imports
    tree = ast.parse((SRC / "rnx" / "training.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "scipy"]
