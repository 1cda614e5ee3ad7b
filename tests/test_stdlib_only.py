"""The package runs on the standard library alone.

Each check runs Python with -S, so no site-packages directory is on the
path (numpy, sympy and hypothesis may be installed there), and with
PYTHONPATH pointing at the package source.
"""

import os
import pkgutil
import subprocess
import sys

import burneq

SRC = os.path.dirname(os.path.dirname(burneq.__file__))
S3_GROUP = '{"points": 3, "generators": [[1,0,2],[1,2,0]]}'


def run_without_site(args, cwd):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def test_every_module_imports_from_the_standard_library_alone(tmp_path):
    # every module burneq lists imports, and afterwards nothing outside the
    # standard library and burneq itself is loaded
    script = (
        "import importlib, pkgutil, sys\n"
        "import burneq\n"
        "names = [m.name for m in pkgutil.iter_modules(burneq.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('burneq.' + name)\n"
        "outside = sorted({m.split('.')[0] for m in sys.modules}\n"
        "                 - set(sys.stdlib_module_names) - {'burneq', '__main__'})\n"
        "print(' '.join(names))\n"
        "print(outside)\n"
    )
    done = run_without_site(["-c", script], tmp_path)
    assert done.returncode == 0, done.stderr
    names = [m.name for m in pkgutil.iter_modules(burneq.__path__)]
    assert names and done.stdout == f"{' '.join(names)}\n[]\n"


def test_cli_runs_from_the_standard_library_alone(tmp_path):
    group = tmp_path / "s3.json"
    group.write_text(S3_GROUP, encoding="utf-8")
    done = run_without_site(["-m", "burneq.cli", "mul", "-g", str(group),
                             "-a", "[G/(1 2)]", "-b", "[G/(1 2 3)]"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1*[G/e]\n", "")
