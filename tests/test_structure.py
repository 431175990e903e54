"""Structural guards on the source tree: the benchmark's wrapped names, dead imports,
direct numpy imports, unused options, memoizing caches, work done at import and the
numpy-free spec model."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench lives at the repository root, beside src/
    sys.path.append(str(ROOT))

from perfbench.traced_cli import WRAPPED  # noqa: E402

SRC = ROOT / "src" / "hsmf"


def test_every_traced_name_is_callable():
    """The traced benchmark wraps these by name; a rename or deletion fails here first."""
    missing = [
        f"{layer}.{name}"
        for layer, names in WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hsmf.{layer}"), name, None))
    ]
    assert missing == []


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (other than ``__future__``) that the module never uses."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_module_imports():
    # the check itself: a dead plain import and a dead from-import are seen, live ones are not
    sample = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from .specs import cells, path_lefts\n"
        "def f(x):\n    return np.sqrt(x) + len(cells(x)) + os.path.sep\n"
    )
    assert _unused_imports(sample) == ["math", "path_lefts"]
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def _numpy_imports(source: str) -> list[str]:
    """``import numpy``/``from numpy ...`` statements anywhere in the module: each one runs
    numpy's import at once, which undoes the deferral in ``hsmf._np``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            found.append(f"from {node.module}")
    return found


def test_numpy_is_imported_only_through_np_module():
    # the check itself: plain, dotted and from-imports of numpy are seen, at module level
    # or inside a function; hsmf's own deferred binding and a look-alike name are not
    sample = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport numpy.linalg\nfrom numpy import float64\n"
        "from ._np import np\nimport numpyish\n"
        "def f():\n    from numpy.random import default_rng\n    return default_rng\n"
    )
    assert _numpy_imports(sample) == ["numpy", "numpy.linalg", "from numpy", "from numpy.random"]
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_np.py" and (names := _numpy_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# Options that only tests set, each named with a test that sets it.
TEST_ONLY_OPTIONS = {
    "cli.main.argv",  # test_cli.py: test_sample_json_equals_stdlib_encoding_of_per_element_records
}


def _unset_options(sources: dict[str, str]) -> list[str]:
    """``module.function.parameter`` for each parameter with a default on a public module-level
    function that no call in ``sources`` passes, by keyword or by position. Calls are matched
    by the called name, whatever module or object it is reached through."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    options = {}  # (module, function, parameter) -> its position, or None if keyword-only
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    options[(module, node.name, arg.arg)] = i
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        options[(module, node.name, arg.arg)] = None
    passed = set()
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords = {k.arg for k in call.keywords}
            for key, position in options.items():
                if key[1] == name and (key[2] in keywords
                                       or position is not None and len(call.args) > position):
                    passed.add(key)
    return sorted(".".join(key) for key in options.keys() - passed)


def test_every_option_is_set_by_the_package():
    # the check itself: an option passed by keyword, one passed by position, and one set
    # only through a method call are seen as set; an unset one and a private function's are not
    sample = {
        "a": "def f(x, depth=1, *, seed=0, fast=False):\n    return x\n"
             "def _g(y=2):\n    return y\n",
        "b": "from .a import f\ndef h(obj):\n    return f(1, 2) + obj.f(1, seed=3)\n",
    }
    assert _unset_options(sample) == ["a.f.fast"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _unset_options(sources) == sorted(TEST_ONLY_OPTIONS)


def _memo_caches(source: str) -> list[str]:
    """Uses of ``functools.lru_cache`` or ``functools.cache``, imported or reached as attributes."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in ("lru_cache", "cache")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(f"functools.{node.attr}")
    return found


def test_no_memoizing_caches():
    """Work is shared by passing values (one ball table per scale), never through caches
    keyed on whole specs; a per-instance ``cached_property`` is a field built on first use."""
    # the check itself: both imported and attribute forms are seen, cached_property is not
    sample = (
        "import functools\nfrom functools import cached_property, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef f(x):\n    return x\n"
        "@functools.cache\ndef g(x):\n    return x\n"
    )
    assert _memo_caches(sample) == ["lru_cache", "functools.cache"]
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _memo_caches(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# Prints, as ``module.function``, each function under the root (argv[1]) that runs while
# argv[2] is imported. Module and class bodies are not functions (no CO_OPTIMIZED flag).
_IMPORT_PROBE = """
import inspect, os, sys
root, module = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.dirname(root))
ran = set()
def probe(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(root) and code.co_flags & inspect.CO_OPTIMIZED:
        ran.add(os.path.basename(code.co_filename)[:-3] + "." + code.co_name)
sys.setprofile(probe)
__import__(module)
sys.setprofile(None)
print(" ".join(sorted(ran)))
"""


def _functions_run_at_import(root: Path, module: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(root), module],
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_importing_the_cli_runs_no_package_function(tmp_path):
    """A cold ``validate`` imports every layer but ``verify``, and the benchmark times it as
    ``setup_s``; so importing ``hsmf.cli`` may run no ``hsmf`` function but the numpy deferral."""
    # the check itself: a function called at import is seen; one only defined, a class
    # body and a generator left unconsumed are not
    pkg = tmp_path / "probed"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "def f():\n    return 1\ndef g():\n    return 2\n"
        "class C:\n    x = 1\nX = f()\nG = (i for i in ())\n"
    )
    assert _functions_run_at_import(pkg, "probed") == ["__init__.f"]
    assert _functions_run_at_import(SRC, "hsmf.cli") == ["_np._deferred_numpy"]


# The spec model: families, schedules, the spec, validation and JSON loading. Kernels read a
# family's numbers through ``specs.family_rows``, so none of these needs numpy.
SPEC_MODEL = ("GenerationFamily", "ConstantSchedule", "PeriodicSchedule", "BlockSchedule", "MoranSpec",
              "check_spec", "validate_spec", "schedule_from_dict", "spec_from_dict", "load_spec",
              "_expect_keys", "_int", "_number", "_array", "_family_from_dict")


def _numpy_users(source: str, names) -> dict[str, bool]:
    """For each module-level class or function among ``names``, whether it names ``np``."""
    return {node.name: any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(node))
            for node in ast.parse(source).body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in names}


def test_spec_model_never_names_numpy():
    # the check itself: a planted np use in a method or an annotation is seen, a look-alike
    # name and a definition outside the model are not
    sample = (
        "class GenerationFamily:\n    @property\n    def log_probs(self):\n        return np.log(self.probs)\n"
        "def check_spec(spec) -> np.ndarray:\n    return []\n"
        "def load_spec(path):\n    npx = 1\n    return npx\n"
        "def cells(spec):\n    return np.zeros(1)\n"
    )
    assert _numpy_users(sample, SPEC_MODEL) == {"GenerationFamily": True, "check_spec": True,
                                                 "load_spec": False}
    users = _numpy_users((SRC / "specs.py").read_text(encoding="utf-8"), SPEC_MODEL)
    assert users == dict.fromkeys(SPEC_MODEL, False)
