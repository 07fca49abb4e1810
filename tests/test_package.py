"""Package-level properties of ``import tthjb``."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_loads_no_scipy():
    # importing scipy costs every command about a quarter second and 17 MB
    # at start-up; the package needs numpy alone
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tthjb, tthjb.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_trace_targets_exist():
    # perfbench's traced mode (tracing.install) looks these names up in the
    # modules that `import tthjb.cli` loads and replaces them at run time; a
    # missing one fails every traced round with AttributeError.
    import tthjb.cli  # noqa: F401

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, attr, _, _ in tracing.WRAPPED:
        module = sys.modules[f"tthjb.{modname}"]
        assert callable(getattr(module, attr, None)), f"tthjb.{modname}.{attr}"
    for modname, cls_name, attr, _ in tracing.WRAPPED_METHODS:
        cls = getattr(sys.modules[f"tthjb.{modname}"], cls_name)
        assert callable(getattr(cls, attr, None)), f"tthjb.{modname}.{cls_name}.{attr}"
    basis, tt = sys.modules["tthjb.basis"], sys.modules["tthjb.tt"]
    assert callable(basis.build_basis.cache_info)
    assert callable(tt.TensorTrain.__init__)


def test_public_names_resolve():
    # every exported name is bound, and a star import finds all of them
    import tthjb

    missing = [name for name in tthjb.__all__ if not hasattr(tthjb, name)]
    assert not missing, missing
    namespace = {}
    exec("from tthjb import *", namespace)
    assert set(tthjb.__all__) <= set(namespace)
