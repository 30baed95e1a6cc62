"""``tools/cold_start.py``: serving and learning import no scipy
submodule and no ``numpy.ma``, at stride = window or below it.

The check needs an interpreter that has not imported scipy yet, and this
one has, so the script runs as a subprocess on the scenario's package.
"""

import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "cold_start.py"


@pytest.fixture(scope="module")
def package_path(scenario, tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "package.npz"
    scenario.package.save(path)
    return str(path)


def _run(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120
    )


def test_windowed_serving_imports_no_scipy_signal(package_path):
    result = _run(str(SCRIPT), package_path)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("import repro.serving: ")
    assert lines[-2].startswith("stride-30 stream: ")
    assert lines[-2].endswith(
        "lfilter kernel ran, no scipy.signal, no scipy.ndimage, no numpy.ma"
    )
    assert lines[-1] == "cold start: ok"


def test_an_eager_import_fails_the_check(package_path):
    """The check is not vacuous: a process that imported ``scipy.signal``
    before serving fails it."""
    prelude = (
        "import runpy, sys, scipy.signal; "
        f"sys.argv = [{str(SCRIPT)!r}, {package_path!r}]; "
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')"
    )
    result = _run("-c", prelude)
    assert result.returncode == 1
    assert "window imported ['scipy.signal'" in result.stdout


def test_a_stride_30_import_fails_the_check(package_path):
    """The stride-30 half is not vacuous either: a process whose
    ``lfilter`` kernel load imports ``scipy.signal`` fails it."""
    src = str(SCRIPT.parent.parent / "src")
    prelude = (
        f"import runpy, sys; sys.path.insert(0, {src!r}); "
        "from repro.preprocessing import denoise; "
        "load = denoise._load_sigtools; "
        "denoise._load_sigtools = "
        "lambda: (__import__('scipy.signal'), load())[1]; "
        f"sys.argv = [{str(SCRIPT)!r}, {package_path!r}]; "
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')"
    )
    result = _run("-c", prelude)
    assert result.returncode == 1
    assert "serving at stride 30 imported ['scipy.signal'" in result.stdout


@pytest.mark.parametrize("module, patched, message", [
    (
        "streaming", "StreamingFeatureExtractor.__init__",
        "serving at stride = window imported ['numpy.ma']",
    ),
    ("denoise", "_load_sigtools", "serving at stride 30 imported ['numpy.ma']"),
], ids=["package-load", "stride-30"])
def test_a_serving_path_numpy_ma_import_fails_the_check(
    package_path, module, patched, message
):
    """``numpy.ma`` is guarded on the serving path too: a package load
    whose feature extractor sorts its channels with ``np.unique``, or a
    stride-30 stream whose kernel load does, fails the check."""
    src = str(SCRIPT.parent.parent / "src")
    owner, _, attr = patched.rpartition(".")
    target = f"{module}.{owner}" if owner else module
    prelude = (
        f"import runpy, sys; sys.path.insert(0, {src!r}); "
        f"from repro.preprocessing import {module}; "
        f"old = {target}.{attr}; "
        f"{target}.{attr} = "
        "lambda *args: (__import__('numpy').unique([0]), old(*args))[1]; "
        f"sys.argv = [{str(SCRIPT)!r}, {package_path!r}]; "
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')"
    )
    result = _run("-c", prelude)
    assert result.returncode == 1
    assert message in result.stdout
