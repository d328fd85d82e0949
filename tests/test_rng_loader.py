"""The ``ndtri`` loader of :mod:`gmspde.rng`: one ufunc, no package init."""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import scipy.special

from gmspde import rng

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# loaded by scipy.special's package init (through its array-API layer)
SPECIAL_INIT = ("scipy.special", "scipy._lib._array_api", "numpy.testing",
                "numpy.f2py", "numpy.ma")
TABLE = "rng.normal_table(5, np.arange(3), 16, 0, 64)"


def _fresh(code):
    """Stdout of ``code`` run in a fresh interpreter on this checkout's src."""
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path)).stdout


def _digest(table):
    return hashlib.sha256(table.tobytes()).hexdigest()


def test_cli_import_runs_no_scipy_special_init():
    out = _fresh(f"""
import sys
import gmspde.cli
print(*[m for m in {SPECIAL_INIT!r} if m in sys.modules])
from gmspde import rng
import scipy.special
assert rng.ndtri is scipy.special.ndtri
assert "scipy._lib._array_api" in sys.modules
""")
    assert out.split() == []


def test_falls_back_to_the_package_when_the_extension_moved(tmp_path):
    # scipy.special's directory found empty: the direct load fails, and
    # the package import gives the same ufunc and the same draws
    out = _fresh(f"""
import importlib.util, hashlib, sys
import numpy as np
find_spec = importlib.util.find_spec

def moved(name, package=None):
    spec = find_spec(name, package)
    if name == "scipy.special":
        spec.submodule_search_locations = [{str(tmp_path)!r}]
    return spec

importlib.util.find_spec = moved
from gmspde import rng
assert "scipy._lib._array_api" in sys.modules
import scipy.special
assert rng.ndtri is scipy.special.ndtri
print(hashlib.sha256({TABLE}.tobytes()).hexdigest())
""")
    assert out.split() == [_digest(eval(TABLE))]


def test_ndtri_is_bitwise_scipy_special_ndtri():
    assert rng.ndtri is scipy.special.ndtri
    words = np.random.default_rng(3).integers(0, 2**64, 2_000_000,
                                              dtype=np.uint64)
    words[:2] = 0, 2**64 - 1
    uniforms = np.minimum(((words >> np.uint64(11)) + 0.5) * 2.0**-53,
                          1.0 - 2.0**-53)
    got = rng.normals_from_bits(words.copy(), np.empty(words.size))
    assert np.array_equal(got.view(np.uint64),
                          scipy.special.ndtri(uniforms).view(np.uint64))
    # the clamp, the smallest uniforms and Cephes' branch points exp(-2)
    # and 1 - exp(-2), each with its neighbours
    edges = np.array([1.0 - 2.0**-53, 2.0**-53, 2.0**-54,
                      np.exp(-2.0), 1.0 - np.exp(-2.0)])
    edges = np.concatenate([np.nextafter(edges, 0.0), edges,
                            np.nextafter(edges, 1.0)])
    assert np.array_equal(rng.ndtri(edges).view(np.uint64),
                          scipy.special.ndtri(edges).view(np.uint64))
