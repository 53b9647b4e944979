import json
import os
import subprocess
import sys

import chebgaps


def modules_after_import(module):
    """The sys.modules keys of a fresh interpreter after `import module`."""
    src = os.path.dirname(os.path.dirname(chebgaps.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return set(json.loads(out))


def test_package_import_loads_no_submodule():
    loaded = modules_after_import("chebgaps")
    assert not [m for m in loaded if m.startswith("chebgaps.")]


def test_primes_import_skips_mpmath_scipy_and_verify():
    loaded = modules_after_import("chebgaps.primes")
    assert not loaded & {"mpmath", "scipy", "chebgaps.verify"}
