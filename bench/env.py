"""The process environment every benchmark process runs under.

BLAS gets one thread, the package is imported from the source tree (it is not
installed), and no bytecode is written anywhere: ``PYTHONDONTWRITEBYTECODE``
is set and ``PYTHONPYCACHEPREFIX`` removed, so each `upq` process compiles
the package's sources the way an uninstalled checkout does, and nothing is
ever written into ``src/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin_threads(environ=os.environ) -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        environ[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    pin_threads(env)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


POLICY = {
    "blas_threads": 1,
    "thread_vars": list(THREAD_VARS),
    "pythonpath": "src",
    "bytecode": "PYTHONDONTWRITEBYTECODE=1, no PYTHONPYCACHEPREFIX",
}
