"""The reachability tool (``tools/reachability.py``) on a tiny package.

Each test writes a two-function module under a temporary root and runs
one scenario through the tool's recorder, so what it proves does not
depend on the real scenario set.
"""

from __future__ import annotations

import importlib.util
import io
import os
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


def _tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _measure(tmp_path: Path, source: str, call: str):
    tool = _tool()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(textwrap.dedent(source), encoding="utf-8")
    scenario = tool.Scenario("probe", ("-c", f"import mod; mod.{call}()"))
    called, failed = tool.record([scenario], root=package,
                                 pythonpath=(package,), log=io.StringIO())
    assert failed == []
    functions = tool.list_functions(package)
    return {f.qualname for f in tool.unreached(functions, called)}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_call_made_only_in_a_forked_child_that_os_exits_is_recorded(tmp_path):
    missing = _measure(tmp_path, """
        import os

        def in_child():
            return 1

        def main():
            pid = os.fork()
            if pid == 0:
                in_child()
                os._exit(0)
            os.waitpid(pid, 0)
        """, "main")
    assert missing == set()


def test_a_function_never_called_is_reported_unreached(tmp_path):
    missing = _measure(tmp_path, """
        import functools

        def never():
            return 2

        class Holder:
            @functools.lru_cache(maxsize=None)
            def decorated(self):
                return 3

        def main():
            return Holder().decorated()
        """, "main")
    # the decorated method is reached: its code starts at the decorator
    assert missing == {"never"}
