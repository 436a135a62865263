"""Every function of src/trunclab is entered by the suites or the golden
corpus, or is listed in ALLOWED with the reason it is not.

A fresh interpreter records function entries with sys.setprofile while it
runs run_all(seed=0, cases=20) and every golden argv; a fresh one, so that
no cache an earlier test filled hides a function.  A non-dunder function
that neither enters and that ALLOWED does not name fails the test: give it
a caller in src/trunclab that a suite or the corpus exercises, or remove it.
Names are module.qualname without "<locals>", matched with fnmatch.
"""

import fnmatch
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import trunclab

SRC = Path(trunclab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

ALLOWED = {
    "records.record": "import time: the record class decorator",
    "suites._suite": "import time: the suite decorator",
    "suites._suite.register": "import time: registers a case function as a suite",
    "suites._suite.register.suite.fail": "failure path: no suite fails on working code",
    "records._refuse": "failure path: assignment to a frozen record",
    "elements.yosida_quotient": "exported paper API",
    "seqspace.baf_infinity": "exported paper API",
    "seqspace.TailElement.chi": "exported paper API",
    "spaces.space": "exported paper API",
    "frames.FrameReal.to_simple": "exported paper API: a frame real's image on the spectrum",
    "elements.SimpleTrunc.member": "model interface that only the tests reach",
    "elements.SimpleTrunc.tail_units": "model interface that only the tests reach",
    "kernels.SupportKernel.contains": "model interface that only the tests reach",
}

TRACE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_golden
from trunclab.suites import run_all
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
try:
    run_all(seed=0, cases=20)
    for entry in test_golden._load():
        test_golden.run(entry["argv"])
finally:
    sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in entered})))
"""


def defined_functions():
    """{(file, first line, name): module.qualname} for every non-dunder
    function of src/trunclab, nested ones and methods included."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not inspect.iscode(const):
                    continue
                name = f"{prefix}.{const.co_name}"
                stack.append((const, name))
                is_function = const.co_flags & inspect.CO_OPTIMIZED
                dunder = const.co_name.startswith("__") and const.co_name.endswith("__")
                if is_function and const.co_name.isidentifier() and not dunder:
                    out[(str(path), const.co_firstlineno, const.co_name)] = name
    return out


def entered_functions():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", TRACE, str(TESTS)], env=env,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return {(str(Path(f).resolve()), line, name) for f, line, name in json.loads(proc.stdout)}


def test_every_function_is_reached_or_allowed():
    defined = defined_functions()
    entered = entered_functions()
    assert entered & defined.keys(), "the trace matched no function of src/trunclab"
    unreached = sorted(name for key, name in defined.items() if key not in entered
                       and not any(fnmatch.fnmatchcase(name, p) for p in ALLOWED))
    assert unreached == []


def test_every_allowlist_entry_names_a_function():
    names = defined_functions().values()
    assert [p for p in ALLOWED if not fnmatch.filter(names, p)] == []
