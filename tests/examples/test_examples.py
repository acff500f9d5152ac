"""Smoke tests: the runnable examples execute end to end.

Each example is a self-contained script with a ``main()``; these tests run
the quicker ones in-process and sanity-check their printed reports.
"""

import importlib.util
import os


EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def load_example(name):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, f"{name}.py"))
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_contents():
    names = {entry for entry in os.listdir(EXAMPLES_DIR)
             if entry.endswith(".py")}
    assert {"quickstart.py", "vm_startup_storm.py", "latency_sensitive.py",
            "adaptive_tuning.py", "custom_smartnic.py", "security_audit.py",
            "vm_lifecycle.py"} <= names


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "DP packets delivered" in out
    assert "CP tasks finished    : 24" in out
    assert "vCPU slices run" in out


def test_vm_lifecycle_runs(capsys):
    load_example("vm_lifecycle").main()
    out = capsys.readouterr().out
    assert "running after" in out
    assert "Tenant network I/O: 200 packets" in out
    assert "vms=0" in out


def test_security_audit_runs(capsys):
    load_example("security_audit").main()
    out = capsys.readouterr().out
    assert "instructions recorded" in out
    assert "affinity restored" in out
    assert "hog in a vCPU context" in out
