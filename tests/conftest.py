"""Shared pytest wiring for the suite.

The ``slow`` marker (full backend matrices and benchmark-size
circuits) and the tier-1 skip logic live here — one place instead of
duplicated ``markers`` + ``addopts`` entries in pyproject.toml, so a
new test file marking cases ``slow`` automatically stays out of the
tier-1 run without any configuration edits.

Behaviour matches the historical ``addopts = "-m 'not slow'"``:

* a plain ``pytest`` run *deselects* every ``slow``-marked test (the
  tier-1 configuration — the summary line still reports them as
  deselected, exactly as before);
* any explicit ``-m`` expression on the command line wins outright
  (``-m slow`` runs only the slow matrix, ``-m ''`` runs everything).

The dist backend keeps its auto-spawned worker daemons warm between
runs of one process (docs/distributed.md, "Daemon lifecycle"): the
``cold_daemons`` fixture isolates the tests that must not see that,
and the session ends with a check that no daemon survives it.
"""

import os
import signal
import sys

import pytest

SLOW_MARKER = ("slow: full backend matrices and benchmark-size "
               "circuits (deselected unless -m is given explicitly; "
               "tier-1 CI skips them)")


def pytest_configure(config):
    config.addinivalue_line("markers", SLOW_MARKER)


def pytest_collection_modifyitems(config, items):
    if config.getoption("-m"):
        return  # an explicit marker expression takes full control
    selected = []
    deselected = []
    for item in items:
        if "slow" in item.keywords:
            deselected.append(item)
        else:
            selected.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = selected


# ----------------------------------------------------------------------
# Dist worker daemons: warm between runs, gone at the end
# ----------------------------------------------------------------------
def serve_descendants(root):
    """Pids of the live ``repro serve`` daemons (stock, or substituted
    by a test through ``python -c``) among ``root``'s descendants."""
    parents, daemons = {}, []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue  # gone while we looked
        if state == "Z":
            continue
        parents[int(entry)] = int(ppid)
        if b"repro" in cmdline and b"serve" in cmdline:
            daemons.append(int(entry))

    def below_root(pid):
        while pid in parents:
            pid = parents[pid]
            if pid == root:
                return True
        return False

    return sorted(pid for pid in daemons if below_root(pid))


@pytest.fixture
def cold_daemons():
    """For a test that substitutes the worker daemon (patches
    ``subprocess.Popen``) or counts spawns: the registry of warm
    daemons is empty when it starts — it is never handed a stock
    one — and when it ends — it leaves none of its own behind."""
    from repro.parallel.dist import shutdown_local_daemons
    shutdown_local_daemons()
    yield
    shutdown_local_daemons()


def pytest_sessionfinish(session, exitstatus):
    """A daemon that outlives the registry's shutdown is a leak: fail
    the run (and do not leave it behind)."""
    dist = sys.modules.get("repro.parallel.dist")
    if dist is None or not os.path.isdir("/proc"):
        return
    dist.shutdown_local_daemons()
    leaked = serve_descendants(os.getpid())
    if leaked:
        for pid in leaked:
            os.kill(pid, signal.SIGKILL)
        print(f"\nERROR: {len(leaked)} `repro serve` daemon(s) outlived "
              f"shutdown_local_daemons(): pids {leaked}", file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
