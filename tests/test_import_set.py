"""What a process imports: ``repro serve`` loads only the code it runs,
and every lazily exported name still resolves to what it names.

Both run in a fresh interpreter, because the test session itself has
long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import MoRERService
from repro.service.fixtures import demo_morer, demo_probes

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules ``repro serve`` has no use for on a random-forest store: the
#: ``http.server`` / ``urllib`` import chains, the HTTP client, the
#: fixtures, offline analysis, the other learners, estimators and
#: clustering algorithms, and the paper's evaluation stacks.
NOT_SERVED = (
    "http.server", "http.client", "email", "ssl", "urllib.request",
    "repro.service.client", "repro.service.fixtures",
    "repro.core.maintenance", "repro.baselines.almser",
    "repro.ml.gmm", "repro.ml.linear", "repro.ml.metrics",
    "repro.ml.model_selection", "repro.ml.naive_bayes",
    "repro.ml.neighbors", "repro.ml.preprocessing",
    "repro.graphcluster.girvan_newman",
    "repro.graphcluster.label_propagation", "repro.graphcluster.mincut",
    "repro.graphcluster.components",
    "repro.datasets", "repro.experiments", "repro.nn",
)

#: Runs ``repro serve --store --wal-dir`` in this process (recovery,
#: MoRERService, ServiceHTTPServer); a client thread waits for the
#: "serving ... at URL" line, solves one base and one cov probe over a
#: raw socket, records ``sys.modules`` and stops the server.
_SERVE_SCRIPT = r"""
import _thread, json, re, socket, sys, threading, time

store, wal_dir, probe = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])


class Capture:
    text = ""

    def write(self, text):
        Capture.text += text
        return len(text)

    def flush(self):
        pass


def solve(address, strategy):
    body = json.dumps({"problem": probe, "strategy": strategy}).encode()
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(b"POST /solve HTTP/1.1\r\nConnection: close\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(body) + body)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def client():
    while True:
        match = re.search(r" at http://([^:]+):(\d+) ", Capture.text)
        if match:
            break
        time.sleep(0.01)
    address = (match.group(1), int(match.group(2)))
    result["statuses"] = [solve(address, s) for s in ("base", "cov")]
    result["modules"] = sorted(sys.modules)
    _thread.interrupt_main()


result = {}
real_stdout, sys.stdout = sys.stdout, Capture()
threading.Thread(target=client, daemon=True).start()
from repro.cli import main

main(["serve", "--store", store, "--wal-dir", wal_dir, "--port", "0",
      "--access-log", wal_dir + ".log"])
sys.stdout = real_stdout
print(json.dumps(result))
"""


def test_serve_loads_only_the_code_it_runs(tmp_path):
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    service = MoRERService(demo_morer(10, classifier="random_forest"),
                           wal_dir=wal_dir)
    service.save(store)
    service.solve(demo_probes(1, seed=3)[0])    # a WAL tail to replay
    service.close()
    probe = demo_probes(1, seed=4)[0].without_labels().to_dict()
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_SCRIPT, str(store), str(wal_dir),
         json.dumps(probe)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["statuses"] == [200, 200]
    loaded = set(result["modules"])
    assert "repro.service.http" in loaded and "repro.ml.forest" in loaded
    assert not loaded.intersection(NOT_SERVED), sorted(
        loaded.intersection(NOT_SERVED))


#: Resolves every name in every ``repro`` package's ``__all__`` in the
#: given order. An export must never come back as the submodule that
#: defines it: loading ``girvan_newman.py`` for ``edge_betweenness``
#: binds that module on the package under the name of the function
#: ``girvan_newman`` (``repro.analysis.rules`` exports its submodules
#: on purpose, and none defines its own name).
_EXPORTS_SCRIPT = r"""
import importlib, pkgutil, sys, types

import repro

packages = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)
for name in packages:
    package = importlib.import_module(name)
    names = list(package.__all__)
    if sys.argv[1] == "reversed":
        names.reverse()
    values = {export: getattr(package, export) for export in names}
    for export, value in values.items():
        shadowed = isinstance(value, types.ModuleType) and hasattr(
            value, export)
        assert not shadowed, f"{name}.{export} is its submodule"
        assert getattr(package, export) is value, f"{name}.{export} rebound"
from repro.graphcluster import CLUSTERING_ALGORITHMS
from repro.ml import ESTIMATOR_REGISTRY

for registry in (CLUSTERING_ALGORITHMS, ESTIMATOR_REGISTRY):
    for key in registry:
        assert not isinstance(registry[key], types.ModuleType), key
        assert callable(registry[key]), key
print(len(packages))
"""


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_every_package_export_resolves(order):
    proc = subprocess.run(
        [sys.executable, "-c", _EXPORTS_SCRIPT, order],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) >= 10
