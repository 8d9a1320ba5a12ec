"""Serve a model repository over HTTP and drive it with the typed client.

Run with::

    python examples/service_client_walkthrough.py

Walks the whole serving lifecycle in one process: fit a MoRER on
solved ER problems, expose it through the HTTP gateway
(`repro serve` does the same from the terminal), solve new problems
through :class:`repro.service.ServiceClient` — including 8 concurrent
``sel_cov`` clients whose requests the scheduler coalesces into shared
``solve_batch`` ticks — then save the session server-side and restore
it into a fresh gateway.
"""

import tempfile
import threading
from collections import Counter
from pathlib import Path

from repro import MoRER
from repro.service import MoRERService, ServiceClient, ServiceHTTPServer
from repro.service.fixtures import demo_morer, demo_probes


def start_gateway(morer, max_batch_size=8, max_wait_ms=25):
    """Wrap ``morer`` in a service + gateway on an ephemeral port."""
    service = MoRERService(
        morer, max_batch_size=max_batch_size, max_wait_ms=max_wait_ms
    )
    server = ServiceHTTPServer(service, ("127.0.0.1", 0))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return service, server


def stop_gateway(service, server):
    server.shutdown()
    server.server_close()
    service.close()


def main():
    # 1. Fit: 18 solved problems across three distribution regimes.
    morer = demo_morer(18)
    service, server = start_gateway(morer)
    client = ServiceClient(server.url)
    client.wait_ready()
    print(f"gateway up at {server.url}: {client.healthz()}")

    # 2. sel_base: read-only repository search (shared read lock —
    #    any number of these run concurrently).
    probe = demo_probes(1)[0].without_labels()
    response = client.solve(probe, strategy="base")
    print(f"sel_base -> cluster {response.cluster_id} "
          f"(sim_p={response.similarity:.3f}, "
          f"{int(response.predictions.sum())} matches)")

    # 3. sel_cov from 8 concurrent clients: the scheduler coalesces
    #    the in-flight requests into shared solve_batch ticks.
    probes = demo_probes(8, seed=123)
    replies = [None] * len(probes)

    def one(index):
        reply = replies[index] = client.solve(probes[index], strategy="cov")
        print(f"  client {index}: cluster {reply.cluster_id} "
              f"retrained={reply.retrained}")

    threads = [
        threading.Thread(target=one, args=(i,)) for i in range(len(probes))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = client.stats()
    # A tick stamps its id on every reply it produced.
    largest = max(Counter(reply.batch_id for reply in replies).values())
    print(f"served {stats.service['cov_solves']} cov solves in "
          f"{stats.service['batches_dispatched']} micro-batch ticks "
          f"(largest {largest}); repository now "
          f"holds {stats.n_problems} problems")

    # 4. Save server-side, restore into a fresh gateway.
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "morer_store"
        client.save(store)
        stop_gateway(service, server)

        restored_service, restored_server = start_gateway(
            MoRER.load(store)
        )
        restored = ServiceClient(restored_server.url)
        restored.wait_ready()
        reply = restored.solve(demo_probes(1, seed=7)[0], strategy="cov")
        restored_stats = restored.stats()
        print(f"restored gateway answered: cluster {reply.cluster_id} "
              f"({restored_stats.n_entries} entries and "
              f"{restored_stats.n_problems} problems survived the "
              f"restart)")
        stop_gateway(restored_service, restored_server)


if __name__ == "__main__":
    main()
