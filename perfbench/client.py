"""Closed-loop HTTP clients for the service-mixed workload.

Each client owns one persistent HTTP/1.1 connection and sends its next
request only after the previous reply has been read in full, as spack
clients and CI jobs do.  Keeping the connection alive matters: a fresh
connection per request would hide a server that stalls on delayed ACKs.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Dict, List, Sequence, Tuple
from urllib.parse import urlsplit

REQUEST_TIMEOUT_S = 120.0

#: one finished request: (request, HTTP status or None, body, latency in s)
Outcome = Tuple[Dict[str, str], object, bytes, float]


def _connection(url: str) -> http.client.HTTPConnection:
    parts = urlsplit(url)
    return http.client.HTTPConnection(parts.hostname, parts.port, timeout=REQUEST_TIMEOUT_S)


def drive(url: str, plans: Sequence[Sequence[Dict[str, str]]]) -> Tuple[List[List[Outcome]], float]:
    """Run one client thread per plan against ``POST /v1/concretize``.

    Returns each client's outcomes in send order and the makespan (first
    send to last reply).  A transport error is an outcome with status None;
    the connection then reopens for the next request."""
    outcomes: List[List[Outcome]] = [[] for _ in plans]

    def client(index: int) -> None:
        connection = _connection(url)
        try:
            for request in plans[index]:
                body = json.dumps({"spec": request["spec"]}).encode("utf-8")
                start = time.perf_counter()
                try:
                    connection.request(
                        "POST",
                        "/v1/concretize",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    status, payload = response.status, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    connection.close()
                    status, payload = None, repr(exc).encode("utf-8")
                outcomes[index].append((request, status, payload, time.perf_counter() - start))
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,)) for index in range(len(plans))]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - begin


def get_json(url: str, path: str) -> Dict:
    """``GET path`` on a fresh connection, decoded."""
    connection = _connection(url)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()
