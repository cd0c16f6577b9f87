import http.server
import threading

import numpy as np
import pytest
from hypothesis import settings

from maasslab import sieve

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and no per-example deadline on slow runners
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def table_small():
    return sieve.build_table(10 ** 4)


@pytest.fixture(scope="session")
def table_medium():
    return sieve.build_table(10 ** 6)


@pytest.fixture(scope="session")
def table_large():
    return sieve.build_table(2 * 10 ** 7, allow_large=True)


@pytest.fixture
def no_huge_ones(monkeypatch):
    """np.ones that fails, without allocating, when asked for more than
    sieve.HARD_LIMIT + 1 entries: a primes_upto call past the cap makes the
    test fail instead of exhausting memory."""
    real = np.ones

    def ones(shape, *args, **kwargs):
        assert np.prod(shape, dtype=object) <= sieve.HARD_LIMIT + 1, \
            f"np.ones{(shape,)} past the cap"
        return real(shape, *args, **kwargs)
    monkeypatch.setattr(np, "ones", ones)


@pytest.fixture
def no_dde_grid(monkeypatch):
    """np.arange, np.ones and np.empty that fail before allocating: a
    DDE grid refused past its cap must be refused before its first
    segment exists."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the cap check")
    for name in ("arange", "ones", "empty"):
        monkeypatch.setattr(np, name, refuse)


@pytest.fixture
def local_endpoint():
    """A localhost HTTP server answering every GET with the body in
    `bodies[0]`; yields (url, bodies, seen_paths)."""
    bodies, seen = [b""], []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            seen.append(self.path)
            self.send_response(200)
            self.send_header("Content-Length", str(len(bodies[0])))
            self.end_headers()
            self.wfile.write(bodies[0])

        def log_message(self, *_):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/coeffs", bodies, seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()
