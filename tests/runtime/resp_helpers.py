"""Test-side RESP helpers: open a client on a ``redis://`` URL."""

from __future__ import annotations

from urllib.parse import urlparse

from repro.runtime.resp import RespClient


def connect_url(url: str, timeout: float = 10.0) -> RespClient:
    """``redis://[:password@]host[:port][/db]`` -> connected client."""
    parsed = urlparse(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 6379
    db = 0
    path = (parsed.path or "").strip("/")
    if path:
        try:
            db = int(path)
        except ValueError:
            raise ValueError(f"invalid redis db index {path!r} in {url!r}") from None
    return RespClient(host, port, db=db, password=parsed.password, timeout=timeout)
