"""Thread-based actor runtime (the Ray substitute).

Each actor owns one worker thread; method calls are submitted to it and
return :class:`concurrent.futures.Future`.  Calls on the *same* actor are
serialized (actor semantics); calls across actors run concurrently — which
the collective communicators require, since all group members must be inside
the same operation at once.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, List, Optional, Sequence, TypeVar

__all__ = ["ActorHandle", "wait_all"]

T = TypeVar("T")


class ActorHandle:
    """Submit method calls on a wrapped object; results come back as futures."""

    def __init__(self, obj: Any, name: str = "actor") -> None:
        self._obj = obj
        self.name = name
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)
        self._alive = True

    def submit(self, method: str, *args: Any, **kwargs: Any) -> "Future[Any]":
        if not self._alive:
            raise RuntimeError(f"actor {self.name} has been stopped")
        fn = getattr(self._obj, method)
        return self._executor.submit(fn, *args, **kwargs)

    def call(self, method: str, *args: Any, timeout: Optional[float] = None, **kwargs: Any) -> Any:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(method, *args, **kwargs).result(timeout)

    @property
    def obj(self) -> Any:
        """Direct (non-actor) access; only safe when no calls are in flight."""
        return self._obj

    def stop(self) -> None:
        if self._alive:
            self._alive = False
            self._executor.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:
        return f"ActorHandle({self.name}, alive={self._alive})"


def wait_all(futures: Sequence["Future[T]"], timeout: Optional[float] = None) -> List[T]:
    """Wait for all futures, failing fast on the first exception.

    If one participant of a collective fails, the others block until their
    communicator timeouts fire — waiting for *all* of them before reporting
    would hide the root cause behind a wall of timeouts, so the first
    exception is raised as soon as it is known.
    """
    from concurrent.futures import FIRST_EXCEPTION
    from concurrent.futures import wait as _wait

    done, not_done = _wait(list(futures), timeout=timeout, return_when=FIRST_EXCEPTION)
    for f in done:
        exc = f.exception()
        if exc is not None:
            raise exc
    if not_done:
        raise TimeoutError(f"{len(not_done)} actor call(s) still pending after {timeout}s")
    return [f.result() for f in futures]
