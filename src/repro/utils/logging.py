"""Thin logging helpers with a per-run verbosity switch.

The framework logs through the stdlib ``logging`` module under the ``repro``
namespace so applications can reconfigure handlers normally.
"""

from __future__ import annotations

import logging
import os

_CONFIGURED = False


def get_logger(name: str) -> logging.Logger:
    """Return a namespaced logger, configuring root formatting once."""
    global _CONFIGURED
    if not _CONFIGURED:
        level_name = os.environ.get("REPRO_LOG_LEVEL", "WARNING").upper()
        level = getattr(logging, level_name, logging.WARNING)
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("[%(asctime)s] %(levelname)s %(name)s: %(message)s", "%H:%M:%S")
        )
        base = logging.getLogger("repro")
        base.setLevel(level)
        if not base.handlers:
            base.addHandler(handler)
        base.propagate = False
        _CONFIGURED = True
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)

