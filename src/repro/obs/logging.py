"""Structured logging for the repro library.

Library code must never ``print()`` (the lint test under ``tests/obs/``
enforces it outside ``__main__`` modules): a caller embedding
:func:`~repro.perf.sweeper.run_sweep` in a service wants silence by
default and structured records on demand.  Everything routes through
the stdlib :mod:`logging` tree under the ``"repro"`` root, which
carries a :class:`~logging.NullHandler` — silent until a handler is
attached.

``python -m repro.verify`` calls :func:`configure_cli_logging` to
attach a plain-message stream handler, so every plane's per-cell lines
reach the command line while the library stays quiet everywhere else.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger", "configure_cli_logging"]

#: The library's root logger; everything under ``repro.*`` inherits it.
_ROOT_NAME = "repro"

# Silence by default: without this, records escalate to Python's
# last-resort stderr handler and the library would "print" after all.
logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())


def get_logger(name: str = _ROOT_NAME) -> logging.Logger:
    """A logger under the ``repro`` tree (module ``__name__`` works as-is)."""
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def configure_cli_logging(level: int = logging.INFO, stream=None) -> logging.Logger:
    """Attach a message-only stream handler to the ``repro`` root.

    Idempotent: a second call only adjusts the level, so CLIs composed
    of other CLIs do not duplicate output lines.  Returns the root
    logger.
    """
    root = logging.getLogger(_ROOT_NAME)
    has_stream = any(
        isinstance(handler, logging.StreamHandler)
        and not isinstance(handler, logging.NullHandler)
        for handler in root.handlers
    )
    if not has_stream:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)
    root.setLevel(level)
    return root
