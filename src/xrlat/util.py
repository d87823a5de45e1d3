"""Shared plumbing: error types, deterministic RNG derivation, atomic file writes."""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import tempfile

import numpy as np


class ConfigError(ValueError):
    """Bad user-supplied configuration (unknown key, out-of-range value, missing path)."""


class ParseError(ValueError):
    """Malformed input file (hierarchy, dataset, vocabulary, checkpoint)."""


class DataError(ValueError):
    """Structurally valid input with invalid contents (bad index, empty corpus)."""


class NumericsError(ArithmeticError):
    """Non-finite value produced during computation.

    Carries the name of the offending tensor and, when raised from a training
    loop, the step at which it occurred.
    """

    def __init__(self, message: str, tensor: str | None = None, step: int | None = None):
        super().__init__(message)
        self.tensor = tensor
        self.step = step


# characters that errors="surrogateescape" makes of bytes that do not decode as UTF-8
_UNDECODED = re.compile("[\udc80-\udcff]")


def text_lines(path: str, skip_comments: bool = False):
    """(line number, line without its newline) for each line of the UTF-8 file ``path``;
    with ``skip_comments``, blank lines and lines starting with '#' are left out.

    Raises ParseError naming ``<path>:<line>`` at the first line that is not UTF-8.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii() and _UNDECODED.search(raw):  # ASCII lines skip the scan
                raise ParseError(f"{path}:{lineno}: not UTF-8 text")
            line = raw.rstrip("\n")
            if not (skip_comments and (not line or line.startswith("#"))):
                yield lineno, line


def stable_seed(*parts) -> int:
    """Map an arbitrary tuple of hashable parts to a stable 64-bit seed.

    Uses SHA-256 of the repr so the value is identical across runs, platforms,
    and process boundaries (unlike the builtin ``hash``).
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(*parts) -> np.random.Generator:
    """Independent, reproducible RNG stream keyed by ``parts``."""
    return np.random.default_rng(stable_seed(*parts))


_M_TRIM_THRESHOLD = -1  # glibc mallopt parameter numbers
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def keep_freed_memory() -> None:
    """Let the C library keep freed blocks of up to 32 MB in the heap.

    Training and prediction allocate and free the same working set of numpy
    temporaries for every document. With glibc's defaults, blocks from 128 KB
    up are unmapped when freed and the free top of the heap is returned to the
    system, so each document page-faults its working set back in (with glibc
    2.36: about 450k minor faults in a 30-step, 2-block, h=64 training run on
    the demo tree, and none with these settings). Freed memory above 256 MB is
    still returned. The head's worker threads share the one heap: with a heap
    per thread, each would keep its own freed tiles under that threshold and
    raise the peak resident size. Does nothing where the C library has no
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_ARENA_MAX, 1)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + rename so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
