"""The package's one error type for bad input, its warning types and helper, and
the readers of text files (a decoding failure becomes a ParameterError) and numbers."""

import os
import sys
import warnings
from pathlib import Path

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class ParameterError(ValueError):
    """Bad input: a function argument, a config entry, or a line of a config or
    scan file breaks its documented rule; the message names the argument, the
    key, or the file and line."""


class SamplingWarning(UserWarning):
    """A model length scale fell below the grid resolution; results degrade gracefully."""


class BinSnapWarning(UserWarning):
    """A requested angular quantity was rounded to the nearest grid bin."""


def warn_caller(message: str, category: type) -> None:
    """Warn at the innermost frame outside this package: the line that called into it.

    A fixed stacklevel would name a line inside the package whenever the
    warning is raised a different number of calls below the public entry.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def read_lines(path) -> list[str]:
    """Lines of a UTF-8 text file; a leading byte-order mark is dropped.

    A path that is not a file raises ParameterError saying so.  A byte
    that is not UTF-8 raises ParameterError naming the file and the line
    that holds it, in place of a UnicodeDecodeError.
    """
    if not Path(path).is_file():
        raise ParameterError(f"{path}: file not found")
    try:
        return Path(path).read_bytes().decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        # exc.object is the input after any byte-order mark, as exc.start counts it
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParameterError(f"{path}: line {line_no}: byte 0x{exc.object[exc.start]:02x} "
                             f"is not UTF-8 text ({exc.reason})") from None


def read_number(text: str, kind: type = float):
    """kind(text), rejecting the '_' and non-ASCII digits that float and int accept."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)
