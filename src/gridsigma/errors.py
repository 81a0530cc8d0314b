"""Shared exception types, and the reader and writer that raise them."""

import os
import threading
from contextlib import contextmanager
from pathlib import Path

# What json.loads and the int()/float()/numpy conversions of its fields raise
# on a malformed document: a missing key, a value of the wrong type or out of
# range (an id of 1e400 is a float infinity), nesting too deep to decode.
MALFORMED_DOCUMENT = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


class GridSigmaError(Exception):
    """Base class for all domain errors raised by this package."""


class CaseFormatError(GridSigmaError):
    """Inconsistent network case or sensor layout."""


class PowerFlowError(GridSigmaError):
    """Power-flow solve failed (non-convergence or singular Jacobian)."""


class DatasetError(GridSigmaError):
    """Dataset construction or (de)serialization failed."""


class PromptError(GridSigmaError):
    """Prompt rendering or example selection failed."""


class AgentError(GridSigmaError):
    """Agent execution failed in a way that cannot become an invalid verdict."""


class DetectorError(GridSigmaError):
    """Detector training, calibration, or inference failed."""


def not_utf8(path, exc: UnicodeDecodeError, error=GridSigmaError,
             offset: int = 0) -> GridSigmaError:
    """The domain error, naming the file, for bytes that are not UTF-8; offset
    is the file offset of the bytes that were decoded."""
    return error(f"{path}: not UTF-8 text (byte {offset + exc.start}: {exc.reason})")


def unreadable(path, exc: OSError, error=GridSigmaError) -> GridSigmaError:
    """The domain error, naming the file, for an OSError raised reading it."""
    return error(f"cannot read {path}: {exc.strerror or exc}")


def read_text(path, error=DatasetError) -> str:
    """The file's UTF-8 text, newlines translated as Path.read_text does;
    bytes that are not UTF-8, or a file that cannot be read, raise
    ``error``, naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc, error) from None
    except OSError as exc:
        raise unreadable(path, exc, error) from None


@contextmanager
def writing(path):
    """Report an OSError raised while writing path as a GridSigmaError that
    names it."""
    try:
        yield
    except OSError as exc:
        raise GridSigmaError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextmanager
def replacing(path, mode: str = "w"):
    """The file opened in mode ("w" for UTF-8 text) as <name>.<pid>.<thread
    id>.tmp beside path, in path's directory, made if need be, and moved over
    path by os.replace once the block returns; the name keeps writers that
    share the directory apart. On any exception the temporary file is
    removed, and path keeps what it held. An OSError is reported as
    ``writing`` reports it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
                yield fh
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
