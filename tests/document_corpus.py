"""The committed document corpus in tests/documents, and its regeneration.

MANIFEST.json maps each document's name to the ycel argv that makes it and
records the numpy and scipy versions the corpus was made with, the
OpenBLAS kernel ("core") numpy's library picked on that CPU, and the SIMD
targets numpy dispatched its ufunc kernels to.  Each argv
is run twice, with --format csv and --format json.  A document of at most
EXCERPT_BYTES is stored whole as <name>.csv or <name>.json; a larger one
as <name>.<format>.excerpt: its lines through the first table row, one
"@@" line with the whole document's line count, byte count and SHA-256,
then its last table row and what follows it.

After a deliberate document change, regenerate the corpus from the
repository root and commit the diff with the change:

    PYTHONPATH=src python tests/document_corpus.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "documents"
MANIFEST = CORPUS / "MANIFEST.json"
FORMATS = ("csv", "json")
EXCERPT_BYTES = 32 * 1024

# A number in a document's text: a CSV cell, a JSON value, a number in a
# note.  The text between numbers must match exactly.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_OMITTED = re.compile(r"@@ (\d+) lines, (\d+) bytes, sha256 ([0-9a-f]{64}) @@")


def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked for this CPU at run time,
    such as "SkylakeX" or "Haswell", or None for another BLAS."""
    import numpy

    package = Path(numpy.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            library = ctypes.CDLL(str(path))  # the copy numpy loaded
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def simd_targets() -> list[str] | None:
    """The SIMD targets numpy dispatches its ufunc kernels to on this CPU,
    such as ["X86_V3", "X86_V4"]: np.exp rounds differently on each.  None
    where numpy's private module does not say (numpy 1.x keeps it elsewhere)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return None
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


def versions() -> dict:
    """What the corpus's bytes depend on besides the code: the numpy and
    scipy versions, numpy's OpenBLAS kernel and its SIMD targets."""
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_core": openblas_core(), "simd_targets": simd_targets()}


def render(argv: str, fmt: str) -> str:
    """The document `ycel <argv> --format <fmt>` prints, run in this process.
    The warnings a command sends to stderr (a paper-literal sweep's, say)
    are not part of its document."""
    from ycel.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = main([*argv.split(), "--format", fmt])
    if code:
        raise RuntimeError(f"ycel {argv} --format {fmt} exited {code}: {err.getvalue()}")
    return out.getvalue()


def _row_bounds(lines: list[str], fmt: str) -> tuple[int, int]:
    """The index of the first table row's last line and of the last table
    row's first line."""
    if fmt == "csv":
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        return header + 1, len(lines) - 1
    # an indent=2 table row opens with "    [" and closes with "    ]"
    first = next(i for i, line in enumerate(lines) if line.rstrip(",") == "    ]")
    last = max(i for i, line in enumerate(lines) if line == "    [")
    return first, last


def excerpt(text: str, fmt: str) -> str:
    """A document's lines through its first table row, the "@@" line, and
    its lines from its last table row."""
    lines = text.splitlines()
    first, last = _row_bounds(lines, fmt)
    digest = hashlib.sha256(text.encode()).hexdigest()
    marker = f"@@ {len(lines)} lines, {len(text.encode())} bytes, sha256 {digest} @@"
    return "\n".join([*lines[:first + 1], marker, *lines[last:]]) + "\n"


def stored_form(text: str, fmt: str) -> tuple[str, str]:
    """The file suffix and text a document is stored under."""
    if len(text.encode()) <= EXCERPT_BYTES:
        return fmt, text
    return f"{fmt}.excerpt", excerpt(text, fmt)


def stored_path(name: str, fmt: str) -> Path:
    """The stored file of a document, whole or excerpted."""
    whole = CORPUS / f"{name}.{fmt}"
    return whole if whole.exists() else CORPUS / f"{name}.{fmt}.excerpt"


def regenerate() -> None:
    """Render every document, then replace the stored ones with them."""
    spec = manifest()
    files = {}
    for name, argv in spec["documents"].items():
        for fmt in FORMATS:
            suffix, text = stored_form(render(argv, fmt), fmt)
            files[f"{name}.{suffix}"] = text
    for old in CORPUS.iterdir():
        if old != MANIFEST:
            old.unlink()
    for file, text in files.items():
        (CORPUS / file).write_text(text, encoding="utf-8", newline="")
    spec.update(versions())
    MANIFEST.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


def _gap(a: float, b: float, digits: int | None) -> float:
    """|a - b| in float64 ulps at the larger of |a|, |b| and 1.  Numbers
    printed at `digits` significant digits are first allowed one unit in
    their last digit: two floats an ulp apart may print as neighbours."""
    if a == b:
        return 0.0
    gap, larger = abs(a - b), max(abs(a), abs(b))
    if digits is not None:
        gap = max(0.0, gap - 10.0 ** (math.floor(math.log10(larger)) - digits + 1))
    return gap / math.ulp(max(larger, 1.0))


def distance(expected: str, actual: str, digits: int | None) -> tuple[float, int]:
    """The largest gap (see _gap) between corresponding numbers of two
    texts, and the 1-based line where it lies (0 if every number is equal).

    Raises AssertionError when the texts differ in their line count or in
    any text between the numbers.
    """
    old_lines, new_lines = expected.splitlines(), actual.splitlines()
    assert len(old_lines) == len(new_lines), (len(old_lines), len(new_lines))
    worst, where = 0.0, 0
    for number, (old, new) in enumerate(zip(old_lines, new_lines), 1):
        assert _NUMBER.split(old) == _NUMBER.split(new), f"line {number}: {old!r} != {new!r}"
        for a, b in zip(map(float, _NUMBER.findall(old)), map(float, _NUMBER.findall(new))):
            gap = _gap(a, b, digits)
            if gap > worst:
                worst, where = gap, number
    return worst, where


def omitted(stored: str) -> tuple[int, int, str] | None:
    """The line count, byte count and SHA-256 of an excerpted document, or
    None for a document stored whole."""
    match = _OMITTED.search(stored)
    return None if match is None else (int(match[1]), int(match[2]), match[3])


if __name__ == "__main__":
    regenerate()
