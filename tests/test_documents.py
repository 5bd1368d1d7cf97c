"""Every document of the committed corpus in tests/documents, made afresh.

On the numpy and scipy versions, the OpenBLAS kernel and numpy's SIMD
targets that MANIFEST.json records, each document must equal its stored
form byte for byte.  Elsewhere numpy's ufunc kernels, the LAPACK build and
the kernel OpenBLAS picks for the CPU move the last bits, so each document is compared as
parsed text: the same lines, the same text between the numbers, and each
number within ULP_BOUND float64 ulps (at unit scale or above; a CSV cell,
printed at 12 digits, is allowed one unit in its last digit besides; see
document_corpus._gap).  An excerpted document is compared by its line
count and its stored rows.  Each test prints its document's worst distance.
"""

import hashlib
import math

import pytest

from document_corpus import (CORPUS, FORMATS, MANIFEST, distance, excerpt, manifest, omitted,
                             render, stored_form, stored_path, versions)

# About twice the ode route's rtol of 1e-12, counted in ulps at unit scale:
# solve_ivp may pick other steps when the arithmetic under it changes.  On
# numpy 2.4.6 and scipy 1.17.1 with other OpenBLAS kernels (OPENBLAS_CORETYPE
# Haswell, Sandybridge, Prescott or Zen) every number stayed within 92 ulps
# but the sweep margin column: the eigensolver's margin of a defective drift
# (eta1 + eta2 = 0.5) moved by up to 3.4e7 ulps, which fails this bound.
ULP_BOUND = 8192

SPEC = manifest()
RECORDED = {key: SPEC[key] for key in ("numpy", "scipy", "openblas_core", "simd_targets")}
DOCUMENTS = [(name, fmt) for name in SPEC["documents"] for fmt in FORMATS]


def _without_marker(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("@@ "))


@pytest.mark.parametrize(("name", "fmt"), DOCUMENTS, ids=[f"{n}.{f}" for n, f in DOCUMENTS])
def test_document_matches_the_corpus(name, fmt):
    path = stored_path(name, fmt)
    stored = path.read_text(encoding="utf-8")
    fresh = render(SPEC["documents"][name], fmt)
    if versions() == RECORDED:
        suffix, text = stored_form(fresh, fmt)
        assert path.name == f"{name}.{suffix}"
        assert text == stored, f"{path.name} moved; regenerate it if the change is deliberate"
        print(f"{path.name}: byte-identical on {RECORDED}")
        return
    whole = omitted(stored)
    if whole is not None:
        assert len(fresh.splitlines()) == whole[0]
        fresh = excerpt(fresh, fmt)
        stored, fresh = _without_marker(stored), _without_marker(fresh)
    worst, line = distance(stored, fresh, 12 if fmt == "csv" else None)
    print(f"{path.name}: worst distance {worst:.4g} ulps at line {line} "
          f"(bound {ULP_BOUND}; corpus recorded on {RECORDED}, running on {versions()})")
    assert worst <= ULP_BOUND, f"{path.name}, line {line}"


def test_corpus_holds_the_manifest_documents_only():
    stored = {path.name for path in CORPUS.iterdir()} - {MANIFEST.name}
    assert stored == {stored_path(name, fmt).name for name, fmt in DOCUMENTS}


def test_parsed_comparison_counts_ulps_and_refuses_moved_text():
    # the comparison off the recorded versions, which this suite otherwise
    # runs only on other numpy or scipy versions
    two = 2.0
    for _ in range(3):
        two = math.nextafter(two, 3.0)
    assert distance('[\n  2.0,\n  "valid"\n]', f'[\n  {two!r},\n  "valid"\n]', None) == (3.0, 2)
    # CSV cells at 12 digits: a neighbouring cell is rounding, two apart is not
    assert distance("2.00000000001,valid", "2.00000000002,valid", 12)[0] < 1.0
    assert distance("2.00000000001,valid", "2.00000000003,valid", 12)[0] > ULP_BOUND
    with pytest.raises(AssertionError, match="line 1"):
        distance("2,valid", "2,invalid", 12)
    with pytest.raises(AssertionError):
        distance("2\n3", "2", 12)


@pytest.mark.parametrize("fmt", FORMATS)
def test_excerpt_keeps_the_first_and_last_rows_and_digests_the_whole(fmt):
    # rows (-0.5, -0.5) first and (0.5, 0.5) last; (0.5, -0.5) is unphysical
    text = render("sweep --eta-grid 3x3 --eta1-range -0.5:0.5 --eta2-range -0.5:0.5", fmt)
    lines, kept = text.splitlines(), excerpt(text, fmt).splitlines()
    marker = next(i for i, line in enumerate(kept) if line.startswith("@@ "))
    head, tail = kept[:marker], kept[marker + 1:]
    assert lines[:len(head)] == head and lines[-len(tail):] == tail
    assert len(head) + len(tail) < len(lines)
    assert omitted(kept[marker]) == (len(lines), len(text.encode()),
                                     hashlib.sha256(text.encode()).hexdigest())
    if fmt == "csv":
        assert head[-1].startswith("-0.5,-0.5,") and tail[0].startswith("0.5,0.5,")
        assert len(tail) == 1
    else:
        opening = max(i for i, line in enumerate(head) if line == "    [")
        assert head[opening + 1:opening + 3] == ["      -0.5,"] * 2 and head[-1] == "    ],"
        assert tail[:3] == ["    [", "      0.5,", "      0.5,"] and tail[-3:] == ["    ]", "  ]", "}"]
