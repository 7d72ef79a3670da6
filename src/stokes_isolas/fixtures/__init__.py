"""The stored arbitrary-precision fixtures and their parser.

``beta_oracle.tsv`` holds one record per line: p, h, beta1(p, h) at
``digits`` significant digits, and digits; '#' starts a comment.  It is
written by ``python -m stokes_isolas.oracle`` and read here with plain
float parsing, so ``stokes-isolas selftest`` needs no mpmath.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["DEFAULT_FIXTURES", "load_fixtures"]

DEFAULT_FIXTURES = Path(__file__).parent / "beta_oracle.tsv"


def load_fixtures(path=DEFAULT_FIXTURES):
    """Parse the TSV fixture file into a list of (p, h, value, digits).

    A file that cannot be read, a malformed record or a file without records
    raises ValueError naming the path (and the line of a bad record).
    """
    where = f"fixture file {path}"
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {where}: {exc.strerror}") from None
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            p_s, h_s, v_s, d_s = line.split("\t")
            records.append((int(p_s), float(h_s), float(v_s), int(d_s)))
        except ValueError:
            raise ValueError(f"{where} line {number}: expected p, h, value, digits separated by tabs") from None
    if not records:
        raise ValueError(f"{where} holds no records")
    return records
