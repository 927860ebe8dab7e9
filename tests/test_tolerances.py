"""One tolerance policy: every tolerance of the package lives in tolerances.py."""

import io
import re
import tokenize
from pathlib import Path

import nestedot.tolerances

SRC = Path(__file__).resolve().parent.parent / "src" / "nestedot"
TOLERANCE_NAME = re.compile(r"\w*(TOL|SNAP|ROUNDING)")


def _offenders(text: str) -> list[str]:
    """Exponent-form float literals in code (docstrings and comments are
    strings and comments to the tokenizer, not numbers), and module-level
    definitions of a tolerance name."""
    out = []
    tokens = [
        t for t in tokenize.generate_tokens(io.StringIO(text).readline)
        if t.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    for tok, nxt in zip(tokens, tokens[1:]):
        line = tok.start[0]
        number = tok.string.lower()
        if tok.type == tokenize.NUMBER and "e" in number and not number.startswith("0x"):
            out.append(f"{line}: literal {tok.string}")
        if (
            tok.type == tokenize.NAME
            and tok.start[1] == 0
            and TOLERANCE_NAME.fullmatch(tok.string)
            and nxt.string in ("=", ":")
        ):
            out.append(f"{line}: defines {tok.string}")
    return out


def test_no_tolerance_outside_the_tolerance_module():
    found = {
        path.name: _offenders(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_sees_literals_and_definitions():
    text = 'X = 1e-9\nMASS_TOL = 0.5\n"""1e-12 in a docstring"""\ny = 2.5  # 1e-3\nz = 0xE\n'
    assert _offenders(text) == ["1: literal 1e-9", "2: defines MASS_TOL"]


def test_tolerance_module_holds_four_names():
    names = {n for n in vars(nestedot.tolerances) if TOLERANCE_NAME.fullmatch(n)}
    assert names == {"TOL", "SNAP", "ROUNDING", "ORACLE_TOL"}
