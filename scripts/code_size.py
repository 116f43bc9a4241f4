#!/usr/bin/env python3
"""Print the size of each library module as one JSON line.

    python3 scripts/code_size.py

For every src/hypoint/*.py module the line gives its lines and its code
tokens, then the totals. Code tokens are what `tokenize` yields less
comments and the layout tokens (NL, NEWLINE, INDENT, DEDENT, ENCODING,
ENDMARKER), so reformatting or rewording a comment changes no count, while
a docstring counts as one token.
"""

import io
import json
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hypoint"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_tokens(text: str) -> int:
    return sum(tok.type not in _LAYOUT for tok in tokenize.generate_tokens(io.StringIO(text).readline))


def sizes() -> dict:
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        modules[path.name] = {"lines": len(text.splitlines()), "tokens": code_tokens(text)}
    total = {key: sum(m[key] for m in modules.values()) for key in ("lines", "tokens")}
    return {"modules": modules, "total": total}


def main() -> int:
    print(json.dumps(sizes()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
