"""Pragma parsing: ``# prodb-lint: ...`` comments.

One pragma grammar serves both tools — :mod:`prodb_lint` (syntactic
rules, ``PL``-prefixed) and :mod:`prodb_flow` (whole-program concurrency
analysis, ``PF``-prefixed). Three directive families:

* **suppressions** — ``# prodb-lint: disable=PL001,PF103`` suppresses the
  listed rules on the physical line carrying the comment (for multi-line
  statements, any line the offending node spans works);
  ``disable-file=...`` (anywhere in the file) suppresses for the whole
  file. Rule-specific aliases read better at the call site:

  ==================  ======
  ``exact``           PL003
  ``lockfree``        PL002
  ``allow-construct`` PL001
  ``seeded``          PL004
  ==================  ======

* **annotations** — machine-readable facts consumed by ``prodb_flow``:

  - ``# prodb-lint: rank=<N>`` on a lock-construction line declares that
    a raw ``threading.Lock``/``RLock`` deliberately participates in the
    engine's rank order at rank ``N`` (see ``repro.sanitize``). The
    lockset pass then checks it like a :class:`RankedLock` instead of
    flagging it PF102.
  - ``# prodb-lint: loop-owned`` on an attribute declaration marks the
    container as confined to the asyncio event-loop thread; the
    confinement pass (PF2xx) seeds its taint set from these.

* **justifications** — any directive may carry free text after ``--``::

      winner = table.setdefault(key, node)  # prodb-lint: lockfree -- GIL-atomic

  ``prodb_flow`` *requires* a justification on every ``PF`` suppression
  (an unexplained suppression is itself a finding, PF000).

Unknown directives are reported as ``PL000`` findings rather than
silently ignored — with the offending token named, so a typo like
``# prodb-lint: rnak=30`` tells you which key it did not recognise
instead of only where it sits.

``exact`` marks intentional bit-exact IEEE equality only. Code computing
in log space — notably the columnar executor's ⊕-aggregation in
``src/repro/relational/columnar.py``, where ``log1p``/``expm1`` round-trips
leave results a few ulps off the ideal 0.0/1.0 — compares through
``math.isclose`` or explicit tolerances instead of pragma-blessed float
literals.
"""

from __future__ import annotations

import io
import tokenize
from dataclasses import dataclass, field
from typing import Optional

#: Aliases accepted in place of explicit ``disable=`` lists.
ALIASES: dict[str, str] = {
    "exact": "PL003",
    "lockfree": "PL002",
    "allow-construct": "PL001",
    "seeded": "PL004",
}

#: Annotation keys understood by the toolchain (consumed by prodb_flow).
ANNOTATION_KEYS = ("rank", "loop-owned")

#: Rule-code prefixes the ``disable=`` lists accept.
_CODE_PREFIXES = ("PL", "PF")

_PREFIX = "prodb-lint:"


@dataclass
class Pragmas:
    """Suppression and annotation state for one file."""

    line_disables: dict[int, set[str]] = field(default_factory=dict)
    file_disables: set[str] = field(default_factory=set)
    #: ``{line: {key: value}}`` — machine-readable annotations
    #: (``rank`` maps to its integer literal as text, ``loop-owned``
    #: to the empty string).
    annotations: dict[int, dict[str, str]] = field(default_factory=dict)
    #: ``{line: text}`` — the free text after ``--`` of each directive.
    justifications: dict[int, str] = field(default_factory=dict)
    #: ``(line, directive, detail)`` of directives that could not be
    #: parsed; *detail* names the offending token.
    malformed: list[tuple[int, str, str]] = field(default_factory=list)

    def is_disabled(self, code: str, first_line: int, last_line: int | None = None) -> bool:
        """Whether *code* is suppressed anywhere on the node's line span."""
        if code in self.file_disables:
            return True
        last = first_line if last_line is None else last_line
        for line in range(first_line, last + 1):
            if code in self.line_disables.get(line, ()):
                return True
        return False

    def annotation(self, key: str, first_line: int, last_line: int | None = None) -> Optional[str]:
        """The value of annotation *key* on the node's line span, or None."""
        last = first_line if last_line is None else last_line
        for line in range(first_line, last + 1):
            found = self.annotations.get(line)
            if found is not None and key in found:
                return found[key]
        return None

    def justification(self, line: int) -> Optional[str]:
        """The ``--`` justification of the directive on *line*, if any."""
        return self.justifications.get(line)

    def _add(self, scope: dict[int, set[str]] | set[str], line: int, codes: set[str]) -> None:
        if isinstance(scope, set):
            scope.update(codes)
        else:
            scope.setdefault(line, set()).update(codes)


def _parse_codes(spec: str) -> tuple[Optional[set[str]], str]:
    """Parse a rule-code list; returns ``(codes, bad_token)``."""
    parts = [part.strip() for part in spec.split(",")]
    codes = {part.upper() for part in parts if part}
    if not codes:
        return None, spec.strip() or "<empty>"
    for code in sorted(codes):
        if not (code[:2] in _CODE_PREFIXES and code[2:].isdigit()):
            return None, code
    return codes, ""


def parse_pragmas(source: str) -> Pragmas:
    """Extract all ``# prodb-lint:`` directives from *source*."""
    pragmas = Pragmas()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas
    for line, comment in comments:
        text = comment.lstrip("#").strip()
        if not text.startswith(_PREFIX):
            continue
        directive, _, justification = text[len(_PREFIX):].partition("--")
        directive = directive.strip()
        justification = justification.strip()
        if justification:
            pragmas.justifications[line] = justification
        lowered = directive.lower()
        if lowered in ALIASES:
            pragmas._add(pragmas.line_disables, line, {ALIASES[lowered]})
        elif lowered == "loop-owned":
            pragmas.annotations.setdefault(line, {})["loop-owned"] = "true"
        elif lowered.startswith("rank="):
            value = directive.split("=", 1)[1].strip()
            try:
                int(value)
            except ValueError:
                pragmas.malformed.append(
                    (line, directive, f"rank must be an integer, got {value!r}")
                )
            else:
                pragmas.annotations.setdefault(line, {})["rank"] = value
        elif lowered.startswith("disable-file="):
            codes, bad = _parse_codes(directive.split("=", 1)[1])
            if codes is None:
                pragmas.malformed.append(
                    (line, directive, f"bad rule code {bad!r} in disable-file list")
                )
            else:
                pragmas._add(pragmas.file_disables, line, codes)
        elif lowered.startswith("disable="):
            codes, bad = _parse_codes(directive.split("=", 1)[1])
            if codes is None:
                pragmas.malformed.append(
                    (line, directive, f"bad rule code {bad!r} in disable list")
                )
            else:
                pragmas._add(pragmas.line_disables, line, codes)
        else:
            token = directive.split("=", 1)[0].split()[0] if directive else "<empty>"
            known = ", ".join(
                ("disable", "disable-file", *ANNOTATION_KEYS, *sorted(ALIASES))
            )
            pragmas.malformed.append(
                (line, directive, f"unknown annotation key {token!r} (known: {known})")
            )
    return pragmas
