"""What `combanal.cli` and the handler modules (`cli_<domain>`) share: a
handler's answer, the usage refusal, the argv digit limit and the helpers
that more than one handler module uses.  Nothing here imports
`combanal.cli`, which runs as `__main__` under `python -m combanal.cli`."""

from __future__ import annotations

import json
import sys
from types import GeneratorType
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

# --format takes the same choices for every subcommand; the command table
# lists the ones each prints.
FORMATS = ("text", "json", "csv", "svg")

# Python's int-string digit limit as dispatch found it, before lifting it
# for the handler: the most digits a number read from argv may have.
ARGV_DIGITS = sys.get_int_max_str_digits()


class CommandResult(NamedTuple):
    """One handler's answer in each format its command table entry lists:
    text and json always, csv and svg where the entry lists them (None
    elsewhere, never rendered).  Each format is a finished value (`text`
    and `svg` a str, `json_obj` a JSON value, `csv_rows` rows of cells) or
    a zero-argument callable that render() calls only when its format is
    asked for.  A callable may return a generator of str chunks, a
    streamed listing: every domain check runs when the callable is
    called, before the first chunk is made."""

    text: object
    json_obj: object
    csv_rows: object = None
    svg: object = None

    def render(self, fmt: str) -> Iterable[str]:
        """The asked format as an iterable of str chunks."""
        value = self[FORMATS.index(fmt)]  # the fields are in FORMATS order
        if callable(value):
            value = value()
            if type(value) is GeneratorType:
                return value
        if fmt == "text":
            return (value if value.endswith("\n") else value + "\n",)
        if fmt == "json":
            return (json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n",)
        if fmt == "csv":
            return ("\n".join(",".join(str(v) for v in row) for row in value) + "\n",)
        return (value,)


class UsageError(Exception):
    pass


def scalar(value) -> CommandResult:
    """A one-value answer: str(value) as text, the value itself as json."""
    return CommandResult(str(value), value)


def exclusive(*given: Tuple[str, object]) -> Optional[str]:
    """The name of the one (name, value) pair given, value not None, or
    None if none is; a usage error names the first two if more are."""
    names = [name for name, value in given if value is not None]
    if len(names) > 1:
        raise UsageError(f"{names[0]} and {names[1]} cannot be combined")
    return names[0] if names else None


def text_lines(batches: Iterable[list], spell=None, none: str = "", blank: str = "") -> Iterator[str]:
    """A listing as text, one chunk per batch, each item on its line as
    `spell` spells it (items without `spell` are lines already).  A
    listing of one empty line prints `blank`, an empty listing `none`."""
    empty = True
    for batch in batches:
        empty = False
        yield ("\n".join(batch if spell is None else map(spell, batch)) or blank) + "\n"
    if empty:
        yield none + "\n"


def digits(item: Sequence[int]) -> str:
    """A cube, tile or row of numbers spelled as its digits run together."""
    return "".join(map(str, item))


def json_list(batches: Iterable[list]) -> Iterator[str]:
    """A listing's items as one compact JSON list, one chunk per batch."""
    sep = "["
    for batch in batches:
        yield sep + json.dumps(batch, separators=(",", ":"))[1:-1]
        sep = ","
    yield "[]\n" if sep == "[" else "]\n"


def cannot_open(flag: str, path: str, exc: OSError) -> str:
    return f"argument {flag}: can't open {path!r}: {exc.strerror}"


def ints(text: str) -> List[int]:
    try:
        return [int(v) for v in text.replace(" ", "").split(",") if v != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, not {text!r}") from None


def rationals(text: str, what: str) -> List[Fraction]:
    """Comma-separated rationals such as '1/2,3' for the argument `what`.
    Fraction builds 10^K for '1eK', so K past the digit limit is refused."""
    from fractions import Fraction

    values = text.split(",")
    limit = ARGV_DIGITS
    try:
        if limit and any(abs(int(v.lower().partition("e")[2] or 0)) > limit for v in values):
            raise UsageError(f"a number in the arguments has more than {limit} digits")
        return [Fraction(v) for v in values]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} takes comma-separated fractions, not {text!r}") from None
