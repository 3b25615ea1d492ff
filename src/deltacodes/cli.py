"""Command-line interface driving the library from sectioned config files.

A config file has up to four sections.  ``[field]`` fixes the coefficient
field, ``[delta]`` describes the delta-sequence to build, ``[points]`` lists
evaluation points one per line, and ``[job]`` holds run options.  Keys are
strict: anything unknown, missing, or malformed is reported with its line
number and exits with status 2; domain failures (a sequence that fails a
condition, an impossible construction) exit with status 1.  A bad command
line, an unreadable config and an unwritable output file exit with status 2
too.
"""

from __future__ import annotations

import pathlib
import sys
from fractions import Fraction
from math import gcd

from ._value import Value, _set
from .approximants import _depth, build_approximates, expand_family
from .codes import EvalMap, render_ratio, render_value, scan_table, table_csv
from .errors import ConfigError, DomainError
from .genesis import build_type_c, build_type_d, build_type_e, validate_n
from .gf import FieldElement, FieldSpec
from .semigroup import LexValue, QuadValue, RatValue, rows_upto, zero_of

__all__ = ["JobConfig", "main", "parse_config", "run"]


_SECTIONS = ("field", "delta", "points", "job")
_TYPES = ("N", "C", "D", "E")
_MODES = ("jumps", "full")
COMMANDS = ("validate", "construct", "approximates", "semigroup", "table")


# The longest value a message quotes whole; a longer one is cut to this many
# characters and its length is given instead.
_QUOTED = 40


def _int(value: str, key: str, no: int, base: int = 10) -> int:
    try:
        return int(value, base)
    except ValueError:
        quoted = repr(value) if len(value) <= _QUOTED else (
            f"{value[:_QUOTED]!r}... ({len(value)} characters)"
        )
        raise ConfigError(f"bad integer for {key!r} at line {no}: {quoted}") from None


def _ints(value: str, key: str, no: int) -> tuple[int, ...]:
    parts = value.split()
    if not parts:
        raise ConfigError(f"empty value for {key!r} at line {no}")
    return tuple(_int(part, key, no) for part in parts)


def _choices(value: str, key: str, no: int) -> tuple[tuple[int, int], ...]:
    out = []
    for part in value.split(","):
        pair = _ints(part, key, no)
        if len(pair) != 2:
            raise ConfigError(f"choices need 'z new' pairs at line {no}")
        out.append((pair[0], pair[1]))
    return tuple(out)


def _one_of(options: tuple[str, ...], what: str):
    def read(value: str, key: str, no: int) -> str:
        if value not in options:
            raise ConfigError(f"unknown {what} {value!r} at line {no}")
        return value

    return read


def _rational(token: str) -> Fraction:
    """An integer, ``p/q`` or a decimal.  No exponent: ``Fraction`` would
    build 10**exp, so ``1e999999999`` would take minutes and gigabytes."""
    if "e" in token.lower():
        raise ValueError(token)
    return Fraction(token)


def _bound(kind: str):
    """The reader of the [job] bound for a delta type, in the notation of its
    values: ``x y`` (two integers) for C, ``r [m]`` (a rational and the
    multiple of tau, 0 when left out) for D, one rational for N and E."""

    def read(value: str, key: str, no: int) -> tuple:
        tokens = value.split()
        try:
            if kind == "C" and len(tokens) == 2:
                return int(tokens[0]), int(tokens[1])
            if kind == "D" and len(tokens) in (1, 2):
                return _rational(tokens[0]), int(tokens[1]) if len(tokens) == 2 else 0
            if kind in ("N", "E") and len(tokens) == 1:
                return (_rational(tokens[0]),)
        except (ValueError, ZeroDivisionError):
            pass
        raise ConfigError(f"bad bound {value!r} for type {kind} at line {no}")

    return read


_REQUIRED = object()

# The config keys of each section, in reading order: key -> (reader, default,
# the delta types it applies to).  A reader takes (value, key, line), or is a
# mapping from the delta type to one; a _REQUIRED key has no default, and a
# typed one is required only for its types.
# The [field] keys are FieldSpec's arguments; the others are JobConfig fields.
_SCHEMA = {
    "field": {
        "p": (_int, _REQUIRED, _TYPES),
        "m": (_int, 1, _TYPES),
        # an encoded polynomial, read as FieldSpec reads it: 0x25 is g^5+g^2+1
        "modulus": (lambda value, key, no: _int(value, key, no, base=0), None, _TYPES),
    },
    "delta": {
        "type": (_one_of(_TYPES, "delta type"), _REQUIRED, _TYPES),
        "under": (_ints, _REQUIRED, _TYPES),
        "digits": (_ints, _REQUIRED, ("D",)),
        "radicand": (_int, 3, ("D",)),
        "steps": (_int, 0, ("E",)),
        "choices": (_choices, None, ("E",)),
    },
    "job": {
        "mode": (_one_of(_MODES, "mode"), "jumps", _TYPES),
        "limit": (_int, None, _TYPES),
        "bound": ({kind: _bound(kind) for kind in _TYPES}, None, _TYPES),
        "depth": (_int, None, _TYPES),
    },
}


class JobConfig(Value):
    """A fully parsed configuration, ready to run: the field, the points,
    one field per [delta] and [job] key (``type`` as ``delta_type``) and the
    command."""

    __slots__ = _fields = (
        "spec", "delta_type", "under", "digits", "radicand", "steps", "choices",
        "points", "mode", "limit", "bound", "depth", "command",
    )

    def __init__(self, *args, **kwargs) -> None:
        values = {"command": None, **dict(zip(self._fields, args)), **kwargs}
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"JobConfig takes the fields {self._fields}")
        for name in self._fields:
            _set(self, name, values[name])

    def replace(self, **changes) -> JobConfig:
        """A copy with the named fields changed."""
        fields = {name: getattr(self, name) for name in self._fields}
        return JobConfig(**{**fields, **changes})


def _split_sections(text: str):
    """Group config lines by section, keeping line numbers for messages."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}] at line {no}")
            if name in sections:
                raise ConfigError(f"duplicate section [{name}] at line {no}")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ConfigError(f"content before any section at line {no}")
        sections[current].append((no, line))
    if "field" not in sections:
        raise ConfigError("missing [field] section")
    if "delta" not in sections:
        raise ConfigError("missing [delta] section")
    return sections


def _key_values(name: str, lines: list[tuple[int, str]]):
    """Parse ``key = value`` lines of one section into an ordered mapping."""
    out: dict[str, tuple[int, str]] = {}
    for no, line in lines:
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"expected 'key = value' at line {no}")
        if key not in _SCHEMA[name]:
            raise ConfigError(f"unknown key {key!r} in [{name}] at line {no}")
        if key in out:
            raise ConfigError(f"duplicate key {key!r} at line {no}")
        out[key] = (no, value)
    return out


def _read(name: str, keys: dict[str, tuple[int, str]], kind: str | None = None) -> dict:
    """One section's values in schema order: a present key through its
    reader, an absent one as its default.  Before the first typed key is
    read, every present key is checked to apply to the delta type ``kind``,
    which [delta] reads from its own ``type``."""
    schema = _SCHEMA[name]
    out: dict = {}
    checked = False
    for key, (reader, default, types) in schema.items():
        if types is not _TYPES and not checked:
            checked, kind = True, out["type"]
            for other in schema:
                if other in keys and kind not in schema[other][2]:
                    no = keys[other][0]
                    raise ConfigError(f"key {other!r} does not apply to type {kind} at line {no}")
        if key in keys:
            no, value = keys[key]
            if isinstance(reader, dict):
                reader = reader[kind]
            out[key] = reader(value, key, no)
        elif default is not _REQUIRED:
            out[key] = default
        elif types is _TYPES:
            raise ConfigError(f"missing key {key!r} in [{name}]")
        elif kind in types:
            raise ConfigError(f"type {kind} needs a {key!r} key in [{name}]")
        else:
            out[key] = None
    return out


def _coordinate(token: str, spec: FieldSpec, no: int) -> int:
    """The encoded field value of one point coordinate."""
    if token == "g" or token.startswith("g^"):
        if spec.m == 1:
            raise ConfigError(
                f"power coordinate {token!r} needs an extension field at line {no}"
            )
        power = 1
        if token != "g":
            tail = token[2:]
            # ASCII digits only: str.isdigit also takes digits such as '²'
            if not (tail.isascii() and tail.isdigit()):
                raise ConfigError(f"malformed power coordinate {token!r} at line {no}")
            power = _int(tail, "point", no)
        gpow = spec._t.gpow
        return gpow[power % len(gpow)]
    value = _int(token, "point", no)
    if not 0 <= value < spec.q:
        raise ConfigError(
            f"bad coordinate at line {no}: encoded value {value} outside [0, {spec.q})"
        )
    return value


def _points(lines: list[tuple[int, str]], spec: FieldSpec):
    """The points as pairs of field elements.  Points are told apart by their
    encoded values, and one element is built per value that occurs."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for no, line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise ConfigError(f"points need two coordinates at line {no}")
        point = (_coordinate(tokens[0], spec, no), _coordinate(tokens[1], spec, no))
        if point in seen:
            raise ConfigError(f"duplicate point at line {no}")
        seen.add(point)
        out.append(point)
    values = {v for point in out for v in point}
    element = {v: FieldElement._of(spec, v) for v in values}
    return tuple((element[x], element[y]) for x, y in out)


def parse_config(text: str) -> JobConfig:
    """Parse a config file into a ``JobConfig``; raise ``ConfigError`` on any
    malformed, unknown, or missing entry."""
    sections = _split_sections(text)
    keys = {name: _key_values(name, sections.get(name, [])) for name in _SCHEMA}
    try:
        spec = FieldSpec(**_read("field", keys["field"]))
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    points = _points(sections.get("points", []), spec)
    delta = _read("delta", keys["delta"])
    job = _read("job", keys["job"], delta["type"])
    return JobConfig(spec=spec, delta_type=delta.pop("type"), points=points, **delta, **job)


def _build_delta(config: JobConfig):
    if config.delta_type == "N":
        return validate_n(config.under)
    if config.delta_type == "C":
        return build_type_c(config.under)
    if config.delta_type == "D":
        return build_type_d(config.under, config.digits, config.radicand)
    return build_type_e(config.under, config.steps, config.choices)


def _bound_value(config: JobConfig, delta):
    """The [job] bound as a value of the sequence's kind; a type D value
    needs the sequence's tau."""
    if config.bound is None:
        raise ConfigError("semigroup job needs a 'bound' key in [job]")
    if config.delta_type == "C":
        return LexValue(*config.bound)
    if config.delta_type == "D":
        return QuadValue(*config.bound, zero_of(delta).tau)
    return RatValue(*config.bound)


def _run_validate(config: JobConfig) -> str:
    delta = _build_delta(config)
    base = delta.stages[-1] if config.delta_type == "E" else delta
    lines = []
    if config.delta_type == "C":
        rendered = " ".join(f"({x},{y})" for x, y in delta.deltas)
        lines.append(f"valid delta-sequence: {rendered}")
    elif config.delta_type == "D":
        head = " ".join(str(h) for h in delta.head)
        lines.append(f"valid delta-sequence: {head} tau")
        lines.append(f"tau = {delta.tail}")
    else:
        lines.append(
            "valid delta-sequence: " + " ".join(str(v) for v in base.deltas)
        )
    if config.delta_type in ("N", "E"):
        s = base.structure
        lines.append("gcd chain: " + " ".join(str(v) for v in s.d))
        lines.append("quotients: " + " ".join(str(v) for v in s.n))
    return "\n".join(lines) + "\n"


def _run_construct(config: JobConfig) -> str:
    delta = _build_delta(config)
    if config.delta_type == "N":
        body = ",".join(str(v) for v in delta.deltas)
        return "{" + body + "}\n"
    if config.delta_type == "C":
        body = ",".join(f"({x},{y})" for x, y in delta.deltas)
        lines = ["{" + body + "}"]
        w = delta.witness
        lines.append(f"(A,B) = ({w.ab[0]},{w.ab[1]})")
        lines.append(f"(A',B') = ({w.abp[0]},{w.abp[1]})")
        lines.append(f"u = ({w.u[0]},{w.u[1]})")
        return "\n".join(lines) + "\n"
    if config.delta_type == "D":
        head = ",".join(str(h) for h in delta.head)
        lines = ["{" + head + ",tau}", f"tau = {delta.tail}"]
        return "\n".join(lines) + "\n"
    body = ",".join(str(v) for v in delta.generators())
    lines = ["{" + body + ",...}"]
    lines.append(
        "stages: " + " | ".join(" ".join(str(v) for v in s.deltas) for s in delta.stages)
    )
    return "\n".join(lines) + "\n"


def _run_approximates(config: JobConfig) -> str:
    delta = _build_delta(config)
    fam = build_approximates(delta, config.spec, config.depth)
    lines = [f"q_{i} = {poly}" for i, poly in enumerate(expand_family(fam))]
    lines.append("weights: " + " ".join(render_value(w) for w in fam.weights))
    return "\n".join(lines) + "\n"


class _Memo(dict):
    """``render(key)`` for each key asked for, rendered once: the quadratic
    listing repeats each head value and copy count on many lines, and a
    rational one each denominator."""

    def __init__(self, render) -> None:
        self.render = render

    def __missing__(self, key) -> str:
        text = self[key] = self.render(key)
        return text


def _run_semigroup(config: JobConfig):
    """One line per member up to the bound, rendered straight from the
    semigroup's integer windows: the value as ``render_value`` prints it,
    then the exponents.  Each exponent tail is rendered once, as the labels
    of its exponents joined (each head value and copy count of tau too, for
    the quadratic kind, and each denominator of a rational value), and the
    text comes one window at a time; every error is raised before the
    first."""
    delta = _build_delta(config)
    scale, windows = rows_upto(delta, _bound_value(config, delta), " {}".format)
    if config.delta_type == "C":
        return ("".join([f"({x},{y}) : {c}{t} {m}\n" for x, y, c, t, m in w]) for w in windows)
    if config.delta_type == "D":
        ratio = _Memo(lambda v: render_ratio(v, scale))
        mid, end = _Memo(" + {}*tau : ".format), _Memo(" {}\n".format)
        return (
            "".join([f"{ratio[v]}{mid[m]}{c}{t}{end[m]}" for v, c, t, m in w])
            for w in windows
        )
    # the ratio in lowest terms, as render_ratio writes it, the denominator
    # rendered once for each gcd of a numerator with the scale
    over = _Memo(lambda g: "" if g == scale else f"/{scale // g}")
    return (
        "".join([
            f"{(v := base + r) // (g := gcd(v, scale))}{over[g]} : {k - q}{t}\n"
            for r, q, t in entries
        ])
        for base, k, entries in windows
    )


def _run_table(config: JobConfig) -> str:
    delta = _build_delta(config)
    # a depth the sequence has no family at is reported before the points
    depth = _depth(delta, config.depth)
    ev = EvalMap(config.spec, config.points)
    rows = scan_table(delta, ev, mode=config.mode, limit=config.limit, depth=depth)
    if rows.dropped:
        print(f"note: table limited to {config.limit} rows", file=sys.stderr)
    return table_csv(rows)


_RUNNERS = {
    "validate": _run_validate,
    "construct": _run_construct,
    "approximates": _run_approximates,
    "semigroup": _run_semigroup,
    "table": _run_table,
}


def _output(config: JobConfig):
    """The configured command's output as pieces of text: the ``semigroup``
    listing block by block, any other output whole.  Every error is raised
    before the first piece."""
    if config.command not in _RUNNERS:
        raise DomainError(f"unknown command: {config.command!r}")
    out = _RUNNERS[config.command](config)
    return (out,) if isinstance(out, str) else out


def run(config: JobConfig) -> str:
    """Execute the configured command and return its output text.  A table
    whose limit left rows out says so on stderr."""
    return "".join(_output(config))


# The options after the command; --mode only after ``table``.
_OPTIONS = ("--help", "--config", "--out", "--mode")

_USAGE = (
    "usage: deltacodes {validate,construct,approximates,semigroup,table}"
    " --config PATH [--out PATH] [--mode jumps|full]\n"
)
_HELP = _USAGE + """
Build delta-sequences and evaluation codes from a config file.

commands:
  validate      check the conditions on an integer sequence
  construct     build the configured delta-sequence and print it
  approximates  print the approximate polynomials and their weights
  semigroup     list semigroup members up to the configured bound
  table         emit the code table as CSV

options:
  --config PATH  path to the config file (required)
  --out PATH     write output to this file instead of stdout
  --mode MODE    jumps or full, overriding the config (table only)
  -h, --help     show this help and exit
"""


def _fail(message: str):
    sys.stderr.write(f"{_USAGE}deltacodes: error: {message}\n")
    raise SystemExit(2)


def _option(token: str, names: tuple[str, ...]) -> tuple[str | None, str | None]:
    """The option among ``names`` that ``token`` names, and its value when
    given with ``=``: a long option or any unique prefix of it (``--conf``,
    ``--conf=x``), or ``-h``.  (None, None) for anything else."""
    if token.startswith("-h"):
        return "--help", token[2:] or None
    name, eq, value = token.partition("=")
    if name.startswith("--") and len(name) > 2:
        # the names differ in their first letter, so a prefix names at most one
        for option in names:
            if option.startswith(name):
                return option, value if eq else None
    return None, None


def _command_line(argv: list[str] | None) -> tuple[str, str, str | None, str | None]:
    """``(command, config, out, mode)`` from ``COMMAND --config PATH [--out
    PATH] [--mode jumps|full]``, with ``--mode`` for ``table`` only.

    A value follows its option as the next argument, or after ``=`` in the
    same one; a value that begins with ``-`` needs the ``=`` form.  An option
    may be shortened to any unique prefix, and a repeated one keeps its last
    value.  ``-h``/``--help`` prints the help to stdout and exits 0; a bad
    command line prints the usage and the error to stderr and exits 2.  As
    with argparse, an unknown option or a stray argument is reported only
    once the whole line is read, so a ``-h`` after it still prints the help."""
    args = sys.argv[1:] if argv is None else list(argv)
    command, names, values, unknown = None, ("--help",), {}, []
    i = 0
    while i < len(args):
        token = args[i]
        i += 1
        option, value = _option(token, names)
        if option == "--help":
            if value is not None:
                _fail(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if option is not None:
            if value is None:
                if i == len(args) or args[i].startswith("-"):
                    _fail(f"argument {option}: expected one argument")
                value = args[i]
                i += 1
            if option == "--mode" and value not in _MODES:
                choices = ", ".join(_MODES)
                _fail(f"argument --mode: invalid choice: {value!r} (choose from {choices})")
            values[option] = value
        elif command is None and not token.startswith("-"):
            if token not in COMMANDS:
                _fail(f"invalid command {token!r} (choose from {', '.join(COMMANDS)})")
            command = token
            names = _OPTIONS if command == "table" else _OPTIONS[:3]
        else:
            unknown.append(token)
    if command is None:
        _fail("the following arguments are required: command")
    if "--config" not in values:
        _fail("the following arguments are required: --config")
    if unknown:
        _fail(f"unrecognized arguments: {' '.join(unknown)}")
    return command, values["--config"], values.get("--out"), values.get("--mode")


def main(argv=None) -> int:
    command, config_path, out, mode = _command_line(argv)
    try:
        text = pathlib.Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error[parse]: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        config = config.replace(command=command, mode=mode or config.mode)
        output = _output(config)
    except ConfigError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 1
    if not out:
        for piece in output:
            sys.stdout.write(piece)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            for piece in output:
                fh.write(piece)
    except OSError as exc:
        print(f"error[parse]: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
