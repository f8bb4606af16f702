"""Command-line front door of ``compute``, ``verify``, ``clifford``,
``oscillator`` and ``suite``.

One table, ``COMMANDS``, lists each subcommand's handler, positionals and
options; one loop parses argv against it, and the help comes from it.  An
option is ``--name value`` or ``--name=value``; names match exactly, and a
value is taken verbatim even when it starts with ``-``.  Every handler
lives in a module that only its subcommand, or ``suite``, imports, so
``--help`` compiles no engine code.  ``--mode`` alone sets the arithmetic.

Exit codes: 0 success or help, 1 assertion, invariant or verdict failure
(never a traceback), 2 invalid input: a usage error (``error: ...`` and
the usage line), an ``InputError`` (see ``errors``) or an ``OSError``.
Any other ``ValueError`` or ``RuntimeError`` is a broken internal
invariant and exits 1.
"""

import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import CheckFailure, InputError

PASS, FAIL, USAGE = 0, 1, 2
_USAGE_ERRORS = (InputError, OSError)

# An option is (name, kind, default, required, help); its kind is "flag",
# int, str or a tuple of choices.  A positional is (name, help).
_OUTPUT = (("format", ("text", "json"), "text", False, "report format"),
           ("out", str, None, False, "write the report to this path"))
_MODE = ("mode", ("exact", "float"), "exact", False, "arithmetic mode")
_MODEL = ("model", "model file or builtin:<name>")

# command: (handler module, handler, summary, positionals, options)
COMMANDS = {
    "compute": ("cone_jobs", "cmd_compute",
                "cone Betti numbers and semi-characteristic", (_MODEL,),
                (("p", int, 0, False,
                  "cone parameter: pair degrees k and k-2p-1"),
                 ("allow-degenerate", "flag", False, False,
                  "skip the nondegeneracy requirement")) + _OUTPUT),
    "verify": ("census", "cmd_verify",
               "check the mod-2 zero count against a census", (_MODEL,),
               (("census", str, None, True, "census JSON file"),) + _OUTPUT),
    "clifford": ("clifford", "cmd_clifford", "algebraic identity checks", (),
                 (("n", int, 1, False,
                   "quarter dimension: operators act on R^(4n) forms"),
                  ("checks", str, "all", False, "comma list from car, star, "
                   "omega, complex-structure, all"), _MODE) + _OUTPUT),
    "oscillator": ("oscillator_job", "cmd_oscillator",
                   "model operator checks for a coefficient matrix", (),
                   (("matrix", str, None, True,
                     "text file with rows of rationals"),
                    ("degree-cap", int, 2, False,
                     "polynomial degree window for the spectrum"),
                    _MODE) + _OUTPUT),
    "suite": ("suite", "cmd_suite", "run the builtin acceptance criteria", (),
              (("list", "flag", False, False,
                "list criteria without running them"),)),
}
_ABOUT = ("Exact semi-characteristic engine: mapping cones, mod-2 zero "
          "counting,\nClifford identities, and the finite model operator.")


class _Usage(Exception):
    """A usage error: (message, command or None)."""


def _spelled(option) -> str:
    name, kind = option[:2]
    value = f"{{{','.join(kind)}}}" if isinstance(kind, tuple) \
        else name.upper().replace("-", "_")
    return f"--{name}" if kind == "flag" else f"--{name} {value}"


def _usage(command=None) -> str:
    if command is None:
        return f"usage: symsemi {{{','.join(COMMANDS)}}} ..."
    positionals, options = COMMANDS[command][3:]
    words = [_spelled(o) if o[3] else f"[{_spelled(o)}]" for o in options]
    return " ".join(["usage: symsemi", command, "[-h]", *words,
                     *(name for name, _ in positionals)])


def _help(command=None) -> str:
    if command is None:
        about = _ABOUT
        rows = [(name, spec[2]) for name, spec in COMMANDS.items()]
    else:
        about, positionals, options = COMMANDS[command][2:]
        rows = list(positionals) + [
            (_spelled(o), o[4] if o[2] is None or o[1] == "flag"
             else f"{o[4]} (default {o[2]})") for o in options]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(command), "", about, ""] + [
        f"  {left:<{width}}{right}" for left, right in rows]) + "\n"


def parse(argv):
    """The parsed argv: ``command`` and one attribute per positional and
    option of it; None once help is printed; _Usage if misused."""
    if argv and argv[0] in ("-h", "--help"):
        print(_help(), end="")
        return None
    if not argv or argv[0] not in COMMANDS:
        found = f"unknown command {argv[0]!r}" if argv else "no command"
        raise _Usage(f"{found}; choose from {', '.join(COMMANDS)}")
    command = argv[0]
    positionals, options = COMMANDS[command][3:]
    table = {f"--{o[0]}": o for o in options}
    values = {o[0].replace("-", "_"): o[2] for o in options}
    given, words = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(command), end="")
            return None
        if token == "--":
            words += tokens
            break
        name, eq, text = token.partition("=")
        option = table.get(name)
        if option is None:
            if token.startswith("-") and token != "-":
                raise _Usage(f"unrecognized option {name}", command)
            words.append(token)
            continue
        kind = option[1]
        if kind == "flag":
            if eq:
                raise _Usage(f"{name} takes no value", command)
            text = True
        elif not eq:
            text = next(tokens, None)
            if text is None:
                raise _Usage(f"{name} needs a value", command)
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                raise _Usage(f"{name} wants an integer, got {text!r}",
                             command) from None
        elif isinstance(kind, tuple) and text not in kind:
            raise _Usage(f"{name} wants one of {', '.join(kind)}, got "
                         f"{text!r}", command)
        values[option[0].replace("-", "_")] = text
        given.add(option[0])
    missing = [name for name, _ in positionals[len(words):]] + [
        f"--{o[0]}" for o in options if o[3] and o[0] not in given]
    if missing:
        raise _Usage(f"missing {', '.join(missing)}", command)
    if len(words) > len(positionals):
        raise _Usage(f"unexpected argument {words[len(positionals)]!r}",
                     command)
    values.update(zip((name for name, _ in positionals), words))
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else list(argv))
    except _Usage as exc:
        print(f"error: {exc.args[0]}\n{_usage(*exc.args[1:])}",
              file=sys.stderr)
        return USAGE
    if args is None:
        return PASS
    module, handler = COMMANDS[args.command][:2]
    try:
        return getattr(import_module(f".{module}", __package__),
                       handler)(args)
    except CheckFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return FAIL
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (RuntimeError, ValueError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
