"""Exception types shared across the package.

Two families matter for the CLI exit-code contract: InputError (bad files,
bad flags, malformed data -> exit 1) and ContractError (an internal
invariant was violated -> exit 2).
"""

import numbers


class EttagError(Exception):
    pass


class InputError(EttagError):
    """User-supplied data or configuration is unusable."""


class ContractError(EttagError):
    """An internal contract was violated; indicates a bug or mismatched artifacts."""


class UsageError(InputError):
    """The command line does not parse: an unknown or missing flag, or a bad flag value."""


class InvalidConfig(InputError, ValueError):
    """A setting is out of range, or a config-file value has the wrong type."""


class CorruptCheckpoint(InputError, ValueError):
    """A model checkpoint is not an intact ETMDL3 file for this output vocabulary,
    or holds a bad input-vocabulary section or non-finite weights."""


class InvalidName(InputError):
    pass


class DuplicateName(InputError):
    def __init__(self, offenders):
        self.offenders = list(offenders)
        preview = ", ".join(repr(n) for n in self.offenders[:5])
        more = "" if len(self.offenders) <= 5 else f" (+{len(self.offenders) - 5} more)"
        super().__init__(f"duplicate canonical names: {preview}{more}")


class EmptyCatalog(InputError):
    pass


class MalformedLine(InputError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DanglingIMention(MalformedLine):
    def __init__(self, line_no):
        super().__init__(line_no, "continuation tag without an open mention")


class SchemaError(InputError):
    def __init__(self, doc_id, field, message=""):
        self.doc_id = doc_id
        self.field = field
        detail = f": {message}" if message else ""
        super().__init__(f"record {doc_id!r}, field {field!r}{detail}")


class UnknownEntity(InputError):
    pass


class MissingMentionOrder(InputError):
    pass


class EmptyDataset(InputError):
    pass


class CacheMismatch(InputError):
    """A trie cache is damaged or malformed, or was built from another KB file."""


class OutputOOV(ContractError):
    """A token outside the output vocabulary showed up on the output side."""


class DisallowedToken(ContractError):
    pass


class ScorerContractViolation(ContractError):
    pass


class NoFinishedHypothesis(ContractError):
    """Decoding ran out of token budget before any hypothesis reached EOS."""


def require_ints(config, low: int, *names: str) -> None:
    """Raise InvalidConfig unless each named attribute of ``config`` is an int >= low."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise InvalidConfig(f"{name} must be an integer >= {low}, got {value!r}")
