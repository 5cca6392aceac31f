"""Exception types shared across the package."""


class ClaimcheckError(Exception):
    """Base class for all package errors."""


class MissingBinding(ClaimcheckError):
    def __init__(self, name: str):
        super().__init__(f"template placeholder not bound: {name!r}")
        self.name = name


class ScriptMiss(ClaimcheckError):
    def __init__(self, fingerprint: str, text: str = ""):
        preview = text[:120]
        super().__init__(f"no scripted response for fingerprint {fingerprint} ({preview!r})")
        self.fingerprint = fingerprint


class TransportError(ClaimcheckError):
    pass


class QueryTimeout(TransportError):
    pass


class ProviderQuotaExceeded(TransportError):
    pass


class ParseFailure(ClaimcheckError):
    pass


class SchemaViolation(ParseFailure):
    def __init__(self, field: str, detail: str = ""):
        super().__init__(f"schema violation on field {field!r}: {detail}")
        self.field = field


class EmptyClaim(ClaimcheckError):
    pass


class BudgetExhausted(ClaimcheckError):
    pass


class AllItemsFailed(ClaimcheckError):
    pass


class SingleClassGold(ClaimcheckError):
    pass


class UnknownLabel(ClaimcheckError):
    def __init__(self, value: str):
        super().__init__(f"unknown veracity label: {value!r}")
        self.value = value


class DatasetParseError(ClaimcheckError):
    def __init__(self, line_no: int, detail: str = ""):
        super().__init__(f"bad dataset record at line {line_no}: {detail}")
        self.line_no = line_no


class InsufficientData(ClaimcheckError):
    pass


class ConfigError(ClaimcheckError):
    pass
