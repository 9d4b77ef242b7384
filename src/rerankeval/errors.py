"""Exception hierarchy shared across the package.

A type has its own class only when code tells it apart: some handler catches
it by type or reads a field it carries, or it names a reason a single user
is skipped. Every other error is a RerankEvalError with its message.
"""


class RerankEvalError(Exception):
    """Base class for all package errors."""


class MalformedRow(RerankEvalError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ZeroVariance(RerankEvalError):
    pass


# --- llm client ---

class BackendError(RerankEvalError):
    pass


class Timeout(BackendError):
    pass


class HttpStatus(BackendError):
    def __init__(self, code, message=""):
        super().__init__(f"HTTP {code}: {message}" if message else f"HTTP {code}")
        self.code = code


class ExhaustedRetries(BackendError):
    pass


# --- reasons a single user is skipped ---

class CatalogTooSmall(RerankEvalError):
    pass


class BadSlate(RerankEvalError):
    pass


class UnknownItem(RerankEvalError):
    pass


class EmptyTitle(RerankEvalError):
    pass


class NoHistory(RerankEvalError):
    pass


class UnknownUser(RerankEvalError):
    pass


class GenerationOrderDrift(RerankEvalError):
    pass
