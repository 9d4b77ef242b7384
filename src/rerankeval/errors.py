"""Exception hierarchy shared across the package."""


class RerankEvalError(Exception):
    """Base class for all package errors."""


# --- ingest ---

class MissingFile(RerankEvalError):
    pass


class MalformedRow(RerankEvalError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyTitle(RerankEvalError):
    pass


class NoHistory(RerankEvalError):
    pass


class StaleSplit(RerankEvalError):
    pass


# --- candidate generation ---

class CatalogTooSmall(RerankEvalError):
    pass


class UnknownUser(RerankEvalError):
    pass


class NonFiniteLoss(RerankEvalError):
    pass


class BadSlate(RerankEvalError):
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


class MissingApiKey(BackendError):
    pass


# --- rerank ---

class UnknownItem(RerankEvalError):
    pass


class EmptyOutputs(RerankEvalError):
    pass


class SlateMismatch(RerankEvalError):
    pass


# --- dataset generation ---

class GenerationOrderDrift(RerankEvalError):
    pass


# --- metrics / stats ---

class MissingRelevance(RerankEvalError):
    pass


class ZeroVariance(RerankEvalError):
    pass


class LengthMismatch(RerankEvalError):
    pass


class UserSetMismatch(RerankEvalError):
    pass
