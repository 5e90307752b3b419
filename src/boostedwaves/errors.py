"""Exception types shared across the toolkit."""


class ZeroFieldError(ValueError):
    """An operation that needs a nonzero field received the zero field."""


class HypothesisViolatedError(ValueError):
    """Problem parameters fall outside the coercivity/existence hypotheses."""


class DisconnectedSupportError(ValueError):
    """Phase unwrapping is undefined on a spectral support with several components."""


class GnfFormatError(ValueError):
    """Malformed GNF1 field file; carries the byte offset of the defect."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
