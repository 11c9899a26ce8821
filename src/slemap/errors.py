"""Exception types shared across the package."""


class SlemapError(Exception):
    """Base class for all package errors."""


class TokenCapExceeded(SlemapError):
    """A statement exceeds the configured token cap; input needs pre-truncation."""


class NonSymmetricInput(SlemapError):
    """A matrix that must be symmetric is not."""


class DimensionMismatch(SlemapError):
    """Array shapes do not agree."""


class RankDeficient(SlemapError):
    """Not enough well-separated eigenpairs / singular values for the request."""


class NonFiniteValue(SlemapError):
    """An objective or gradient became NaN or infinite."""


class KTooLarge(SlemapError):
    """Requested more neighbors than there are training documents."""


class SingleClass(SlemapError):
    """A ranking metric needs both classes present."""


class FoldTooSmall(SlemapError):
    """A cross-validation fold is missing one of the classes."""


class EmptyVocabulary(SlemapError):
    """No tokens available to build a term-document matrix."""


class SchemaError(SlemapError):
    """A dataset file does not match the expected column layout."""


class ParseError(SlemapError):
    """A dataset row or dictionary line could not be parsed; message carries
    the line number."""


class InvalidSpec(SlemapError):
    """A synthetic-generator spec is inconsistent."""


class ConfigError(SlemapError):
    """A pipeline config file is malformed or contains unknown keys."""


class DegenerateLambda(UserWarning):
    """Supervised embedding columns collapsed; the loss weight is too large."""
