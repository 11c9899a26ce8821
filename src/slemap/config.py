"""Pipeline configuration: a flat key-value file with dotted sections.

Lines are ``section.key = value``; a line whose first non-blank character is
'#' is a comment.  A '#' anywhere else is part of the value (it can be a
legitimate delimiter), so comments never share a line with a key.  Unknown
keys are rejected so typos fail loudly.  ``KEYS`` drives both parsing and
``echo()``, the canonical rendering that every report and model directory
embeds.  A config is checked whenever it is built, ``replace`` included.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dictionary import TransformationDictionary, default_dictionary, load_dictionary_dir
from .errors import ConfigError
from .sle import SleConfig
from .text import DEFAULT_DELIMITERS, DEFAULT_STOP_WORDS, NormalizationConfig
from .transforms import TransformKind, TransformWeights

MAX_CAP = 12   # largest normalize.max_tokens and normalize.max_statements

# file key -> PipelineConfig field, in echo order; a weights.<kind> key holds
# the entry of its transformation kind in the weights tuple
KEYS: dict[str, str] = {
    "normalize.delimiters": "delimiters",
    "normalize.stop_words": "stop_words",
    "normalize.max_statements": "max_statements",
    "normalize.max_tokens": "max_tokens",
    **{f"weights.{kind.name.lower()}": "weights" for kind in TransformKind},
    "dictionary.dir": "dictionary_dir",
    "misspelling.max_edit_distance": "max_edit_distance",
    "misspelling.min_token_length": "min_token_length",
    "embedding.dims": "dims",
    "sle.lambda": "lam",
    "sle.lambda_ratio": "lambda_ratio",
    "sle.l2": "l2",
    "sle.max_outer_iters": "max_outer_iters",
    "sle.inner_theta_steps": "inner_theta_steps",
    "sle.inner_embedding_steps": "inner_embedding_steps",
    "sle.tol": "sle_tol",
    "knn.k": "knn_k",
    "knn.weighted": "knn_weighted",
    "cv.folds": "folds",
    "cv.seed": "seed",
    "cv.retrain_auc": "retrain_auc",
    "cv.max_retrains": "max_retrains",
    "lsi.joint_embed": "lsi_joint",
}


def read_settings(path: str | Path, error: type[Exception]) -> dict[str, tuple[str, str]]:
    """A file's ``key = value`` lines as key -> (value, "path:line"); a line
    without '=' or a repeated key raises ``error``."""
    values: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise error(f"{where}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise error(f"{where}: duplicate key {key!r}")
        values[key] = (val, where)
    return values


@dataclass(frozen=True)
class PipelineConfig:
    delimiters: str = DEFAULT_DELIMITERS
    stop_words: tuple[str, ...] = tuple(sorted(DEFAULT_STOP_WORDS))
    max_statements: int = 6
    max_tokens: int = 12
    weights: tuple[float, ...] = TransformWeights.default().values
    dictionary_dir: str = ""          # empty: packaged default dictionary
    max_edit_distance: int = 1
    min_token_length: int = 4
    dims: int = 20
    lam: float | None = None          # None: the small-lambda heuristic
    lambda_ratio: float = 0.1
    l2: float = 1e-3
    max_outer_iters: int = 50
    inner_theta_steps: int = 25
    inner_embedding_steps: int = 25
    sle_tol: float = 1e-6
    knn_k: int = 5
    knn_weighted: bool = True
    folds: int = 5
    seed: int = 0
    retrain_auc: float = 0.65
    max_retrains: int = 5
    lsi_joint: bool = False

    def __post_init__(self) -> None:
        # The similarity dynamic programs are exponential in these caps.
        if not (1 <= self.max_tokens <= MAX_CAP and 1 <= self.max_statements <= MAX_CAP):
            raise ConfigError("normalize.max_tokens and normalize.max_statements "
                              f"must lie in 1..{MAX_CAP}")
        if self.dims < 1 or self.knn_k < 1 or self.max_retrains < 1:
            raise ConfigError("embedding.dims, knn.k and cv.max_retrains must be at least 1")
        if self.folds < 2:
            raise ConfigError("cv.folds must be at least 2")
        if self.seed < 0:
            raise ConfigError("cv.seed must be non-negative")
        if self.max_edit_distance < 0 or self.min_token_length < 0:
            raise ConfigError("misspelling.max_edit_distance and misspelling.min_token_length "
                              "must be at least 0")
        if not 0.0 <= self.retrain_auc <= 1.0:
            raise ConfigError("cv.retrain_auc must lie in [0, 1]")
        try:
            self.transform_weights()
            self.sle_config(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    # ---- derived views -------------------------------------------------

    def normalization(self) -> NormalizationConfig:
        return NormalizationConfig(
            delimiters=self.delimiters,
            stop_words=frozenset(self.stop_words),
            max_statements=self.max_statements,
            max_tokens=self.max_tokens,
        )

    def transform_weights(self) -> TransformWeights:
        return TransformWeights(self.weights)

    def sle_config(self, seed: int) -> SleConfig:
        return SleConfig(
            dims=self.dims, lam=self.lam, lambda_ratio=self.lambda_ratio,
            l2=self.l2, max_outer_iters=self.max_outer_iters,
            inner_theta_steps=self.inner_theta_steps,
            inner_embedding_steps=self.inner_embedding_steps,
            tol=self.sle_tol, seed=seed)

    def load_dictionary(self) -> TransformationDictionary:
        if self.dictionary_dir:
            return load_dictionary_dir(
                self.dictionary_dir,
                max_edit_distance=self.max_edit_distance,
                min_token_length=self.min_token_length,
            )
        d = default_dictionary()
        return replace(d, max_edit_distance=self.max_edit_distance,
                       min_token_length=self.min_token_length)

    # ---- file round trip -------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return cls._parse(read_settings(path, ConfigError), str(path))

    @classmethod
    def from_mapping(cls, values: dict[str, str], source: str = "<mapping>") -> "PipelineConfig":
        return cls._parse({key: (val, source) for key, val in values.items()}, source)

    @classmethod
    def _parse(cls, values: dict[str, tuple[str, str]], source: str) -> "PipelineConfig":
        kwargs = {}
        weights = list(cls.weights)
        for key, (val, where) in values.items():
            name = KEYS.get(key)
            if name is None:
                raise ConfigError(f"{where}: unknown key {key!r}")
            parse = _CODECS[_FIELD_TYPES[name]][0]
            try:
                if name == "weights":
                    weights[_weight_kind(key)] = parse(val)
                else:
                    kwargs[name] = parse(val)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
        try:
            return cls(**kwargs, weights=tuple(weights))
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None

    def echo(self) -> str:
        """Canonical text rendering; loads back to an equal config."""
        lines = ["# resolved pipeline configuration"]
        for key, name in KEYS.items():
            value = getattr(self, name)
            if name == "weights":
                value = value[_weight_kind(key)]
            lines.append(f"{key} = {_CODECS[_FIELD_TYPES[name]][1](value)}")
        return "\n".join(lines) + "\n"


def _weight_kind(key: str) -> TransformKind:
    return TransformKind[key.removeprefix("weights.").upper()]


def _parse_bool(val: str) -> bool:
    low = val.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {val!r}")


# field annotation -> (parse, print); the float tuple is the weights, whose
# entries are one key each
_CODECS = {
    "int": (int, str),
    "float": (float, repr),
    "str": (str, str),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "float | None": (lambda val: None if val == "auto" else float(val),
                     lambda v: "auto" if v is None else repr(v)),
    "tuple[str, ...]": (lambda val: tuple(sorted(t.strip() for t in val.split(",") if t.strip())),
                        ",".join),
    "tuple[float, ...]": (float, repr),
}
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
