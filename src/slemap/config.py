"""Pipeline configuration: a flat key-value file with dotted sections.

Lines are ``section.key = value``; a line whose first non-blank character is
'#' is a comment.  A '#' anywhere else is part of the value (it can be a
legitimate delimiter), so comments never share a line with a key.  Unknown
keys are rejected so typos fail loudly.  ``echo()`` renders the fully-resolved
configuration in a canonical order, and every report and model directory
embeds that echo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .dictionary import TransformationDictionary, default_dictionary, load_dictionary_dir
from .errors import ConfigError
from .sle import SleConfig
from .text import DEFAULT_DELIMITERS, DEFAULT_STOP_WORDS, NormalizationConfig
from .transforms import TransformWeights

MAX_CAP = 12   # largest normalize.max_tokens and normalize.max_statements
_WEIGHT_KEYS = ("equal", "synonym", "misspelling", "abbreviation", "prefix",
                "acronym", "concatenation", "suffix", "missing")


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
        values: dict[str, str] = {}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val
        return cls.from_mapping(values, source=str(path))

    @classmethod
    def from_mapping(cls, values: dict[str, str], source: str = "<mapping>") -> "PipelineConfig":
        kwargs = {}
        weight_vals = list(TransformWeights.default().values)
        for key, val in values.items():
            try:
                if key.startswith("weights."):
                    name = key.split(".", 1)[1]
                    if name not in _WEIGHT_KEYS:
                        raise ConfigError(f"{source}: unknown transformation {name!r}")
                    weight_vals[_WEIGHT_KEYS.index(name)] = float(val)
                elif key == "normalize.delimiters":
                    kwargs["delimiters"] = val
                elif key == "normalize.stop_words":
                    kwargs["stop_words"] = tuple(sorted(
                        t.strip() for t in val.split(",") if t.strip()))
                elif key == "normalize.max_statements":
                    kwargs["max_statements"] = int(val)
                elif key == "normalize.max_tokens":
                    kwargs["max_tokens"] = int(val)
                elif key == "dictionary.dir":
                    kwargs["dictionary_dir"] = val
                elif key == "misspelling.max_edit_distance":
                    kwargs["max_edit_distance"] = int(val)
                elif key == "misspelling.min_token_length":
                    kwargs["min_token_length"] = int(val)
                elif key == "embedding.dims":
                    kwargs["dims"] = int(val)
                elif key == "sle.lambda":
                    kwargs["lam"] = None if val == "auto" else float(val)
                elif key == "sle.lambda_ratio":
                    kwargs["lambda_ratio"] = float(val)
                elif key == "sle.l2":
                    kwargs["l2"] = float(val)
                elif key == "sle.max_outer_iters":
                    kwargs["max_outer_iters"] = int(val)
                elif key == "sle.inner_theta_steps":
                    kwargs["inner_theta_steps"] = int(val)
                elif key == "sle.inner_embedding_steps":
                    kwargs["inner_embedding_steps"] = int(val)
                elif key == "sle.tol":
                    kwargs["sle_tol"] = float(val)
                elif key == "knn.k":
                    kwargs["knn_k"] = int(val)
                elif key == "knn.weighted":
                    kwargs["knn_weighted"] = _parse_bool(val, key, source)
                elif key == "cv.folds":
                    kwargs["folds"] = int(val)
                elif key == "cv.seed":
                    kwargs["seed"] = int(val)
                elif key == "cv.retrain_auc":
                    kwargs["retrain_auc"] = float(val)
                elif key == "cv.max_retrains":
                    kwargs["max_retrains"] = int(val)
                elif key == "lsi.joint_embed":
                    kwargs["lsi_joint"] = _parse_bool(val, key, source)
                else:
                    raise ConfigError(f"{source}: unknown key {key!r}")
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from exc
        kwargs["weights"] = tuple(weight_vals)
        try:
            cfg = cls(**kwargs)
            cfg.transform_weights()
            cfg.sle_config(cfg.seed)
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        # The similarity dynamic programs are exponential in these caps.
        if not (1 <= cfg.max_tokens <= MAX_CAP and 1 <= cfg.max_statements <= MAX_CAP):
            raise ConfigError(f"{source}: normalize.max_tokens and normalize.max_statements "
                              f"must lie in 1..{MAX_CAP}")
        if cfg.dims < 1 or cfg.folds < 2 or cfg.knn_k < 1 or cfg.max_retrains < 1:
            raise ConfigError(f"{source}: dims, folds, knn.k, cv.max_retrains must be positive")
        if not (0.0 <= cfg.retrain_auc <= 1.0):
            raise ConfigError(f"{source}: cv.retrain_auc must lie in [0, 1]")
        return cfg

    def echo(self) -> str:
        """Canonical text rendering; parses back to an identical config."""
        lines = [
            "# resolved pipeline configuration",
            f"normalize.delimiters = {self.delimiters}",
            f"normalize.stop_words = {','.join(self.stop_words)}",
            f"normalize.max_statements = {self.max_statements}",
            f"normalize.max_tokens = {self.max_tokens}",
        ]
        for name, val in zip(_WEIGHT_KEYS, self.weights):
            lines.append(f"weights.{name} = {val!r}")
        lines.extend([
            f"dictionary.dir = {self.dictionary_dir}",
            f"misspelling.max_edit_distance = {self.max_edit_distance}",
            f"misspelling.min_token_length = {self.min_token_length}",
            f"embedding.dims = {self.dims}",
            f"sle.lambda = {'auto' if self.lam is None else repr(self.lam)}",
            f"sle.lambda_ratio = {self.lambda_ratio!r}",
            f"sle.l2 = {self.l2!r}",
            f"sle.max_outer_iters = {self.max_outer_iters}",
            f"sle.inner_theta_steps = {self.inner_theta_steps}",
            f"sle.inner_embedding_steps = {self.inner_embedding_steps}",
            f"sle.tol = {self.sle_tol!r}",
            f"knn.k = {self.knn_k}",
            f"knn.weighted = {'true' if self.knn_weighted else 'false'}",
            f"cv.folds = {self.folds}",
            f"cv.seed = {self.seed}",
            f"cv.retrain_auc = {self.retrain_auc!r}",
            f"cv.max_retrains = {self.max_retrains}",
            f"lsi.joint_embed = {'true' if self.lsi_joint else 'false'}",
        ])
        return "\n".join(lines) + "\n"


def _parse_bool(val: str, key: str, source: str) -> bool:
    low = val.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{source}: bad boolean for {key!r}: {val!r}")


def load_config(path: str | Path | None) -> PipelineConfig:
    return PipelineConfig() if path is None else PipelineConfig.load(path)
